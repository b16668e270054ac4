package mutation

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/comptest"
	"repro/internal/lint"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/testdef"
)

// builtinPlans enumerates the kill matrix of every built-in suite.
func builtinPlans(t *testing.T) []*Plan {
	t.Helper()
	plans, err := EnumerateBuiltin()
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// primedStats returns the kill statistics of one run of the plan, as
// `comptest mutate` reads them from its .kills.json sidecar.
func primedStats(t *testing.T, p *Plan) *lint.KillMatrix {
	t.Helper()
	m, err := Run(context.Background(), p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := report.Strength{DUTs: []report.DUTStrength{m.Strength(nil)}}
	return lint.KillMatrixFromStrength(&s)
}

// streamed is one Run's matrix and its Ordered NDJSON stream, with the
// Seq of every streamed line.
type streamed struct {
	mat  *Matrix
	ndj  []byte
	seqs []int
}

func stream(p *Plan, opts Options) (streamed, error) {
	var out streamed
	var buf bytes.Buffer
	ndj := comptest.NDJSON(&buf)
	opts.Sink = comptest.Ordered(comptest.SinkFunc(func(r comptest.Result) {
		out.seqs = append(out.seqs, r.Seq)
		ndj.Emit(r)
	}))
	mat, err := Run(context.Background(), p, opts)
	if err == nil {
		err = ndj.Err()
	}
	out.mat, out.ndj = mat, buf.Bytes()
	return out, err
}

func runStreamed(t *testing.T, p *Plan, opts Options) streamed {
	t.Helper()
	out, err := stream(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameMatrix compares two kill matrices outcome by outcome.
func sameMatrix(t *testing.T, label string, a, b *Matrix) {
	t.Helper()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: %d outcomes, want %d", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		x, y := a.Outcomes[i], b.Outcomes[i]
		if x.Mutant.ID != y.Mutant.ID || x.Killed != y.Killed || x.Witness != y.Witness ||
			x.Runs != y.Runs || x.Failed != y.Failed || (x.Err == nil) != (y.Err == nil) {
			t.Errorf("%s: outcome %d differs:\n%+v\n%+v", label, i, x, y)
		}
	}
}

// TestOrderedStreamSkipsEarlyKills: with kill statistics primed, early
// kill skips most mutant units, and an Ordered sink still streams every
// executed unit — Units minus Skipped lines, in strictly increasing Seq
// order. A sink that missed the skip notices would stall at the first
// skipped unit and stream a prefix, the same at every parallelism.
func TestOrderedStreamSkipsEarlyKills(t *testing.T) {
	skipped := 0
	for _, p := range builtinPlans(t) {
		stats := primedStats(t, p)
		units := len(p.Baseline)
		for _, m := range p.Mutants {
			units += len(m.scripts)
		}
		for _, par := range []int{1, 4} {
			got := runStreamed(t, p, Options{Parallelism: par, KillStats: stats})
			executed := len(p.Baseline)
			for _, o := range got.mat.Outcomes {
				executed += o.Runs
			}
			skipped += units - executed
			if lines := bytes.Count(got.ndj, []byte("\n")); lines != executed || len(got.seqs) != executed {
				t.Errorf("%s parallel %d: %d lines, %d results, want %d (units %d, skipped %d)",
					p.DUT, par, lines, len(got.seqs), executed, units, units-executed)
			}
			for i := 1; i < len(got.seqs); i++ {
				if got.seqs[i] <= got.seqs[i-1] {
					t.Fatalf("%s parallel %d: seq %d streamed after %d", p.DUT, par, got.seqs[i], got.seqs[i-1])
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("early kill skipped no unit")
	}
}

// TestConcurrentRunsOnOnePlan: two Runs sharing one Plan, and so its
// scripts and their shared statements, each stream to their own sink
// exactly what they stream alone.
func TestConcurrentRunsOnOnePlan(t *testing.T) {
	optsA := Options{Parallelism: 2}
	optsB := Options{Parallelism: 2, RunToCompletion: true}
	seqA := runStreamed(t, paperPlan(t), optsA)
	seqB := runStreamed(t, paperPlan(t), optsB)

	p := paperPlan(t)
	var gotA, gotB streamed
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); gotA, errA = stream(p, optsA) }()
	go func() { defer wg.Done(); gotB, errB = stream(p, optsB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent runs: %v, %v", errA, errB)
	}
	for _, c := range []struct {
		label     string
		got, want streamed
	}{{"early kill", gotA, seqA}, {"run to completion", gotB, seqB}} {
		if !bytes.Equal(c.got.ndj, c.want.ndj) {
			t.Errorf("%s: concurrent run streams %d bytes, sequential %d", c.label, len(c.got.ndj), len(c.want.ndj))
		}
		sameMatrix(t, c.label, c.got.mat, c.want.mat)
	}
}

// TestEnumerateSharedGenerator: the scripts Enumerate builds through
// one Generator per suite encode to the same XML as scripts generated
// one at a time.
func TestEnumerateSharedGenerator(t *testing.T) {
	encode := func(sc *script.Script) string {
		s, err := script.EncodeString(sc)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for _, p := range builtinPlans(t) {
		suite := p.Suite
		each := func(tc *testdef.TestCase) (*script.Script, error) {
			return script.Generate(tc, suite.Signals, suite.Statuses)
		}
		for i, tc := range suite.Tests {
			sc, err := each(tc)
			if err != nil {
				t.Fatal(err)
			}
			if encode(p.Baseline[i]) != encode(sc) {
				t.Errorf("%s: baseline %s differs from its own generation", p.DUT, tc.Name)
			}
		}
		want, err := scriptMutants(suite, each)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Mutants[len(p.Mutants)-len(want):]
		for i, m := range want {
			if got[i].ID != m.ID || len(got[i].scripts) != len(m.scripts) {
				t.Fatalf("%s: mutant %d is %s with %d scripts, want %s with %d",
					p.DUT, i, got[i].ID, len(got[i].scripts), m.ID, len(m.scripts))
			}
			for k := range m.scripts {
				if encode(got[i].scripts[k]) != encode(m.scripts[k]) {
					t.Errorf("%s: %s script %d differs from its own generation", p.DUT, m.ID, k)
				}
			}
		}
	}
}
