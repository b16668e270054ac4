package repro

// The compiled-path equivalence suite: the optimisations of the
// execution engine — compiling scripts once (comptest.Compile), the
// quiescence fast-forward, stand pooling, worker parallelism and
// mutation early-kill — are pure speed-ups. Every one of them must
// leave the observable output byte-identical to the naive path, and
// this file pins each dimension against its ground truth over the FULL
// builtin matrix: every registered DUT's workbook on every registered
// stand profile, including the pairs whose runs fail by design
// (allocation errors on under-equipped stands).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/comptest"
	"repro/comptest/mutation"
	"repro/internal/ecu"
	"repro/internal/lint"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
)

// compileBuiltin compiles the builtin workbook of every registered DUT.
func compileBuiltin(t *testing.T) map[string]*comptest.Plan {
	t.Helper()
	plans := map[string]*comptest.Plan{}
	for _, dut := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := comptest.Compile(suite)
		if err != nil {
			t.Fatal(err)
		}
		plans[dut] = plan
	}
	return plans
}

// freshStand builds the named stand profile for one script's harness
// with a fresh instance of the named DUT attached.
func freshStand(t *testing.T, standName, dut string, plan *comptest.Plan, sc *script.Script) *stand.Stand {
	t.Helper()
	cfg, err := comptest.BuildStand(standName, plan.Suite.Registry, stand.HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st, err := stand.New(cfg, plan.Suite.Registry)
	if err != nil {
		t.Fatal(err)
	}
	d, err := comptest.NewDUT(dut)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachDUT(d); err != nil {
		t.Fatal(err)
	}
	return st
}

func encode(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	b, err := report.EncodeJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// forEachPair runs f for every (DUT script, stand profile) combination
// of the builtin matrix.
func forEachPair(t *testing.T, plans map[string]*comptest.Plan,
	f func(t *testing.T, standName, dut string, plan *comptest.Plan, sc *script.Script)) {
	t.Helper()
	for _, dut := range comptest.DUTNames() {
		plan := plans[dut]
		for _, standName := range comptest.StandNames() {
			for _, sc := range plan.Scripts {
				f(t, standName, dut, plan, sc)
			}
		}
	}
}

// TestBuiltinMatrixGolden pins every report of the builtin matrix to
// the SHA-256 recorded in testdata/builtin_matrix.sha256 (one line per
// report: digest, DUT, stand, script). The digests were taken from the
// interpreted step loop that RunContext ran before it became a front
// door for RunCompiled, so they hold the compiled path to that loop's
// bytes.
func TestBuiltinMatrixGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/builtin_matrix.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	plans := compileBuiltin(t)
	ctx := context.Background()
	n := 0
	forEachPair(t, plans, func(t *testing.T, standName, dut string, plan *comptest.Plan, sc *script.Script) {
		b := encode(t, freshStand(t, standName, dut, plan, sc).RunContext(ctx, sc))
		got := fmt.Sprintf("%x %s %s %s", sha256.Sum256(b), dut, standName, sc.Name)
		if n >= len(want) {
			t.Errorf("%s on %s (%s): no golden line\nreport: %s", sc.Name, standName, dut, b)
		} else if got != want[n] {
			t.Errorf("report differs from golden\nwant: %s\ngot:  %s\nreport: %s", want[n], got, b)
		}
		n++
	})
	if n != len(want) {
		t.Errorf("matrix has %d reports, golden has %d lines", n, len(want))
	}
}

// TestRejectedScriptBytes pins the report of a script that does not
// compile: every entry point renders the validation error as FatalErr
// with an empty (not null) step list and no verdicts.
func TestRejectedScriptBytes(t *testing.T) {
	const want = `{"script":"InteriorIllumination","stand":"paper_stand","dut":"interior_light",` +
		`"fatal":"script \"InteriorIllumination\": unsupported version \"99\"","passed":false,"steps":[]}`
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := suite.GenerateScript("InteriorIllumination")
	if err != nil {
		t.Fatal(err)
	}
	sc.Version = "99"
	check := func(via string, rep *report.Report) {
		t.Helper()
		if got := strings.TrimSpace(string(encode(t, rep))); got != want {
			t.Errorf("%s:\ngot:  %s\nwant: %s", via, got, want)
		}
	}
	ctx := context.Background()

	cfg, err := comptest.BuildStand("paper_stand", suite.Registry, stand.HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st, err := stand.New(cfg, suite.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	rec := &recordingObserver{}
	st.SetObserver(rec)
	check("stand.RunContext", st.RunContext(ctx, sc))
	if rec.buf.Len() != 0 {
		t.Errorf("rejected run reached the observer:\n%s", rec.buf.Bytes())
	}

	r, err := comptest.NewRunner(comptest.WithDUT("interior_light"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunScript(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	check("Runner.RunScript", rep)

	var got []*report.Report
	r, err = comptest.NewRunner(comptest.WithSink(comptest.SinkFunc(func(res comptest.Result) {
		got = append(got, res.Report)
	})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Campaign(ctx, []comptest.Unit{{Script: sc, Stand: "paper_stand", DUT: "interior_light"}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Campaign emitted %d results, want 1", len(got))
	}
	check("Runner.Campaign", got[0])
}

// TestFastForwardEquivalence pins the quiescence fast-forward against
// tick-by-tick ground truth: with SetFastForward(false) the stand
// simulates every task period the slow way, and the report must come
// out byte-identical.
func TestFastForwardEquivalence(t *testing.T) {
	plans := compileBuiltin(t)
	ctx := context.Background()
	forEachPair(t, plans, func(t *testing.T, standName, dut string, plan *comptest.Plan, sc *script.Script) {
		slow := freshStand(t, standName, dut, plan, sc)
		slow.SetFastForward(false)
		ground := encode(t, slow.RunCompiled(ctx, plan.Compiled(sc), stand.RunOptions{}))
		fast := encode(t, freshStand(t, standName, dut, plan, sc).
			RunCompiled(ctx, plan.Compiled(sc), stand.RunOptions{}))
		if !bytes.Equal(ground, fast) {
			t.Errorf("%s on %s (%s): fast-forward report differs from tick-by-tick\nticked: %s\nfastfw: %s",
				sc.Name, standName, dut, ground, fast)
		}
	})
}

// recordingObserver encodes every stand.Observer callback as one line
// (kind, simulated time, step, outputs), so two runs' behavioural
// traces compare byte for byte.
type recordingObserver struct{ buf bytes.Buffer }

func (r *recordingObserver) RunStarted(sc *script.Script, ubattVolts float64) {
	fmt.Fprintf(&r.buf, "start %s %v\n", sc.Name, ubattVolts)
}

func (r *recordingObserver) OutputsSampled(now time.Duration, step int, outputs []stand.OutputState) {
	fmt.Fprintf(&r.buf, "sample %d %d %+v\n", now, step, outputs)
}

func (r *recordingObserver) StepFinished(step *script.Step, now time.Duration, outputs []stand.OutputState) {
	fmt.Fprintf(&r.buf, "step %d %d %+v\n", now, step.Nr, outputs)
}

func (r *recordingObserver) RunFinished(rep *report.Report) {
	b, err := report.EncodeJSON(rep)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(&r.buf, "finished %s\n", b)
}

// TestObservedFastForwardEquivalence pins the fast-forward under
// observation: with an observer attached the stand still crosses
// quiescent windows in O(1) and replays the trace samples it skipped,
// so the observer's callback sequence — every sample's time, step and
// output levels — and the report must come out byte-identical to the
// tick-by-tick run.
func TestObservedFastForwardEquivalence(t *testing.T) {
	plans := compileBuiltin(t)
	ctx := context.Background()
	observe := func(t *testing.T, ff bool, standName, dut string, plan *comptest.Plan, sc *script.Script) []byte {
		st := freshStand(t, standName, dut, plan, sc)
		st.SetFastForward(ff)
		rec := &recordingObserver{}
		st.SetObserver(rec)
		st.RunCompiled(ctx, plan.Compiled(sc), stand.RunOptions{})
		return rec.buf.Bytes()
	}
	samples := 0
	forEachPair(t, plans, func(t *testing.T, standName, dut string, plan *comptest.Plan, sc *script.Script) {
		ground := observe(t, false, standName, dut, plan, sc)
		fast := observe(t, true, standName, dut, plan, sc)
		samples += bytes.Count(ground, []byte("\nsample "))
		if !bytes.Equal(ground, fast) {
			t.Errorf("%s on %s (%s): observed fast-forward differs from tick-by-tick\n%s",
				sc.Name, standName, dut, firstDiff(ground, fast))
		}
	})
	if samples == 0 {
		t.Fatal("no trace samples recorded — the observer was not exercised")
	}
}

// firstDiff renders the first differing line of two line-oriented
// byte streams.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d\nticked: %s\nfastfw: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("ticked has %d lines, fastfw %d", len(la), len(lb))
}

// TestCampaignStreamEquivalence runs the full builtin unit matrix as a
// campaign on pooled stands and, as the reference, with every unit on a
// stand built for it outside the stand cache, each at parallelism
// 1 and 4, streaming each run through an Ordered NDJSON sink, and
// requires all four byte streams to be identical. This is what makes
// the pooled, parallel production configuration trustworthy: neither
// reusing a stand (AlignForReuse) nor completion order may leak into
// results.
func TestCampaignStreamEquivalence(t *testing.T) {
	plans := compileBuiltin(t)
	var units []comptest.Unit
	for _, dut := range comptest.DUTNames() {
		units = append(units, plans[dut].Units(comptest.StandNames(), dut)...)
	}
	ctx := context.Background()
	stream := func(run func(ordered comptest.Sink)) []byte {
		t.Helper()
		var buf bytes.Buffer
		nd := comptest.NDJSON(&buf)
		run(comptest.Ordered(nd))
		if err := nd.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	pooled := func(par int) []byte {
		return stream(func(ordered comptest.Sink) {
			r, err := comptest.NewRunner(comptest.WithParallelism(par), comptest.WithSink(ordered))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Campaign(ctx, units); err != nil {
				t.Fatal(err)
			}
		})
	}
	// fresh runs par units at a time, each on a stand built for it
	// outside the stand cache (freshStand), so on a stand that never ran
	// before, and emits the results in the matrix's Seq order.
	fresh := func(par int) []byte {
		stands := make([]*stand.Stand, len(units))
		for i, u := range units {
			stands[i] = freshStand(t, u.Stand, u.DUT, plans[u.DUT], u.Script)
		}
		return stream(func(ordered comptest.Sink) {
			var (
				mu   sync.Mutex
				wg   sync.WaitGroup
				next = make(chan int)
			)
			for w := 0; w < par; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						u := units[i]
						rep := stands[i].RunCompiled(ctx, u.Compiled, stand.RunOptions{})
						mu.Lock()
						ordered.Emit(comptest.Result{Seq: i, Unit: u, Report: rep})
						mu.Unlock()
					}
				}()
			}
			for i := range units {
				next <- i
			}
			close(next)
			wg.Wait()
		})
	}
	base := pooled(1)
	if len(bytes.TrimSpace(base)) == 0 {
		t.Fatal("campaign emitted no results")
	}
	for _, v := range []struct {
		name string
		run  func(int) []byte
		par  int
	}{
		{"parallel_1/fresh", fresh, 1},
		{"parallel_4/pooled", pooled, 4},
		{"parallel_4/fresh", fresh, 4},
	} {
		if got := v.run(v.par); !bytes.Equal(base, got) {
			t.Errorf("%s: NDJSON stream differs from parallel_1/pooled", v.name)
		}
	}
}

// TestEarlyKillEquivalence pins the mutation short-circuits: stopping a
// mutant at its first deviating step and at its first killing run must
// produce the same kill verdicts, witnesses and score as running every
// script of every mutant to completion — and reordering a mutant's
// scripts by historical kill counts (the .kills.json sidecar) must not
// change any verdict either.
func TestEarlyKillEquivalence(t *testing.T) {
	plans, err := mutation.EnumerateBuiltin()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range plans {
		early, err := mutation.Run(ctx, p, mutation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		full, err := mutation.Run(ctx, p, mutation.Options{RunToCompletion: true})
		if err != nil {
			t.Fatal(err)
		}
		sameVerdicts(t, p.DUT+"/early-vs-full", early, full, true)

		// Kill-probability ordering changes which script runs first, so
		// the witness may legitimately name a different check — but the
		// verdicts may not move, and early kill under the new order must
		// again match run-to-completion exactly.
		s := report.Strength{DUTs: []report.DUTStrength{early.Strength(nil)}}
		stats := lint.KillMatrixFromStrength(&s)
		ordered, err := mutation.Run(ctx, p, mutation.Options{KillStats: stats})
		if err != nil {
			t.Fatal(err)
		}
		orderedFull, err := mutation.Run(ctx, p,
			mutation.Options{KillStats: stats, RunToCompletion: true})
		if err != nil {
			t.Fatal(err)
		}
		sameVerdicts(t, p.DUT+"/ordered-vs-unordered", early, ordered, false)
		sameVerdicts(t, p.DUT+"/ordered-early-vs-full", ordered, orderedFull, true)
	}
}

// sameVerdicts compares two kill matrices mutant by mutant: identical
// IDs, kill verdicts and scores, and — when witness is set — identical
// witness checks.
func sameVerdicts(t *testing.T, label string, a, b *mutation.Matrix, witness bool) {
	t.Helper()
	if len(a.Outcomes) != len(b.Outcomes) {
		t.Fatalf("%s: %d vs %d outcomes", label, len(a.Outcomes), len(b.Outcomes))
	}
	for i := range a.Outcomes {
		oa, ob := &a.Outcomes[i], &b.Outcomes[i]
		if oa.Mutant.ID != ob.Mutant.ID {
			t.Fatalf("%s: outcome %d is %s vs %s", label, i, oa.Mutant.ID, ob.Mutant.ID)
		}
		if oa.Err != nil || ob.Err != nil {
			t.Errorf("%s: %s errored: %v / %v", label, oa.Mutant.ID, oa.Err, ob.Err)
			continue
		}
		if oa.Killed != ob.Killed {
			t.Errorf("%s: %s killed=%v vs %v", label, oa.Mutant.ID, oa.Killed, ob.Killed)
		}
		if witness && oa.Witness != ob.Witness {
			t.Errorf("%s: %s witness %q vs %q", label, oa.Mutant.ID, oa.Witness, ob.Witness)
		}
	}
	if sa, sb := a.Score(), b.Score(); sa != sb {
		t.Errorf("%s: score %d/%d vs %d/%d", label, sa.Killed, sa.Total, sb.Killed, sb.Total)
	}
}

// TestStopOnFailPrefixEquivalence pins the step-level early kill on a
// known-failing run: up to and including the first deviating step the
// report is identical to the complete run, and every later step is
// reported as SKIP. A faulted interior light fails the paper script
// deterministically, which gives the test its fixed deviation point.
func TestStopOnFailPrefixEquivalence(t *testing.T) {
	plans := compileBuiltin(t)
	plan := plans["interior_light"]
	sc := plan.Script("InteriorIllumination")
	if sc == nil {
		t.Fatal("paper workbook lost its script")
	}
	ctx := context.Background()

	faulted := func() *stand.Stand {
		st := freshStand(t, "paper_stand", "interior_light", plan, sc)
		if err := st.DUT().InjectFault("stuck_off"); err != nil {
			t.Fatal(err)
		}
		return st
	}
	full := faulted().RunCompiled(ctx, plan.Compiled(sc), stand.RunOptions{})
	short := faulted().RunCompiled(ctx, plan.Compiled(sc), stand.RunOptions{StopOnFail: true})

	if len(full.Steps) != len(short.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(full.Steps), len(short.Steps))
	}
	deviated := false
	for i := range full.Steps {
		fs, ss := &full.Steps[i], &short.Steps[i]
		if !deviated {
			fb := encode(t, &report.Report{Steps: []report.StepResult{*fs}})
			sb := encode(t, &report.Report{Steps: []report.StepResult{*ss}})
			if !bytes.Equal(fb, sb) {
				t.Errorf("step %d before deviation differs:\nfull:  %s\nshort: %s", i, fb, sb)
			}
			for j := range fs.Checks {
				if v := fs.Checks[j].Verdict; v == report.Fail || v == report.Error {
					deviated = true
					break
				}
			}
			continue
		}
		for j := range ss.Checks {
			if v := ss.Checks[j].Verdict; v != report.Skip {
				t.Errorf("step %d after deviation has verdict %s, want SKIP", i, v)
			}
		}
	}
	if !deviated {
		t.Fatal("faulted run never deviated — the fixture lost its failure")
	}
	if full.Passed() || short.Passed() {
		t.Fatal("faulted run passed")
	}
}
