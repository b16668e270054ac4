package comptest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ecu"
	"repro/internal/paper"
	"repro/internal/report"
)

func itoa(n int) string { return strconv.Itoa(n) }

// traceUnits is a small multi-unit campaign: every paper-workbook
// script on two stands.
func traceUnits(t testing.TB) []Unit {
	t.Helper()
	suite, err := LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := suite.GenerateScripts()
	if err != nil {
		t.Fatal(err)
	}
	return Cross(scripts, []string{"paper_stand", "hil_rack"}, "")
}

// runTraced executes the units as one campaign with an attached Tracer
// and returns the NDJSON trace bytes.
func runTraced(t testing.TB, parallel int, units []Unit) []byte {
	t.Helper()
	return traced(t, units, func(tr *Tracer) {
		r, err := NewRunner(WithParallelism(parallel), WithSink(tr))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Campaign(context.Background(), units); err != nil {
			t.Fatal(err)
		}
	})
}

// runTracedFresh traces the units like runTraced, but runs each one on
// a Runner of its own, so every unit gets a freshly built stand.
func runTracedFresh(t testing.TB, units []Unit) []byte {
	t.Helper()
	return traced(t, units, func(tr *Tracer) {
		for i := range units {
			r, err := NewRunner()
			if err != nil {
				t.Fatal(err)
			}
			renumber := SinkFunc(func(res Result) {
				res.Seq = i
				tr.Emit(res)
			})
			if _, err := r.Campaign(context.Background(), units[i:i+1], renumber); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// traced attaches a Tracer to the units, lets run execute them and
// returns the NDJSON trace bytes.
func traced(t testing.TB, units []Unit, run func(*Tracer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := report.NewSpanWriter(&buf)
	tr := NewTracer(sw)
	tr.Attach(units)
	run(tr)
	tr.Flush()
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceByteStableAcrossParallelism is the acceptance pin: the same
// workbook traced at -parallel 1 and -parallel 4 produces
// byte-identical NDJSON, because span times live on the simulated
// as-if-sequential timeline and units release in seq order.
func TestTraceByteStableAcrossParallelism(t *testing.T) {
	seq := runTraced(t, 1, traceUnits(t))
	par := runTraced(t, 4, traceUnits(t))
	if !bytes.Equal(seq, par) {
		t.Errorf("trace differs across parallelism:\n--- seq ---\n%s--- par ---\n%s", seq, par)
	}
	again := runTraced(t, 4, traceUnits(t))
	if !bytes.Equal(par, again) {
		t.Errorf("trace differs across reruns")
	}
}

// TestTraceGolden pins the parallelism-1 trace of traceUnits to the
// SHA-256 in testdata/trace_golden.sha256. The parallelism and
// distributed tests only compare this code with itself; the golden
// catches a drift that shows the same way at every parallelism.
func TestTraceGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/trace_golden.sha256")
	if err != nil {
		t.Fatal(err)
	}
	b := runTraced(t, 1, traceUnits(t))
	if got, want := fmt.Sprintf("%x", sha256.Sum256(b)), strings.TrimSpace(string(raw)); got != want {
		t.Errorf("trace sha256 %s, golden %s\ntrace:\n%s", got, want, b)
	}
}

// countingDUT registers interior_light under another name, counting
// the stands its instances are attached to: one per stand instance
// built. Stand profiles are shared process-wide, so a counting stand
// builder would count profiles, not instances.
var (
	countingDUTOnce     sync.Once
	countingDUTAttached atomic.Int64
)

type countedLight struct{ *ecu.InteriorLight }

func (l countedLight) Attach(env *ecu.Env) error {
	countingDUTAttached.Add(1)
	return l.InteriorLight.Attach(env)
}

func countingDUT(t *testing.T) string {
	t.Helper()
	const name = "counting_interior_light"
	countingDUTOnce.Do(func() {
		err := RegisterDUT(name, func() ecu.ECU { return countedLight{ecu.NewInteriorLight()} }, paper.Workbook)
		if err != nil {
			t.Fatal(err)
		}
	})
	return name
}

// TestTracePooledStands: traced units share one pooled stand, and the
// spans are byte-identical to those of freshly built stands, one per
// unit.
func TestTracePooledStands(t *testing.T) {
	suite, err := LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := suite.GenerateScripts()
	if err != nil {
		t.Fatal(err)
	}
	units := func() []Unit {
		return Cross(slices.Repeat(scripts[:1], 4), []string{"paper_stand"}, countingDUT(t))
	}
	built := func(run func(testing.TB, []Unit) []byte) ([]byte, int64) {
		before := countingDUTAttached.Load()
		b := run(t, units())
		return b, countingDUTAttached.Load() - before
	}
	pooled, n := built(func(t testing.TB, us []Unit) []byte { return runTraced(t, 1, us) })
	if n != 1 {
		t.Errorf("pooled campaign built %d stands, want 1", n)
	}
	fresh, n := built(runTracedFresh)
	if n != 4 {
		t.Errorf("unit-per-Runner campaign built %d stands, want 4", n)
	}
	if !bytes.Equal(pooled, fresh) {
		t.Errorf("pooled trace differs from fresh stands:\n--- pooled ---\n%s--- fresh ---\n%s", pooled, fresh)
	}
}

// TestTraceDurationsReconcile checks the arithmetic the ISSUE pins:
// the campaign span's duration equals the sum of unit durations, and
// each unit's duration equals its init window plus the sum of its step
// durations (the campaign "wall clock" on the simulated timeline).
func TestTraceDurationsReconcile(t *testing.T) {
	units := traceUnits(t)
	spans, err := report.DecodeSpans(bytes.NewReader(runTraced(t, 3, units)))
	if err != nil {
		t.Fatal(err)
	}

	var campaign *report.Span
	unitDur := map[string]int64{}  // unit span id -> dur
	childSum := map[string]int64{} // unit span id -> init + step durs
	for i := range spans {
		s := &spans[i]
		switch s.Kind {
		case report.SpanCampaign:
			campaign = s
		case report.SpanUnit:
			unitDur[s.ID] = s.DurNS
		case report.SpanStep:
			childSum[s.Parent] += s.DurNS
		}
	}
	if campaign == nil {
		t.Fatal("no campaign span emitted")
	}
	if campaign.ID != "c" || campaign.StartNS != 0 {
		t.Errorf("campaign span = %+v, want id=c start=0", campaign)
	}
	if len(unitDur) != len(units) {
		t.Fatalf("got %d unit spans, want %d", len(unitDur), len(units))
	}
	var total int64
	for id, dur := range unitDur {
		total += dur
		if dur <= 0 {
			t.Errorf("unit %s has non-positive duration %d", id, dur)
		}
		if got := childSum[id]; got != dur {
			t.Errorf("unit %s: init+steps sum to %d ns, unit span says %d ns", id, got, dur)
		}
	}
	if campaign.DurNS != total {
		t.Errorf("campaign dur %d != sum of unit durs %d", campaign.DurNS, total)
	}
}

// TestTraceSpanTree checks the structural invariants consumers rely
// on: deterministic path IDs, parents emitted before children, exactly
// one init span per executed unit, verdicts on unit and step spans.
func TestTraceSpanTree(t *testing.T) {
	spans, err := report.DecodeSpans(bytes.NewReader(runTraced(t, 2, traceUnits(t))))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	inits := 0
	unitSpans := 0
	for _, s := range spans {
		if seen[s.ID] {
			t.Errorf("duplicate span id %s", s.ID)
		}
		seen[s.ID] = true
		switch s.Kind {
		case report.SpanUnit:
			unitSpans++
			if s.Parent != "c" || !strings.HasPrefix(s.ID, "c/u") {
				t.Errorf("unit span %q parent %q", s.ID, s.Parent)
			}
			if s.Verdict != "pass" && s.Verdict != "fail" {
				t.Errorf("unit span %s verdict %q", s.ID, s.Verdict)
			}
			if s.Script == "" || s.Stand == "" {
				t.Errorf("unit span %s missing script/stand: %+v", s.ID, s)
			}
		case report.SpanStep:
			// Parent must have been emitted already (streaming
			// consumers build the tree incrementally).
			if !seen[s.Parent] {
				t.Errorf("step span %s emitted before parent %s", s.ID, s.Parent)
			}
			if s.Name == "init" {
				inits++
				if s.Step != 0 || !strings.HasSuffix(s.ID, "/init") {
					t.Errorf("init span %+v malformed", s)
				}
			} else if !strings.HasSuffix(s.ID, "/s"+itoa(s.Step)) {
				t.Errorf("step span id %q does not encode step %d", s.ID, s.Step)
			}
		}
	}
	// The campaign span closes the stream.
	if last := spans[len(spans)-1]; last.Kind != report.SpanCampaign {
		t.Errorf("last span kind = %s, want campaign", last.Kind)
	}
	if inits != unitSpans {
		t.Errorf("%d init spans for %d units", inits, unitSpans)
	}
}

// TestTraceErroredUnit: a unit that cannot even build an execution
// still yields a unit span (zero duration, fail verdict) so traces
// account for every emitted result.
func TestTraceErroredUnit(t *testing.T) {
	units := traceUnits(t)[:1]
	units = append(units, Unit{Script: units[0].Script, Stand: "warp_core"})
	var buf bytes.Buffer
	sw := report.NewSpanWriter(&buf)
	tr := NewTracer(sw)
	tr.Attach(units)
	r, err := NewRunner(WithSink(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Campaign(context.Background(), units); err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	spans, err := report.DecodeSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var bad *report.Span
	var campaign *report.Span
	for i := range spans {
		if spans[i].ID == "c/u1" {
			bad = &spans[i]
		}
		if spans[i].Kind == report.SpanCampaign {
			campaign = &spans[i]
		}
	}
	if bad == nil {
		t.Fatal("errored unit has no span")
	}
	if bad.DurNS != 0 || bad.Verdict != "fail" {
		t.Errorf("errored unit span = %+v, want zero duration and fail", bad)
	}
	if campaign == nil || campaign.Verdict != "fail" {
		t.Errorf("campaign verdict = %+v, want fail", campaign)
	}
}
