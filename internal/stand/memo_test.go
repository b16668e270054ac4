package stand

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/ecu"
	"repro/internal/report"
	"repro/internal/script"
)

// encode renders a report as the byte-identity tests compare it.
func encode(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	b, err := report.EncodeJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dropStep returns a freshly generated paper script without step nr.
func dropStep(t *testing.T, nr int) *script.Script {
	t.Helper()
	sc := paperScript(t)
	for i, step := range sc.Steps {
		if step.Nr == nr {
			sc.Steps = append(sc.Steps[:i:i], sc.Steps[i+1:]...)
			return sc
		}
	}
	t.Fatalf("paper script has no step %d", nr)
	return nil
}

// TestContentMemoAcrossScripts runs a baseline, a drop-step mutant and a
// fault mutant on one pooled stand, as a mutation campaign does. Every
// script is generated afresh, so no statement or step pointer is
// shared: whatever the mutants reuse, they reuse by content. Each report
// must be byte-identical to the same run on a fresh stand, and the
// allocator runs only for steps whose input the stand has not seen.
func TestContentMemoAcrossScripts(t *testing.T) {
	pooled := paperStand(t)
	run := func(s *Stand, sc *script.Script, fault string) []byte {
		dut := s.DUT().(*ecu.InteriorLight)
		if fault != "" {
			if err := dut.InjectFault(fault); err != nil {
				t.Fatal(err)
			}
		}
		rep := s.RunContext(context.Background(), sc)
		dut.ClearFaults()
		s.AlignForReuse()
		return encode(t, rep)
	}

	base := run(pooled, paperScript(t), "")
	if fresh := run(paperStand(t), paperScript(t), ""); !bytes.Equal(base, fresh) {
		t.Fatalf("baseline differs from a fresh stand:\n%s\n%s", base, fresh)
	}
	calls := pooled.Profile().Allocations()

	// Dropping step 2 (ds_fl closes, ds_fr opens) changes the held state
	// seen by step 3 (ds_fl still open, ds_fr never opened) and step 4
	// (ds_fl, reopened, now prefers its decade). Step 4's input is then
	// the baseline's step 7 (ds_fl open on its decade, night, lamp
	// expected on), and from step 5 on both scripts hold the same stimuli
	// on the same resources again: only step 3 reaches the allocator.
	mutant := run(pooled, dropStep(t, 2), "")
	if fresh := run(paperStand(t), dropStep(t, 2), ""); !bytes.Equal(mutant, fresh) {
		t.Fatalf("drop-step mutant differs from a fresh stand:\n%s\n%s", mutant, fresh)
	}
	if got := pooled.Profile().Allocations() - calls; got != 1 {
		t.Errorf("drop-step mutant called the allocator %d times, want 1", got)
	}
	calls = pooled.Profile().Allocations()

	// A fault mutant runs the baseline's content against a faulty DUT:
	// every step's allocator input is one the stand has already seen.
	faulty := run(pooled, paperScript(t), "stuck_off")
	if fresh := run(paperStand(t), paperScript(t), "stuck_off"); !bytes.Equal(faulty, fresh) {
		t.Fatalf("fault mutant differs from a fresh stand:\n%s\n%s", faulty, fresh)
	}
	if bytes.Equal(faulty, base) {
		t.Fatal("fault mutant produced the baseline report")
	}
	if got := pooled.Profile().Allocations() - calls; got != 0 {
		t.Errorf("fault mutant called the allocator %d times, want 0", got)
	}
}

// TestPreferenceIsContent: two steps stimulating the same statements
// share a plan only when their preferences match too. Script y opens
// ds_fr on the first decade; script x opens ds_fl first, so ds_fr lands
// on the second decade and keeps it when ds_fl closes — the same
// statements as y's step, routed differently.
func TestPreferenceIsContent(t *testing.T) {
	decls := paperScript(t).Decls
	putR := func(sig, r string) *script.SignalStmt {
		return &script.SignalStmt{Name: sig,
			Call: script.MethodCall{Method: "put_r", Attrs: map[string]string{"r": r}}}
	}
	step := func(nr int, sts ...*script.SignalStmt) *script.Step {
		return &script.Step{Nr: nr, Dt: 0.5, Signals: sts}
	}
	y := &script.Script{Name: "y", Version: script.Version, Decls: decls,
		Steps: []*script.Step{step(0, putR("ds_fl", "INF"), putR("ds_fr", "0"))}}
	x := &script.Script{Name: "x", Version: script.Version, Decls: decls,
		Steps: []*script.Step{step(0, putR("ds_fl", "0")), step(1, putR("ds_fr", "0")),
			step(2, putR("ds_fl", "INF"))}}

	pooled := paperStand(t)
	_ = pooled.RunContext(context.Background(), y)
	pooled.AlignForReuse()
	got := encode(t, pooled.RunContext(context.Background(), x))
	want := encode(t, paperStand(t).RunContext(context.Background(), x))
	if !bytes.Equal(got, want) {
		t.Fatalf("x after y differs from x on a fresh stand:\n%s\n%s", got, want)
	}
}

// TestAllocationFailureMemoised: a step the allocator cannot serve
// fails with the same diagnostic on every run, and only its first run
// reaches the allocator: the profile memoises the failure by content.
func TestAllocationFailureMemoised(t *testing.T) {
	s := paperStand(t)
	threeDoors := func() *script.Script { return threeDoorScript(t) }
	detail := func(rep *report.Report) string {
		last := rep.Steps[len(rep.Steps)-1]
		if len(last.Checks) == 0 || last.Checks[0].Verdict != report.Error {
			t.Fatalf("three-door step did not fail: %+v", last)
		}
		return last.Checks[0].Detail
	}
	sc := threeDoors()
	first := detail(s.RunContext(context.Background(), sc))
	for _, again := range []*script.Script{sc, threeDoors()} {
		calls := s.Profile().Allocations()
		s.AlignForReuse()
		if got := detail(s.RunContext(context.Background(), again)); got != first {
			t.Errorf("repeat failure = %q, want %q", got, first)
		}
		if got := s.Profile().Allocations() - calls; got != 0 {
			t.Errorf("repeat run called the allocator %d times, want 0", got)
		}
	}
}

// threeDoorScript is the paper script plus a final step stimulating
// three doors at once, which the paper stand's two decades cannot serve.
func threeDoorScript(t testing.TB) *script.Script {
	t.Helper()
	sc := paperScript(t)
	bad := &script.Step{Nr: 99, Dt: 0.5}
	for _, sig := range []string{"ds_fl", "ds_fr", "ds_rl"} {
		bad.Signals = append(bad.Signals, &script.SignalStmt{Name: sig,
			Call: script.MethodCall{Method: "put_r", Attrs: map[string]string{"r": "5000"}}})
	}
	sc.Steps = append(sc.Steps, bad)
	return sc
}

// TestProfileSharedAcrossInstances: instances of one cold profile,
// running concurrently, share its memos — routing, a failing
// allocation, expectations, attribute values — and each produces the
// reports a stand with a profile of its own produces. Run it with -race.
func TestProfileSharedAcrossInstances(t *testing.T) {
	scripts := func() []*script.Script {
		return []*script.Script{paperScript(t), dropStep(t, 2), threeDoorScript(t), paperScript(t)}
	}
	runAll := func(s *Stand, scs []*script.Script) []byte {
		var out []byte
		for _, sc := range scs {
			b, err := report.EncodeJSON(s.RunContext(context.Background(), sc))
			if err != nil {
				panic(err)
			}
			out = append(out, b...)
			s.AlignForReuse()
		}
		return out
	}
	want := runAll(paperStand(t), scripts())

	const n = 4
	p := paperStand(t).Profile()
	inputs := make([][]*script.Script, n)
	got := make([][]byte, n)
	for i := range inputs {
		inputs[i] = scripts()
	}
	var wg sync.WaitGroup
	for i := range got {
		s := p.New()
		if err := s.AttachDUT(ecu.NewInteriorLight()); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runAll(s, inputs[i])
		}()
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("instance %d: reports differ from a stand of its own:\n%s\nwant:\n%s", i, b, want)
		}
	}
	if p.Allocations() == 0 {
		t.Error("shared profile never reached the allocator")
	}
}

// TestRepeatedStepAllocs: replaying a routed step — switches,
// instruments and the held state — allocates nothing.
func TestRepeatedStepAllocs(t *testing.T) {
	s := paperStand(t)
	sc := paperScript(t)
	s.resetRun()
	step := func() {
		if _, err := s.applyStep(sc, sc.Init, nil, nil, sc); err != nil {
			t.Fatal(err)
		}
		// Deliver the CAN frames the step transmitted, as a running step
		// would, so their pooled records are recycled.
		s.sched.Advance(canbus.Latency)
	}
	step()
	if got := testing.AllocsPerRun(100, step); got != 0 {
		t.Errorf("warm applyStep allocates %v times, want 0", got)
	}
}

// TestExpectationByContent: statements spelling the same method and
// attributes share one rendering; a differing attribute does not.
func TestExpectationByContent(t *testing.T) {
	s := paperStand(t)
	attrs := map[string]string{"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"}
	a := &script.SignalStmt{Name: "int_ill", Call: script.MethodCall{Method: "get_u", Attrs: attrs}}
	b := &script.SignalStmt{Name: "other", Call: script.MethodCall{Method: "get_u", Attrs: maps.Clone(attrs)}}
	ea, eb := s.expectation(a), s.expectation(b)
	if ea != "[8.4, 13.2] V" || eb != ea {
		t.Errorf("expectations = %q, %q, want both %q", ea, eb, "[8.4, 13.2] V")
	}
	if n := len(s.Profile().expect); n != 1 {
		t.Errorf("memo holds %d entries, want 1", n)
	}
	b.Call.Attrs["u_min"] = "0"
	if got := s.expectation(b); got != "[0, 13.2] V" {
		t.Errorf("changed statement renders %q", got)
	}
	if got := testing.AllocsPerRun(100, func() { s.expectation(a) }); got != 0 {
		t.Errorf("warm expectation allocates %v times, want 0", got)
	}
}

// recorder is an Observer that records every callback.
type recorder struct{ calls []string }

func (r *recorder) RunStarted(sc *script.Script, ubattVolts float64) {
	r.calls = append(r.calls, fmt.Sprintf("start %s %g", sc.Name, ubattVolts))
}

func (r *recorder) OutputsSampled(now time.Duration, step int, outputs []OutputState) {
	r.calls = append(r.calls, fmt.Sprintf("sample %v %d %v", now, step, outputs))
}

func (r *recorder) StepFinished(step *script.Step, now time.Duration, outputs []OutputState) {
	r.calls = append(r.calls, fmt.Sprintf("step %d %v %v", step.Nr, now, outputs))
}

func (r *recorder) RunFinished(rep *report.Report) {
	r.calls = append(r.calls, "finished "+rep.Script)
}

// TestPooledObservedRun: an observed run on a stand that has already
// run another script sees the same callbacks, at the same run-relative
// times, and yields the same report as on a fresh stand.
func TestPooledObservedRun(t *testing.T) {
	observed := func(s *Stand) ([]string, []byte) {
		rec := &recorder{}
		s.SetObserver(rec)
		rep := s.RunContext(context.Background(), paperScript(t))
		s.SetObserver(nil)
		return rec.calls, encode(t, rep)
	}
	freshCalls, freshRep := observed(paperStand(t))

	pooled := paperStand(t)
	pooled.RunContext(context.Background(), dropStep(t, 2))
	pooled.AlignForReuse()
	if pooled.sched.Now() == 0 {
		t.Fatal("pooled stand did not advance its clock")
	}
	calls, rep := observed(pooled)
	if !bytes.Equal(rep, freshRep) {
		t.Fatalf("pooled report differs from a fresh stand:\n%s\n%s", rep, freshRep)
	}
	if !slices.Equal(calls, freshCalls) {
		for i := range min(len(calls), len(freshCalls)) {
			if calls[i] != freshCalls[i] {
				t.Fatalf("callback %d on the pooled stand:\n%s\nfresh:\n%s", i, calls[i], freshCalls[i])
			}
		}
		t.Fatalf("pooled stand made %d callbacks, fresh %d", len(calls), len(freshCalls))
	}
}
