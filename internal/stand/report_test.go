package stand

import (
	"bytes"
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/unit"
)

// cycledScript is the paper script with copies of its steps repeated to
// n steps.
func cycledScript(t testing.TB, n int) *script.Script {
	t.Helper()
	sc := paperScript(t)
	steps := sc.Steps
	sc.Steps = make([]*script.Step, n)
	for i := range sc.Steps {
		step := *steps[i%len(steps)]
		step.Nr = i
		sc.Steps[i] = &step
	}
	return sc
}

// TestRunCompiledAllocsIndependentOfLength: on a warm stand a run costs
// the same allocations at 4 steps as at 24. Every step's checks live
// in one slab per report and its Applied lines in the routed plan.
func TestRunCompiledAllocsIndependentOfLength(t *testing.T) {
	s := paperStand(t)
	run := func(n int) func() {
		c, err := script.Compile(cycledScript(t, n), method.Builtin())
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			s.AlignForReuse()
			s.RunCompiled(context.Background(), c, RunOptions{})
		}
	}
	short, long := run(4), run(24)
	short()
	long()
	a, b := testing.AllocsPerRun(5, short), testing.AllocsPerRun(5, long)
	if a != b {
		t.Errorf("a warm run allocates %v objects at 4 steps and %v at 24; want equal", a, b)
	}
}

// TestReportChecksDoNotAlias: every step's Checks is a window of one
// slab, capped, so appending to one step's checks — past what the step
// could itself have written — leaves every other step as it was. The
// runs cover measured steps, a failing allocation (threeDoorScript's
// last step) and SKIP steps.
func TestReportChecksDoNotAlias(t *testing.T) {
	s := paperStand(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, rep := range map[string]*report.Report{
		"run":       s.RunContext(context.Background(), threeDoorScript(t)),
		"cancelled": s.RunContext(cancelled, threeDoorScript(t)),
	} {
		sc := threeDoorScript(t)
		want := encode(t, rep)
		for i := range rep.Steps {
			checks := rep.Steps[i].Checks
			for range len(sc.Steps[i].Signals) - len(checks) + 1 {
				checks = append(checks, report.Check{Signal: "appended", Verdict: report.Fail})
			}
		}
		if got := encode(t, rep); !bytes.Equal(got, want) {
			t.Errorf("%s: appending to one step's checks changed the report:\n got %s\nwant %s", name, got, want)
		}
		s.AlignForReuse()
	}
}

// TestAppliedCapped: a report's Applied is a capped prefix of its
// routed plan's lines, shared by every run, so appending to one report's
// lines changes neither another run's report nor the plan. The script
// programs a decade, then fails on a 0 Hz PWM generator, so its Applied
// list stops one line short of the plan's.
func TestAppliedCapped(t *testing.T) {
	reg := method.Builtin()
	sc := pwmScript("0", "50", "0", "1")
	sc.Decls = append(sc.Decls, &script.SignalDecl{Name: "ds_fl", Direction: "in", Class: "digital", Pin: "DS_FL"})
	sc.Steps[0].Signals = slices.Insert(sc.Steps[0].Signals, 0, &script.SignalStmt{Name: "ds_fl",
		Call: script.MethodCall{Method: "put_r", Attrs: map[string]string{"r": "1000"}}})
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	short := 0 // steps whose Applied is shorter than their plan's lines
	for s, sc := range map[*Stand]*script.Script{MustNew(cfg, reg): sc, paperStand(t): paperScript(t)} {
		first := s.RunContext(context.Background(), sc)
		s.AlignForReuse()
		second := s.RunContext(context.Background(), sc)
		s.AlignForReuse()
		want := encode(t, second)
		var memo [][]string
		for _, step := range sc.Steps {
			memo = append(memo, slices.Clone(s.routes[step].plan.lines))
		}
		applied := 0
		for i := range first.Steps {
			if len(first.Steps[i].Applied) == 0 {
				continue
			}
			applied++
			if len(first.Steps[i].Applied) < len(memo[i]) {
				short++
			}
			mine := append(first.Steps[i].Applied, "appended by the first report")
			_ = append(second.Steps[i].Applied, "appended by the second report")
			if got := mine[len(mine)-1]; got != "appended by the first report" {
				t.Errorf("%s step %d: another report's append overwrote this one's: %q", sc.Name, i, got)
			}
		}
		if applied == 0 {
			t.Fatalf("%s: no step applied a stimulus", sc.Name)
		}
		if got := encode(t, second); !bytes.Equal(got, want) {
			t.Errorf("%s: appending to the first run's Applied changed the second's:\n got %s\nwant %s", sc.Name, got, want)
		}
		for i, step := range sc.Steps {
			if got := s.routes[step].plan.lines; !slices.Equal(got, memo[i]) {
				t.Errorf("%s step %d: appending to Applied changed the plan's lines to %q, want %q", sc.Name, i, got, memo[i])
			}
		}
	}
	if short == 0 {
		t.Error("no run stopped programming part way through a step")
	}
}

// TestBitsTextInterned: a CAN payload's text is rendered once per stand
// and keyed apart from a unit-less number with the same bits.
func TestBitsTextInterned(t *testing.T) {
	s := paperStand(t)
	one := math.Float64bits(1)
	if got := s.measuredText(1, ""); got != "1 " {
		t.Fatalf("measuredText(1) = %q", got)
	}
	bits := s.bitsText(one, 64)
	if want := unit.FormatBits(one, 64); bits != want {
		t.Errorf("bitsText = %q, want %q", bits, want)
	}
	if got := testing.AllocsPerRun(10, func() { s.bitsText(one, 64) }); got != 0 {
		t.Errorf("a repeated payload allocates %v times, want 0", got)
	}
	if got := s.measuredText(1, ""); got != "1 " {
		t.Errorf("after the payload, measuredText(1) = %q", got)
	}
}
