package mutation

import (
	"context"
	"strings"
	"testing"

	"repro/comptest"
	"repro/internal/lint"
	"repro/internal/paper"
	"repro/internal/report"
)

func paperPlan(t *testing.T) *Plan {
	t.Helper()
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Enumerate("interior_light", "", suite)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func outcomeByID(t *testing.T, m *Matrix, id string) *Outcome {
	t.Helper()
	for i := range m.Outcomes {
		if m.Outcomes[i].Mutant.ID == id {
			return &m.Outcomes[i]
		}
	}
	t.Fatalf("no outcome %q", id)
	return nil
}

func TestEnumeratePaperPlan(t *testing.T) {
	plan := paperPlan(t)
	if plan.Stand != "paper_stand" {
		t.Errorf("default stand = %q, want paper_stand", plan.Stand)
	}
	var faults, widens, drops, flips int
	ids := map[string]bool{}
	for _, m := range plan.Mutants {
		if ids[m.ID] {
			t.Errorf("duplicate mutant ID %q", m.ID)
		}
		ids[m.ID] = true
		switch {
		case m.Kind == FaultMutant:
			faults++
			if m.Fault.Requirement == "" {
				t.Errorf("%s: fault mutant without requirement", m.ID)
			}
		case m.Op == "widen_limit":
			widens++
		case m.Op == "drop_step":
			drops++
		case m.Op == "flip_stimulus":
			flips++
		}
		if len(m.scripts) == 0 {
			t.Errorf("%s: mutant without scripts", m.ID)
		}
	}
	// 7 registered faults, 2 numeric measurement statuses (Lo, Ho), 10
	// droppable steps, and one flip per input-signal assignment.
	if faults != 7 || widens != 2 || drops != 10 || flips == 0 {
		t.Errorf("enumerated %d faults, %d widens, %d drops, %d flips",
			faults, widens, drops, flips)
	}
}

// TestKillMatrixInteriorLight is the acceptance experiment: the paper's
// suite kills every fault of the interior-illumination model except
// only_fl, and the only_fl survivor report cites the lint coverage-gap
// findings for the never-stimulated rear doors.
func TestKillMatrixInteriorLight(t *testing.T) {
	plan := paperPlan(t)
	mat, err := Run(context.Background(), plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range mat.Outcomes {
		if o.Mutant.Kind != FaultMutant {
			continue
		}
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Mutant.ID, o.Err)
		}
		wantKilled := o.Mutant.Fault.Name != "only_fl"
		if o.Killed != wantKilled {
			t.Errorf("%s: killed = %v, want %v", o.Mutant.ID, o.Killed, wantKilled)
		}
		if o.Killed && o.Witness == "" {
			t.Errorf("%s: killed without witness", o.Mutant.ID)
		}
	}

	suite := plan.Suite
	d := mat.Strength(lint.Check(suite.Signals, suite.Statuses, suite.Tests))
	var survivor *report.MutantOutcome
	for i := range d.Mutants {
		if d.Mutants[i].ID == "fault/only_fl" {
			survivor = &d.Mutants[i]
		}
	}
	if survivor == nil || survivor.Killed {
		t.Fatalf("only_fl did not survive: %+v", survivor)
	}
	joined := strings.Join(survivor.Explanations, "\n")
	for _, want := range []string{"unstimulated-input", "DS_RL", "DS_RR"} {
		if !strings.Contains(joined, want) {
			t.Errorf("only_fl explanation lacks %q:\n%s", want, joined)
		}
	}
	if s := d.ScoreKind("fault"); s.Killed != 6 || s.Total != 7 {
		t.Errorf("fault kill score = %s, want 6/7", s)
	}
}

func TestScriptMutantVerdicts(t *testing.T) {
	plan := paperPlan(t)
	mat, err := Run(context.Background(), plan, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A widened limit can only pass more often: it must survive, which
	// is exactly the slack the strength report surfaces.
	for _, id := range []string{"script/widen/Lo", "script/widen/Ho"} {
		if o := outcomeByID(t, mat, id); o.Killed {
			t.Errorf("%s was killed: %s", id, o.Witness)
		}
	}
	// Dropping the 280 s soak step makes the 300 s timeout check of
	// step 8 fire while the lamp is still lit — killed.
	if o := outcomeByID(t, mat, "script/InteriorIllumination/drop/step7"); !o.Killed {
		t.Error("drop/step7 survived; the timeout check should fail without the soak step")
	}
	// The model never evaluates IGN_ST, so flipping it changes nothing;
	// lint's never-toggled finding explains the survivor.
	o := outcomeByID(t, mat, "script/InteriorIllumination/flip/step0/IGN_ST")
	if o.Killed {
		t.Errorf("flip IGN_ST was killed: %s", o.Witness)
	}
	suite := plan.Suite
	d := mat.Strength(lint.Check(suite.Signals, suite.Statuses, suite.Tests))
	for _, m := range d.Mutants {
		if m.ID != "script/InteriorIllumination/flip/step0/IGN_ST" {
			continue
		}
		if !strings.Contains(strings.Join(m.Explanations, "\n"), "never-toggled") {
			t.Errorf("IGN_ST flip survivor lacks never-toggled citation: %v", m.Explanations)
		}
	}
	// Flipping the night bit of step 4 turns the Ho expectation dark.
	if o := outcomeByID(t, mat, "script/InteriorIllumination/flip/step4/NIGHT"); !o.Killed {
		t.Error("flip step4/NIGHT survived")
	}
}

// TestParallelismInvariance reruns the matrix at a higher worker-pool
// bound: verdicts must not depend on scheduling, because every unit gets
// its own stand and DUT instance.
func TestParallelismInvariance(t *testing.T) {
	plan := paperPlan(t)
	seq, err := Run(context.Background(), plan, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), plan, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Outcomes) != len(par.Outcomes) {
		t.Fatalf("outcome count changed: %d != %d", len(seq.Outcomes), len(par.Outcomes))
	}
	for i := range seq.Outcomes {
		s, p := seq.Outcomes[i], par.Outcomes[i]
		if s.Killed != p.Killed || s.Runs != p.Runs || s.Failed != p.Failed {
			t.Errorf("%s: verdict changed under parallelism: %+v != %+v",
				s.Mutant.ID, s, p)
		}
	}
}

// TestBaselineMustPass: running a suite on a stand that cannot execute
// it must fail fast instead of producing a fake 100% kill score.
func TestBaselineMustPass(t *testing.T) {
	wb, err := comptest.BuiltinWorkbook("central_locking")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := comptest.LoadSuiteString(wb)
	if err != nil {
		t.Fatal(err)
	}
	// The paper stand has no pins for the central-locking harness.
	plan, err := Enumerate("central_locking", "paper_stand", suite)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), plan, Options{}); err == nil {
		t.Fatal("red baseline accepted")
	}
}

func TestEnumerateErrors(t *testing.T) {
	if _, err := Enumerate("interior_light", "", nil); err == nil {
		t.Error("nil suite accepted")
	}
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate("toaster", "", suite); err == nil {
		t.Error("unknown DUT accepted")
	}
}

// TestEnumerateBuiltin covers the full builtin matrix shape: one plan
// per registered model, every plan's baseline green on its default
// stand (verified cheaply by Run in the benchmark; here we only check
// enumeration invariants).
func TestEnumerateBuiltin(t *testing.T) {
	plans, err := EnumerateBuiltin()
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != len(comptest.DUTNames()) {
		t.Fatalf("got %d plans, want %d", len(plans), len(comptest.DUTNames()))
	}
	for _, p := range plans {
		faults, err := comptest.DUTFaults(p.DUT)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		for _, m := range p.Mutants {
			if m.Kind == FaultMutant {
				got++
			}
		}
		if got != len(faults) {
			t.Errorf("%s: %d fault mutants, want %d", p.DUT, got, len(faults))
		}
		if len(p.Mutants) <= len(faults) {
			t.Errorf("%s: no script mutants enumerated", p.DUT)
		}
	}
}

// TestRunStreamsToSink: Options.Sink receives every unit result of the
// kill matrix — baseline and mutant runs alike — as it completes. This
// is the hook the campaign service streams live NDJSON through.
func TestRunStreamsToSink(t *testing.T) {
	plan := paperPlan(t)
	// Two fault mutants keep the streamed matrix small and fast.
	var faults []Mutant
	for _, m := range plan.Mutants {
		if m.Kind == FaultMutant {
			faults = append(faults, m)
		}
		if len(faults) == 2 {
			break
		}
	}
	plan.Mutants = faults
	sink := &comptest.Collector{}
	mat, err := Run(context.Background(), plan, Options{Parallelism: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	mutantRuns := 0
	for _, o := range mat.Outcomes {
		mutantRuns += o.Runs
	}
	results := sink.Results()
	if want := len(plan.Baseline) + mutantRuns; len(results) != want {
		t.Errorf("sink saw %d results, want %d (baseline %d + mutant runs %d)",
			len(results), want, len(plan.Baseline), mutantRuns)
	}
	for _, res := range results {
		if res.Err != nil || res.Report == nil {
			t.Errorf("streamed result without report: %+v", res)
		}
	}
}

// TestWitnessText pins the witness of a failing check with and without
// a detail and of an aborted run, each rendered in at most one
// allocation.
func TestWitnessText(t *testing.T) {
	check := func(verdict report.Verdict, detail string) []report.StepResult {
		return []report.StepResult{
			{Nr: 0, Checks: []report.Check{{Signal: "DS_FL", Method: "get_u", Verdict: report.Pass}}},
			{Nr: 12, Checks: []report.Check{{Signal: "LAMP", Method: "get_u",
				Expected: "[11.5, 13] V", Measured: "0 V", Verdict: verdict, Detail: detail}}},
		}
	}
	for _, tc := range []struct {
		name string
		rep  report.Report
		want string
	}{
		{"fail with detail", report.Report{Script: "T1", Steps: check(report.Fail, "below limit")},
			"T1 step 12: LAMP get_u expected [11.5, 13] V, measured 0 V (below limit)"},
		{"error without detail", report.Report{Script: "T1", Steps: check(report.Error, "")},
			"T1 step 12: LAMP get_u expected [11.5, 13] V, measured 0 V"},
		{"fatal abort", report.Report{Script: "T2", Steps: check(report.Pass, ""), FatalErr: "init: no route"},
			"T2 aborted: init: no route"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := comptest.Result{Report: &tc.rep}
			if got := witness(res); got != tc.want {
				t.Errorf("witness = %q, want %q", got, tc.want)
			}
			if n := testing.AllocsPerRun(100, func() { witness(res) }); n > 1 {
				t.Errorf("witness allocates %v times, want at most 1", n)
			}
		})
	}
}
