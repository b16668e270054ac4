package stand

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ecu"
	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/script"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/topology"
)

// paperScript generates the XML script of the paper's interior
// illumination test from the paper's sheets.
func paperScript(t testing.TB) *script.Script {
	t.Helper()
	wb, err := sheet.ReadWorkbookString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := sigdef.ParseSheet(wb.Sheet("SignalDefinition"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := status.ParseSheet(wb.Sheet("StatusDefinition"), method.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := testdef.ParseAll(wb)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := script.Generate(tcs[0], sigs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// paperStand builds the paper's stand with a fresh interior light DUT.
func paperStand(t testing.TB) *Stand {
	t.Helper()
	reg := method.Builtin()
	cfg, err := PaperConfig(reg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPaperTestPassesOnPaperStand(t *testing.T) {
	// THE headline experiment (T1): the paper's test table, generated to
	// XML, executed on the paper's stand against the requirement model —
	// every step must pass.
	s := paperStand(t)
	sc := paperScript(t)
	if err := s.CanRun(sc); err != nil {
		t.Fatalf("CanRun: %v", err)
	}
	rep := s.RunContext(context.Background(), sc)
	if !rep.Passed() {
		t.Fatalf("paper test failed:\n%s", report.TextString(rep))
	}
	if len(rep.Steps) != 10 {
		t.Errorf("steps = %d", len(rep.Steps))
	}
	// Every step checks INT_ILL once.
	for _, st := range rep.Steps {
		if len(st.Checks) != 1 || st.Checks[0].Signal != "int_ill" {
			t.Errorf("step %d checks = %+v", st.Nr, st.Checks)
		}
	}
}

func TestMutantsAreDetected(t *testing.T) {
	// Experiment C2 (mutant half): requirement violations that the
	// paper's test table observes must FAIL; the documented test gap
	// ("only_fl" — the table never opens a rear door at night) must PASS.
	detected := map[string]bool{
		"stuck_off":       true,
		"ignore_night":    true,
		"timeout_200s":    true,
		"no_timeout":      true,
		"inverted_output": true,
		"no_close_off":    true,
		"only_fl":         false, // known coverage gap of the paper's table
	}
	sc := paperScript(t)
	for fault, want := range detected {
		s := paperStand(t)
		dut := s.DUT().(*ecu.InteriorLight)
		if err := dut.InjectFault(fault); err != nil {
			t.Fatalf("%s: %v", fault, err)
		}
		rep := s.RunContext(context.Background(), sc)
		gotDetected := !rep.Passed()
		if gotDetected != want {
			t.Errorf("fault %q: detected=%v, want %v\n%s", fault, gotDetected, want,
				report.TextString(rep))
		}
	}
}

func TestStimuliPersistAcrossSteps(t *testing.T) {
	// Step 7 (280 s) assigns only the measurement; NIGHT and the open
	// door must persist from earlier steps for Ho to hold.
	s := paperStand(t)
	rep := s.RunContext(context.Background(), paperScript(t))
	step7 := rep.Steps[7]
	if step7.Checks[0].Verdict != report.Pass {
		t.Errorf("step 7 = %+v (persistence broken?)", step7.Checks[0])
	}
}

func TestRunIsRepeatable(t *testing.T) {
	// Running the same script twice on one stand must give identical
	// verdicts (reset works).
	s := paperStand(t)
	sc := paperScript(t)
	rep1 := s.RunContext(context.Background(), sc)
	rep2 := s.RunContext(context.Background(), sc)
	if !rep1.Passed() || !rep2.Passed() {
		t.Fatalf("repeat run failed:\n%s\n%s", report.TextString(rep1), report.TextString(rep2))
	}
}

func TestReportContents(t *testing.T) {
	s := paperStand(t)
	rep := s.RunContext(context.Background(), paperScript(t))
	if rep.Script != "InteriorIllumination" || rep.Stand != "paper_stand" || rep.DUT != "interior_light" {
		t.Errorf("report meta = %q %q %q", rep.Script, rep.Stand, rep.DUT)
	}
	// Applied log mentions the decade and the disconnects.
	var all strings.Builder
	for _, st := range rep.Steps {
		for _, a := range st.Applied {
			all.WriteString(a + "\n")
		}
	}
	for _, want := range []string{"put_r", "put_can", "Ress", "disconnect"} {
		if !strings.Contains(all.String(), want) {
			t.Errorf("applied log lacks %q:\n%s", want, all.String())
		}
	}
	// Measured values carry units.
	if !strings.Contains(rep.Steps[4].Checks[0].Measured, "V") {
		t.Errorf("measured value lacks unit: %q", rep.Steps[4].Checks[0].Measured)
	}
}

func TestMeasuredVoltagesPlausible(t *testing.T) {
	s := paperStand(t)
	rep := s.RunContext(context.Background(), paperScript(t))
	// Step 0 (lamp off): measured near 0 V. Step 4 (lamp on): near 12 V.
	m0 := rep.Steps[0].Checks[0].Measured
	m4 := rep.Steps[4].Checks[0].Measured
	if !strings.HasPrefix(m0, "0") && !strings.HasPrefix(m0, "-") {
		t.Errorf("step 0 measured = %q, want ~0 V", m0)
	}
	if !strings.HasPrefix(m4, "11.") && !strings.HasPrefix(m4, "12") {
		t.Errorf("step 4 measured = %q, want ~12 V", m4)
	}
}

func TestCanRunRejectsMissingMethods(t *testing.T) {
	// The strict paper stand (Tables 3+4 only, no CAN adapter) cannot run
	// the example script — the static portability check must say so.
	reg := method.Builtin()
	wb, err := sheet.ReadWorkbookString(paper.StandSheets)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := resource.ParseSheet(wb.Sheet("Resources"), reg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := topology.ParseSheet(wb.Sheet("Connections"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Name: "strict_paper", UbattVolts: 12, Catalog: cat, Matrix: m}, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CanRun(paperScript(t)); err == nil {
		t.Error("stand without CAN adapter accepted a put_can script")
	} else if !strings.Contains(err.Error(), "put_can") {
		t.Errorf("unhelpful CanRun error: %v", err)
	}
}

func TestAllocationErrorProducesErrorVerdicts(t *testing.T) {
	// A script step needing three simultaneous finite door resistances
	// exceeds the paper stand's two decades: the step reports ERROR
	// verdicts (the paper's "error message") and the run continues.
	s := paperStand(t)
	sc := paperScript(t)
	// Craft an extra step demanding three decades at once.
	bad := &script.Step{Nr: 99, Dt: 0.5}
	for _, sig := range []string{"ds_fl", "ds_fr", "ds_rl"} {
		bad.Signals = append(bad.Signals, &script.SignalStmt{
			Name: sig,
			Call: script.MethodCall{Method: "put_r", Attrs: map[string]string{"r": "5000"}},
		})
	}
	good := &script.Step{Nr: 100, Dt: 0.5, Signals: []*script.SignalStmt{{
		Name: "int_ill",
		Call: script.MethodCall{Method: "get_u",
			Attrs: map[string]string{"u_min": "0", "u_max": "(0.3*ubatt)"}},
	}}}
	sc.Steps = append(sc.Steps, bad, good)
	rep := s.RunContext(context.Background(), sc)
	if rep.Passed() {
		t.Fatal("impossible step passed")
	}
	last2 := rep.Steps[len(rep.Steps)-2]
	if len(last2.Checks) != 3 {
		t.Fatalf("error step checks = %+v", last2.Checks)
	}
	for _, c := range last2.Checks {
		if c.Verdict != report.Error {
			t.Errorf("check = %+v, want ERROR", c)
		}
	}
	// Execution continued; the final measurement still ran.
	last := rep.Steps[len(rep.Steps)-1]
	if last.Checks[0].Verdict == report.Error && strings.Contains(last.Checks[0].Detail, "alloc") {
		t.Errorf("run did not recover after allocation failure: %+v", last.Checks[0])
	}
}

func TestRunOnProfiles(t *testing.T) {
	// Experiment C1: the SAME generated XML runs unchanged on the three
	// differently-equipped stand profiles.
	sc := paperScript(t)
	reg := method.Builtin()
	h := HarnessFromScript(sc)
	cfgs, err := Profiles(reg, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		s, err := New(cfg, reg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := s.AttachDUT(ecu.NewInteriorLight()); err != nil {
			t.Fatal(err)
		}
		if err := s.CanRun(sc); err != nil {
			t.Fatalf("%s cannot run the paper script: %v", cfg.Name, err)
		}
		rep := s.RunContext(context.Background(), sc)
		if !rep.Passed() {
			t.Errorf("%s: paper test failed:\n%s", cfg.Name, report.TextString(rep))
		}
	}
}

func TestHILRackUbattDiffers(t *testing.T) {
	// The HIL rack runs at 13.5 V; the symbolic (0.7*ubatt) limits adapt
	// automatically — the whole point of keeping expressions in the XML.
	sc := paperScript(t)
	reg := method.Builtin()
	cfg, err := HILRack(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(cfg, reg)
	if err := s.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	rep := s.RunContext(context.Background(), sc)
	if !rep.Passed() {
		t.Fatalf("13.5 V stand failed:\n%s", report.TextString(rep))
	}
	// The expected band in the report reflects 13.5 V, not 12 V.
	found := false
	for _, st := range rep.Steps {
		for _, c := range st.Checks {
			if strings.Contains(c.Expected, "14.85") { // 1.1*13.5
				found = true
			}
		}
	}
	if !found {
		t.Error("expected band not rescaled to the stand's ubatt")
	}
}

func TestConfigValidation(t *testing.T) {
	reg := method.Builtin()
	if _, err := New(Config{Name: "x"}, reg); err == nil {
		t.Error("config without catalog accepted")
	}
	cfg, _ := PaperConfig(reg)
	cfg.UbattVolts = 0
	if _, err := New(cfg, reg); err == nil {
		t.Error("zero supply voltage accepted")
	}
}

func TestAttachDUTTwice(t *testing.T) {
	s := paperStand(t)
	if err := s.AttachDUT(ecu.NewInteriorLight()); err == nil {
		t.Error("second DUT accepted")
	}
}

func TestFatalOnInvalidScript(t *testing.T) {
	s := paperStand(t)
	sc := paperScript(t)
	sc.Version = "99"
	rep := s.RunContext(context.Background(), sc)
	if rep.FatalErr == "" || rep.Passed() {
		t.Errorf("invalid script ran: %+v", rep)
	}
}

func TestFoldedScriptBreaksOnOtherStand(t *testing.T) {
	// DESIGN.md ablation 2, the portability proof: folding the symbolic
	// limits at 12 V produces a script that FAILS on the 13.5 V HIL rack
	// (the lamp drives ~13.5 V, above the folded 13.2 V limit), while the
	// symbolic original passes — the reason the paper keeps expressions
	// in the XML.
	reg := method.Builtin()
	sc := paperScript(t)
	folded, err := script.Fold(sc, expr.MapEnv{"ubatt": 12}, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := HILRack(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *script.Script) bool {
		st := MustNew(cfg, reg)
		if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
			t.Fatal(err)
		}
		return st.RunContext(context.Background(), s).Passed()
	}
	if !run(sc) {
		t.Fatal("symbolic script failed on the 13.5 V stand")
	}
	if run(folded) {
		t.Fatal("folded 12 V script passed on the 13.5 V stand — ablation invalid")
	}
}

// TestAppliedLine pins the Applied line format and its one-allocation
// rendering (sorted names in a stack array, one builder).
func TestAppliedLine(t *testing.T) {
	many := map[string]string{}
	for _, k := range []string{"j", "i", "h", "g", "f", "e", "d", "c", "b", "a"} {
		many[k] = strings.ToUpper(k)
	}
	cases := []struct {
		attrs map[string]string
		want  string
	}{
		{nil, "DS_FL put_r() via Ress2"},
		{map[string]string{"r": "5000"}, "DS_FL put_r(r=5000) via Ress2"},
		{map[string]string{"u_max": "(1.1*ubatt)", "u_min": "(0.7*ubatt)"},
			"DS_FL put_r(u_max=(1.1*ubatt) u_min=(0.7*ubatt)) via Ress2"},
		// More names than the stack array holds.
		{many, "DS_FL put_r(a=A b=B c=C d=D e=E f=F g=G h=H i=I j=J) via Ress2"},
	}
	for _, c := range cases {
		st := &script.SignalStmt{Name: "DS_FL", Call: script.MethodCall{Method: "put_r", Attrs: c.attrs}}
		if got := appliedLine(st, "Ress2"); got != c.want {
			t.Errorf("appliedLine = %q, want %q", got, c.want)
		}
	}
	st := &script.SignalStmt{Name: "INT_ILL", Call: script.MethodCall{Method: "put_pwm",
		Attrs: map[string]string{"f": "100", "duty": "50", "u": "(1*ubatt)"}}}
	if got := testing.AllocsPerRun(100, func() { appliedLine(st, "Ress4") }); got != 1 {
		t.Errorf("appliedLine allocates %v times, want 1", got)
	}
}
