package comptest_test

// Suite-level tests migrated from the deleted internal/core shim onto
// the public API: workbook loading, script generation, stand-workbook
// parsing, reuse analysis and the fault-detection claims for the DUTs
// the mutation package does not pin itself.

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/comptest"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/sheet"
	"repro/internal/stand"
	"repro/internal/workbooks"
)

func TestLoadPaperSuite(t *testing.T) {
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	if suite.Signals.Len() != 7 || suite.Statuses.Len() != 7 || len(suite.Tests) != 1 {
		t.Errorf("suite shape: %d signals, %d statuses, %d tests",
			suite.Signals.Len(), suite.Statuses.Len(), len(suite.Tests))
	}
	if suite.Test("InteriorIllumination") == nil {
		t.Error("Test lookup failed")
	}
	if suite.Test("ghost") != nil {
		t.Error("ghost test found")
	}
}

func TestLoadSuiteErrors(t *testing.T) {
	cases := map[string]string{
		"no signals":  "== StatusDefinition ==\nstatus;method\n",
		"no statuses": "== SignalDefinition ==\nsignal;direction;class\n",
		"bad init": `== SignalDefinition ==
signal;direction;class;pin;init
A;in;digital;A;Ho
== StatusDefinition ==
status;method;attribut;var (x);nom;min;max
Ho;get_u;u;UBATT;1;0,7;1,1
== Test_X ==
test step;dt;A
0;1;Ho
`,
	}
	for name, in := range cases {
		if _, err := comptest.LoadSuiteString(in); err == nil {
			t.Errorf("%s: LoadSuiteString succeeded", name)
		}
	}
	if _, err := comptest.LoadSuiteFile("/nonexistent/file.csw"); err == nil {
		t.Error("LoadSuiteFile on missing file succeeded")
	}
}

func TestGenerateScripts(t *testing.T) {
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := suite.GenerateScripts()
	if err != nil || len(scripts) != 1 {
		t.Fatalf("GenerateScripts = %v, %v", scripts, err)
	}
	sc, err := suite.GenerateScript("InteriorIllumination")
	if err != nil || sc.Name != "InteriorIllumination" {
		t.Fatalf("GenerateScript = %v, %v", sc, err)
	}
	if _, err := suite.GenerateScript("ghost"); err == nil {
		t.Error("GenerateScript(ghost) succeeded")
	}
}

func TestLoadStandConfig(t *testing.T) {
	wb, err := sheet.ReadWorkbookString(paper.StandSheets)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := comptest.LoadStandConfig(wb, "paper", 12)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Catalog.Len() != 3 || cfg.Matrix.Len() != 10 {
		t.Errorf("stand config: %d resources, %d connections", cfg.Catalog.Len(), cfg.Matrix.Len())
	}
	wb2, _ := sheet.ReadWorkbookString("== Other ==\nx\n")
	if _, err := comptest.LoadStandConfig(wb2, "x", 12); err == nil {
		t.Error("stand workbook without sheets accepted")
	}
}

func TestRunPlanWithExplicitStandConfig(t *testing.T) {
	// The complete paper pipeline on the paper's stand, named
	// explicitly: a stand is always named through the registry.
	r, err := comptest.NewRunner(
		comptest.WithStand("paper_stand"),
		comptest.WithDUT("interior_light"),
	)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := comptest.Compile(suite)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := r.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Passed() {
		t.Fatalf("pipeline run failed:\n%s", report.TextString(reps[0]))
	}
}

func TestAnalyzeReuse(t *testing.T) {
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := suite.GenerateScripts()
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := stand.Profiles(suite.Registry, stand.HarnessFromScript(scripts[0]))
	if err != nil {
		t.Fatal(err)
	}
	m, err := comptest.AnalyzeReuse(scripts, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	// The paper test uses only put_can/put_r/get_u: runnable everywhere.
	if m.ReusePercent() != 100 {
		t.Errorf("paper suite reuse = %v%%, want 100\n%s", m.ReusePercent(), m)
	}
}

func TestWriteScriptFile(t *testing.T) {
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := suite.GenerateScript("InteriorIllumination")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/out.xml"
	if err := comptest.WriteScriptFile(path, sc); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "<testscript") || !strings.Contains(string(b), "(1.1*ubatt)") {
		t.Errorf("script file content wrong:\n%s", b)
	}
}

func TestLoadSuiteFromTestdataFile(t *testing.T) {
	// The file-based workflow: the canonical workbooks also live as CSW
	// files under testdata/ for use with `comptest -workbook`.
	suite, err := comptest.LoadSuiteFile("../testdata/interior_illumination.csw")
	if err != nil {
		t.Fatal(err)
	}
	if suite.Signals.Len() != 7 || len(suite.Tests) != 1 {
		t.Errorf("file suite shape: %d signals, %d tests", suite.Signals.Len(), len(suite.Tests))
	}
	wb, err := sheet.ReadWorkbookFile("../testdata/paper_stand.csw")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := comptest.LoadStandConfig(wb, "paper_file", 12)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Catalog.Len() != 3 {
		t.Errorf("file stand resources = %d", cfg.Catalog.Len())
	}
}

// TestBuiltinFaultsAreDetected pins the fault-detection claim for the
// DUT models whose kill matrices the mutation package does not pin
// itself: every registered fault of the central locking and exterior
// light models is detected by at least one test of its built-in suite.
// (interior_light has the known only_fl survivor — TestKillMatrixInteriorLight —
// and window_lifter the no_thermal survivor; both are the subject of
// the exploration acceptance tests.)
func TestBuiltinFaultsAreDetected(t *testing.T) {
	cases := map[string][]string{
		"central_locking": {"no_autolock", "autolock_3kmh", "short_pulse", "no_status", "crash_ignored"},
		"exterior_light":  {"no_fmh", "fmh_10s", "drl_slow_pwm", "drl_at_night", "fog_stuck_open"},
	}
	for dut, faults := range cases {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			t.Fatal(err)
		}
		scripts, err := suite.GenerateScripts()
		if err != nil {
			t.Fatal(err)
		}
		for _, fault := range faults {
			if err := comptest.CheckFaults(dut, fault); err != nil {
				t.Fatalf("%s/%s: %v", dut, fault, err)
			}
			collector := &comptest.Collector{}
			r, err := comptest.NewRunner(
				comptest.WithStand("full_lab"),
				comptest.WithDUT(dut),
				comptest.WithSink(collector),
			)
			if err != nil {
				t.Fatal(err)
			}
			units := comptest.Cross(scripts, []string{"full_lab"}, "")
			for i := range units {
				units[i].Faults = []string{fault}
			}
			if _, err := r.Campaign(context.Background(), units); err != nil {
				t.Fatal(err)
			}
			detected := false
			for _, res := range collector.Results() {
				if res.Err == nil && !res.Report.Passed() {
					detected = true
				}
			}
			if !detected {
				t.Errorf("%s fault %q not detected by any test", dut, fault)
			}
		}
	}
}

func TestWorkbookSuitesPassOnFullLab(t *testing.T) {
	// The three non-paper workbooks generate and pass end to end on the
	// full lab stand (the paper's "applied to two ECUs" project claim,
	// extended). The campaign matrix test covers the cross product; this
	// pins the expected script counts.
	cases := map[string]int{
		workbooks.CentralLocking: 4,
		workbooks.WindowLifter:   3,
		workbooks.ExteriorLight:  4,
	}
	for wb, want := range cases {
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			t.Fatal(err)
		}
		scripts, err := suite.GenerateScripts()
		if err != nil {
			t.Fatal(err)
		}
		if len(scripts) != want {
			t.Errorf("suite %q: %d scripts, want %d", suite.Tests[0].Name, len(scripts), want)
		}
	}
}
