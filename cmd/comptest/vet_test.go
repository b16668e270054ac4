package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/lint"
)

// vetFixture is the seeded-defect workbook; its expected findings are
// pinned byte for byte by the golden file next to it.
const (
	vetFixture  = "testdata/lint_defects.csw"
	vetGolden   = "testdata/lint_defects.findings.json"
	vetBaseline = "testdata/lint_defects.baseline.json"
)

// TestVetDefectsGolden pins the full JSON report of the seeded-defect
// workbook byte for byte. The fixture deliberately carries at least one
// instance of every analyzer code, so any change to an analyzer's
// positions, message wording or ordering shows up as a golden diff —
// and the byte-identity across runs is the determinism guarantee the
// CI gate relies on.
func TestVetDefectsGolden(t *testing.T) {
	t.Chdir("../..")
	out, err := runCLI(t, "vet", "-format", "json", vetFixture)
	if err == nil || !strings.Contains(err.Error(), "3 new error finding(s)") {
		t.Fatalf("vet error = %v, want 3 new error findings", err)
	}
	golden, rerr := os.ReadFile(vetGolden)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if out != string(golden) {
		t.Errorf("vet JSON drifted from %s:\n%s", vetGolden, out)
	}
	// Byte-stability: a second run must produce identical bytes.
	again, _ := runCLI(t, "vet", "-format", "json", vetFixture)
	if again != out {
		t.Error("vet JSON differs between two runs on identical input")
	}
}

// TestVetDefectsCoverEveryAnalyzer asserts the fixture's golden report
// contains at least one finding per registered analyzer — the contract
// that keeps the fixture honest when new analyzers are added.
func TestVetDefectsCoverEveryAnalyzer(t *testing.T) {
	t.Chdir("../..")
	raw, err := os.ReadFile(vetGolden)
	if err != nil {
		t.Fatal(err)
	}
	var rep lint.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, wb := range rep.Workbooks {
		for _, f := range wb.Findings {
			seen[f.Code] = true
		}
	}
	for _, a := range lint.Analyzers() {
		if !seen[a.Name] {
			t.Errorf("fixture triggers no %q finding; extend %s", a.Name, vetFixture)
		}
	}
	// The suppression directive in the remarks cell must be counted.
	suppressed := 0
	for _, wb := range rep.Workbooks {
		suppressed += wb.Suppressed
	}
	if suppressed != 1 {
		t.Errorf("suppressed = %d, want exactly 1 (the lint:ignore dead-step remark)", suppressed)
	}
}

// TestVetBaselineRatchet: with the committed baseline the same run
// exits clean — the ratchet lets CI adopt vet on a brownfield workbook
// without fixing every legacy finding first, while new findings still
// fail.
func TestVetBaselineRatchet(t *testing.T) {
	t.Chdir("../..")
	if out, err := runCLI(t, "vet", "-baseline", vetBaseline, vetFixture); err != nil {
		t.Fatalf("baselined vet failed: %v\n%s", err, out)
	}
	// Rewriting the baseline into a temp file reproduces the ratchet.
	tmp := t.TempDir() + "/base.json"
	if _, err := runCLI(t, "vet", "-write-baseline", tmp, vetFixture); err != nil {
		t.Fatalf("write-baseline: %v", err)
	}
	if out, err := runCLI(t, "vet", "-baseline", tmp, vetFixture); err != nil {
		t.Fatalf("vet against freshly written baseline: %v\n%s", err, out)
	}
}

// TestVetSeverityFilter drops infos and warnings but keeps the errors
// (and the nonzero exit).
func TestVetSeverityFilter(t *testing.T) {
	t.Chdir("../..")
	out, err := runCLI(t, "vet", "-severity", "error", vetFixture)
	if err == nil {
		t.Fatal("error-severity findings did not fail the run")
	}
	if strings.Contains(out, "warning") || strings.Contains(out, "info ") {
		t.Errorf("-severity error leaked lower findings:\n%s", out)
	}
	if !strings.Contains(out, "unreachable-check") || !strings.Contains(out, "unsatisfiable-limits") {
		t.Errorf("-severity error lost error findings:\n%s", out)
	}
}

// TestVetSARIF smoke-tests the SARIF 2.1.0 rendering end to end: tool
// driver, rule metadata and results for the error findings.
func TestVetSARIF(t *testing.T) {
	t.Chdir("../..")
	out, err := runCLI(t, "vet", "-format", "sarif", vetFixture)
	if err == nil {
		t.Fatal("sarif run with error findings exited clean")
	}
	for _, want := range []string{
		`"version": "2.1.0"`,
		`"name": "comptest vet"`,
		`"id": "unreachable-check"`,
		`"level": "error"`,
		vetFixture,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sarif output lacks %q", want)
		}
	}
}

// TestVetBuiltinWorkbook: no path arguments vets the built-in paper
// workbook, which carries warnings only — exit 0.
func TestVetBuiltinWorkbook(t *testing.T) {
	out, err := runCLI(t, "vet")
	if err != nil {
		t.Fatalf("vet builtin: %v\n%s", err, out)
	}
	if !strings.Contains(out, "unstimulated-input") {
		t.Errorf("builtin vet lost the paper's rear-door findings:\n%s", out)
	}
}

// TestVetKillMatrixSidecar: the <workbook>.kills.json sidecar is picked
// up implicitly and enables weak-check; pointing -killmatrix elsewhere
// overrides it.
func TestVetKillMatrixSidecar(t *testing.T) {
	t.Chdir("../..")
	out, _ := runCLI(t, "vet", vetFixture)
	if !strings.Contains(out, "weak-check") {
		t.Errorf("sidecar kill matrix not joined:\n%s", out)
	}
	// An explicit matrix whose kills witness LAMP overrides the
	// sidecar: the LAMP checks have demonstrated power, no weak-check.
	tmp := t.TempDir() + "/lamp.json"
	matrix := `{"duts":[{"dut":"d","stand":"s","mutants":[
		{"id":"fault/x","kind":"fault","killed":true,
		 "witness":"Test_Main step 0: LAMP get_u expected Dark, measured 0,9"}]}]}`
	if err := os.WriteFile(tmp, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _ = runCLI(t, "vet", "-killmatrix", tmp, vetFixture)
	if strings.Contains(out, "weak-check") {
		t.Errorf("-killmatrix override ignored:\n%s", out)
	}
}
