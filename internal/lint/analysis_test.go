package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/comptest"
	"repro/internal/report"
	"repro/internal/stand"
)

// suiteOf loads a workbook string into an analysis Suite.
func suiteOf(t *testing.T, workbook string) *Suite {
	t.Helper()
	s, err := comptest.LoadSuiteString(workbook)
	if err != nil {
		t.Fatal(err)
	}
	return &Suite{Signals: s.Signals, Statuses: s.Statuses, Tests: s.Tests, Workbook: s.Workbook}
}

func runAll(t *testing.T, s *Suite) Result {
	t.Helper()
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func findCode(fs []Finding, code string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Code == code {
			out = append(out, f)
		}
	}
	return out
}

// crossWorkbook seeds one defect per cross-artifact analyzer.
const crossWorkbook = `== SignalDefinition ==
signal;direction;class;pin;init
SW;in;digital;SW;Released
LAMP;out;analog;LAMP;
== StatusDefinition ==
status;method;attribut;var (x);nom;min;max
Pressed;put_r;r;;0;;
Released;put_r;r;;INF;;
On;get_u;u;UBATT;1;0,7;1,1
Impossible;get_u;u;UBATT;1;1,2;0,7
== Test_Main ==
test step;dt;SW;LAMP;remarks
0;0,05;Pressed;On;settle conflict: dt below settle time
1;1;Released;
2;1;Released;;dead: re-applies the current stimulus
3;1;;Impossible;unreachable check
== Test_Copy ==
test step;dt;SW;LAMP
0;0,05;Pressed;On
1;1;Released;
2;1;Released;
3;1;;Impossible
`

func TestCrossAnalyzers(t *testing.T) {
	s := suiteOf(t, crossWorkbook)
	res := runAll(t, s)

	if fs := findCode(res.Findings, "unsatisfiable-limits"); len(fs) != 1 ||
		!strings.Contains(fs[0].Msg, `"Impossible"`) {
		t.Errorf("unsatisfiable-limits = %v", fs)
	} else {
		if fs[0].Severity != Error {
			t.Errorf("unsatisfiable-limits severity = %v, want error", fs[0].Severity)
		}
		if fs[0].Pos.Sheet != "StatusDefinition" || fs[0].Pos.Row != 5 {
			t.Errorf("unsatisfiable-limits pos = %+v", fs[0].Pos)
		}
	}
	// Both tests assign the impossible status once each.
	if fs := findCode(res.Findings, "unreachable-check"); len(fs) != 2 {
		t.Errorf("unreachable-check = %v", fs)
	} else if fs[0].Pos.Sheet != "Test_Copy" || fs[0].Pos.Row != 5 || fs[0].Pos.Col != 4 {
		// Findings sort by position, and Test_Copy < Test_Main.
		t.Errorf("unreachable-check pos = %+v", fs[0].Pos)
	}
	if fs := findCode(res.Findings, "dead-step"); len(fs) != 2 {
		t.Errorf("dead-step = %v (want one per test sheet)", fs)
	} else if !strings.Contains(fs[0].Msg, "step 2") {
		t.Errorf("dead-step msg = %q", fs[0].Msg)
	}
	if fs := findCode(res.Findings, "duplicate-scenario"); len(fs) != 1 ||
		!strings.Contains(fs[0].Msg, `"Copy" duplicates the step sequence of test "Main"`) {
		t.Errorf("duplicate-scenario = %v", fs)
	}
	if fs := findCode(res.Findings, "settle-conflict"); len(fs) != 2 {
		t.Errorf("settle-conflict = %v", fs)
	} else if !strings.Contains(fs[0].Msg, `"LAMP"`) {
		t.Errorf("settle-conflict msg = %q", fs[0].Msg)
	}
}

// TestSettleConflictUsesStandSettleTime: settle-conflict flags a step
// shorter than stand.SettleTime and passes one that lasts exactly as
// long.
func TestSettleConflictUsesStandSettleTime(t *testing.T) {
	settle := stand.SettleTime.Seconds()
	s := suiteOf(t, crossWorkbook)
	s.Tests[0].Steps[0].Dt = settle
	s.Tests[1].Steps[0].Dt = settle * 0.99
	fs := findCode(runAll(t, s).Findings, "settle-conflict")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, `test "Copy" step 0`) {
		t.Fatalf("settle-conflict = %v (want only Copy's shortened step)", fs)
	}
	if want := fmt.Sprintf("below the stand settle time of %v s", settle); !strings.Contains(fs[0].Msg, want) {
		t.Errorf("settle-conflict msg = %q, want %q", fs[0].Msg, want)
	}
}

func TestWeakCheckJoinsKillMatrix(t *testing.T) {
	s := suiteOf(t, crossWorkbook)
	res := runAll(t, s)
	if fs := findCode(res.Findings, "weak-check"); len(fs) != 0 {
		t.Errorf("weak-check without matrix = %v", fs)
	}

	// A matrix where only LAMP-independent checks killed: LAMP checks
	// are weak. Witness shape matches the mutation runner's.
	s.Kills = KillMatrixFromStrength(&report.Strength{DUTs: []report.DUTStrength{{
		DUT: "interior_light",
		Mutants: []report.MutantOutcome{
			{ID: "fault/x", Killed: true, Witness: "Main step 0: OTHER get_u expected [1 2], measured 0"},
			{ID: "fault/y", Killed: false},
		},
	}}})
	res = runAll(t, s)
	fs := findCode(res.Findings, "weak-check")
	if len(fs) != 2 { // one per test sheet
		t.Fatalf("weak-check = %v", fs)
	}
	if !strings.Contains(fs[0].Msg, `"LAMP"`) || !strings.Contains(fs[0].Msg, "1/2 mutants killed") {
		t.Errorf("weak-check msg = %q", fs[0].Msg)
	}
	if fs[0].Severity != Info {
		t.Errorf("weak-check severity = %v", fs[0].Severity)
	}

	// Once a LAMP witness exists the finding disappears.
	s.Kills = KillMatrixFromStrength(&report.Strength{DUTs: []report.DUTStrength{{
		Mutants: []report.MutantOutcome{
			{ID: "fault/x", Killed: true, Witness: "Main step 0: LAMP get_u expected [8.4 13.2], measured 0"},
		},
	}}})
	res = runAll(t, s)
	if fs := findCode(res.Findings, "weak-check"); len(fs) != 0 {
		t.Errorf("weak-check with LAMP kill = %v", fs)
	}
}

func TestSuppressionDirective(t *testing.T) {
	wb := strings.Replace(crossWorkbook,
		"2;1;Released;;dead: re-applies the current stimulus",
		"2;1;Released;;lint:ignore dead-step,settle-conflict deliberate soak", 1)
	s := suiteOf(t, wb)
	res := runAll(t, s)
	// Test_Main's dead-step is suppressed; Test_Copy's remains.
	fs := findCode(res.Findings, "dead-step")
	if len(fs) != 1 || fs[0].Pos.Sheet != "Test_Copy" {
		t.Errorf("dead-step after suppression = %v", fs)
	}
	sup := findCode(res.Suppressed, "dead-step")
	if len(sup) != 1 || sup[0].Pos.Sheet != "Test_Main" {
		t.Errorf("suppressed = %v", res.Suppressed)
	}
	// The directive names settle-conflict too, but on the wrong row —
	// row-scoped directives must not leak.
	if fs := findCode(res.Findings, "settle-conflict"); len(fs) != 2 {
		t.Errorf("settle-conflict wrongly suppressed: %v", fs)
	}
}

func TestRunSortsAndFilters(t *testing.T) {
	s := suiteOf(t, crossWorkbook)
	res, err := Run(s, Options{MinSeverity: Error})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Findings {
		if f.Severity < Error {
			t.Errorf("finding below min severity: %v", f)
		}
	}
	res = runAll(t, s)
	for i := 1; i < len(res.Findings); i++ {
		a, b := res.Findings[i-1], res.Findings[i]
		if a.Pos.Sheet > b.Pos.Sheet {
			t.Fatalf("findings not sorted by sheet: %v before %v", a, b)
		}
		if a.Pos.Sheet == b.Pos.Sheet && a.Pos.Row > b.Pos.Row {
			t.Fatalf("findings not sorted by row: %v before %v", a, b)
		}
	}
	if max, ok := res.MaxSeverity(); !ok || max != Error {
		t.Errorf("MaxSeverity = %v, %v", max, ok)
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	s := suiteOf(t, crossWorkbook)
	if _, err := Run(s, Options{Analyzers: []string{"no-such"}}); err == nil {
		t.Error("unknown analyzer accepted")
	}
}

func TestBaselineRatchet(t *testing.T) {
	s := suiteOf(t, crossWorkbook)
	res := runAll(t, s)
	base := NewBaseline(res.Findings)
	if fresh := base.Apply(res.Findings); len(fresh) != 0 {
		t.Errorf("full baseline leaves fresh findings: %v", fresh)
	}
	// Baseline keys ignore rows: moving a finding to another row stays
	// covered, a genuinely new finding does not.
	moved := make([]Finding, len(res.Findings))
	copy(moved, res.Findings)
	moved[0].Pos.Row += 10
	if fresh := base.Apply(moved); len(fresh) != 0 {
		t.Errorf("row move broke the baseline: %v", fresh)
	}
	extra := append(moved, Finding{Severity: Error, Code: "unreachable-check", Msg: "brand new"})
	if fresh := base.Apply(extra); len(fresh) != 1 || fresh[0].Msg != "brand new" {
		t.Errorf("fresh finding not isolated: %v", fresh)
	}

	// File round trip.
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaselineFile(path, base); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fresh := back.Apply(res.Findings); len(fresh) != 0 {
		t.Errorf("round-tripped baseline leaves fresh findings: %v", fresh)
	}
}

func TestJSONAndSARIFRender(t *testing.T) {
	s := suiteOf(t, crossWorkbook)
	res := runAll(t, s)
	rep := &Report{Workbooks: []WorkbookReport{{
		File: "cross.csw", Findings: res.Findings, Suppressed: len(res.Suppressed),
	}}}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var decoded Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON round trip: %v", err)
	}
	if len(decoded.Workbooks) != 1 || len(decoded.Workbooks[0].Findings) != len(res.Findings) {
		t.Errorf("JSON round trip lost findings")
	}
	if decoded.Workbooks[0].Findings[0].Severity != res.Findings[0].Severity {
		t.Errorf("severity did not survive the round trip")
	}

	buf.Reset()
	if err := WriteSARIF(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var sarif map[string]any
	if err := json.Unmarshal(buf.Bytes(), &sarif); err != nil {
		t.Fatalf("SARIF is not JSON: %v", err)
	}
	if v := sarif["version"]; v != "2.1.0" {
		t.Errorf("SARIF version = %v", v)
	}
	out := buf.String()
	for _, want := range []string{`"comptest vet"`, `"unreachable-check"`, `"cross.csw"`, `"startLine"`} {
		if !strings.Contains(out, want) {
			t.Errorf("SARIF lacks %s", want)
		}
	}

	buf.Reset()
	if err := WriteText(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cross.csw:") {
		t.Errorf("text output lacks file anchors:\n%s", buf.String())
	}
}

func TestPositionsThreadThrough(t *testing.T) {
	s := suiteOf(t, `== SignalDefinition ==
signal;direction;class;pin;init
A;in;digital;A;Pressed
GHOSTIN;in;digital;G;Pressed
== StatusDefinition ==
status;method;attribut;var (x);nom;min;max
Pressed;put_r;r;;0;;
Released;put_r;r;;INF;;
== Test_T ==
test step;dt;A;GHOSTIN
0;1;Pressed;
1;1;Released;
`)
	res := runAll(t, s)
	fs := findCode(res.Findings, "empty-column")
	if len(fs) != 1 {
		t.Fatalf("empty-column = %v", fs)
	}
	// GHOSTIN is the 4th header cell of Test_T (line 10 of the stream).
	if p := fs[0].Pos; p.Sheet != "Test_T" || p.Row != 1 || p.Col != 4 || p.Line != 10 {
		t.Errorf("empty-column pos = %+v", p)
	}
	// unstimulated-input anchors at GHOSTIN's SignalDefinition row.
	un := findCode(res.Findings, "unstimulated-input")
	if len(un) != 1 {
		t.Fatalf("unstimulated-input = %v", un)
	}
	if p := un[0].Pos; p.Sheet != "SignalDefinition" || p.Row != 3 || p.Line != 4 {
		t.Errorf("unstimulated-input pos = %+v", p)
	}
}

// Satellite edge cases: limits exactly at boundary equality, empty
// columns on single-step tests, Mentions with prefix names.

func TestLimitBoundaryEquality(t *testing.T) {
	fs := findings(t, `== SignalDefinition ==
signal;direction;class;pin;init
O;out;analog;O;
I;in;digital;I;Stim
== StatusDefinition ==
status;method;attribut;var (x);nom;min;max
Exact;get_u;u;;1;3;3
AlmostFlat;get_u;u;;1;3;3,0001
JustInverted;get_u;u;;1;3,0001;3
Stim;put_r;r;;0;;
== Test_T ==
test step;dt;O;I
0;1;Exact;Stim
1;1;AlmostFlat;
2;1;JustInverted;
`)
	if !hasCode(fs, "degenerate-limits", "Exact") {
		t.Errorf("min==max not flagged degenerate: %v", fs)
	}
	if hasCode(fs, "inverted-limits", "Exact") {
		t.Errorf("min==max flagged inverted: %v", fs)
	}
	if hasCode(fs, "degenerate-limits", "AlmostFlat") || hasCode(fs, "inverted-limits", "AlmostFlat") {
		t.Errorf("narrow-but-valid band flagged: %v", fs)
	}
	if !hasCode(fs, "inverted-limits", "JustInverted") {
		t.Errorf("barely inverted band not flagged: %v", fs)
	}
	if hasCode(fs, "degenerate-limits", "JustInverted") {
		t.Errorf("inverted band double-flagged degenerate: %v", fs)
	}
}

func TestEmptyColumnSingleStep(t *testing.T) {
	// A one-step test: the empty column must be found even though there
	// is only a single row to scan.
	fs := findings(t, `== SignalDefinition ==
signal;direction;class;pin;init
A;in;digital;A;Pressed
B;in;digital;B;Pressed
== StatusDefinition ==
status;method;attribut;var (x);nom;min;max
Pressed;put_r;r;;0;;
== Test_T ==
test step;dt;A;B
0;1;Pressed;
`)
	if !hasCode(fs, "empty-column", `"B"`) {
		t.Errorf("single-step empty column not flagged: %v", fs)
	}
	if hasCode(fs, "empty-column", `"A"`) {
		t.Errorf("assigned column flagged: %v", fs)
	}
}

func TestMentionsPrefixNames(t *testing.T) {
	// DS_RL vs DS_RL_EXT: the quoted match must not fire on a prefix in
	// either direction.
	long := Finding{Severity: Warning, Code: "unstimulated-input",
		Msg: `input signal "DS_RL_EXT" is never stimulated by any test`}
	if long.Mentions("DS_RL") {
		t.Error("prefix of a longer name matched")
	}
	if !long.Mentions("DS_RL_EXT") || !long.Mentions("ds_rl_ext") {
		t.Error("exact name missed")
	}
	short := Finding{Severity: Warning, Code: "unstimulated-input",
		Msg: `input signal "DS_RL" is never stimulated by any test`}
	if short.Mentions("DS_RL_EXT") {
		t.Error("longer name matched a short mention")
	}
}

func TestAnalyzerRegistry(t *testing.T) {
	as := Analyzers()
	if len(as) < 15 {
		t.Fatalf("registry has %d analyzers, want >= 15", len(as))
	}
	seen := map[string]bool{}
	for i, a := range as {
		if a.Doc == "" {
			t.Errorf("analyzer %q lacks a Doc", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer %q", a.Name)
		}
		seen[a.Name] = true
		if i > 0 && as[i-1].Name >= a.Name {
			t.Errorf("analyzers not sorted by name")
		}
	}
	for _, want := range []string{
		"unused-status", "unstimulated-input", "unmeasured-output", "missing-init",
		"empty-column", "inverted-limits", "degenerate-limits", "long-test",
		"never-toggled", "unsatisfiable-limits", "unreachable-check", "dead-step",
		"duplicate-scenario", "settle-conflict", "weak-check",
	} {
		if !seen[want] {
			t.Errorf("analyzer %q not registered", want)
		}
	}
}

func TestSeverityJSON(t *testing.T) {
	b, err := json.Marshal(Error)
	if err != nil || string(b) != `"error"` {
		t.Errorf("Marshal(Error) = %s, %v", b, err)
	}
	var s Severity
	if err := json.Unmarshal([]byte(`"warning"`), &s); err != nil || s != Warning {
		t.Errorf("Unmarshal(warning) = %v, %v", s, err)
	}
	if err := json.Unmarshal([]byte(`"nope"`), &s); err == nil {
		t.Error("bad severity accepted")
	}
	if _, err := ParseSeverity("error"); err != nil {
		t.Error(err)
	}
}
