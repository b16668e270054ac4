package testdef

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
)

func paperCase(t *testing.T) *TestCase {
	t.Helper()
	wb, err := sheet.ReadWorkbookString(paper.TestSheet)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := ParseSheet(wb.Sheet("Test_InteriorIllumination"))
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

func paperContext(t *testing.T) (*sigdef.List, *status.Table) {
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
	return sigs, tbl
}

func TestParsePaperTest(t *testing.T) {
	tc := paperCase(t)
	if tc.Name != "InteriorIllumination" {
		t.Errorf("Name = %q", tc.Name)
	}
	if len(tc.Steps) != 10 {
		t.Fatalf("steps = %d, want 10", len(tc.Steps))
	}
	wantSignals := []string{"IGN_ST", "DS_FL", "DS_FR", "NIGHT", "INT_ILL"}
	if len(tc.Signals) != len(wantSignals) {
		t.Fatalf("Signals = %v", tc.Signals)
	}
	for i := range wantSignals {
		if tc.Signals[i] != wantSignals[i] {
			t.Fatalf("Signals = %v, want %v", tc.Signals, wantSignals)
		}
	}
}

func TestPaperStepContents(t *testing.T) {
	tc := paperCase(t)
	// Step 0 assigns all five columns.
	s0 := tc.Steps[0]
	if s0.Index != 0 || s0.Dt != 0.5 || len(s0.Assign) != 5 {
		t.Errorf("step 0 = %+v", s0)
	}
	if st, _ := s0.Lookup("IGN_ST"); st != "Off" {
		t.Errorf("step 0 IGN_ST = %q", st)
	}
	if s0.Remark != "day: no interior" {
		t.Errorf("step 0 remark = %q", s0.Remark)
	}
	// Step 7 is the 280 s soak with only the measurement assigned.
	s7 := tc.Steps[7]
	if s7.Dt != 280 || len(s7.Assign) != 1 {
		t.Errorf("step 7 = %+v", s7)
	}
	if st, ok := s7.Lookup("INT_ILL"); !ok || st != "Ho" {
		t.Errorf("step 7 INT_ILL = %q, %v", st, ok)
	}
	// Step 4 turns on NIGHT and opens the door.
	s4 := tc.Steps[4]
	if st, _ := s4.Lookup("NIGHT"); st != "1" {
		t.Errorf("step 4 NIGHT = %q", st)
	}
	if st, _ := s4.Lookup("DS_FL"); st != "Open" {
		t.Errorf("step 4 DS_FL = %q", st)
	}
	// Unassigned cell reads as absent.
	if _, ok := s4.Lookup("IGN_ST"); ok {
		t.Error("step 4 IGN_ST should be unassigned")
	}
}

func TestDuration(t *testing.T) {
	tc := paperCase(t)
	// 8×0.5 + 280 + 25 = 309 s
	if d := tc.Duration(); math.Abs(d-309) > 1e-9 {
		t.Errorf("Duration = %v, want 309", d)
	}
}

func TestUsedStatuses(t *testing.T) {
	tc := paperCase(t)
	got := tc.UsedStatuses()
	want := []string{"Off", "Closed", "0", "Lo", "Open", "1", "Ho"}
	if len(got) != len(want) {
		t.Fatalf("UsedStatuses = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UsedStatuses = %v, want %v", got, want)
		}
	}
}

func TestValidatePaper(t *testing.T) {
	tc := paperCase(t)
	sigs, tbl := paperContext(t)
	if err := tc.Validate(sigs, tbl); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	sigs, tbl := paperContext(t)
	cases := []struct {
		name string
		tc   *TestCase
		want string
	}{
		{"no steps", &TestCase{Name: "X"}, "no steps"},
		{"unknown column", &TestCase{Name: "X", Signals: []string{"GHOST"},
			Steps: []Step{{Dt: 1}}}, "unknown signal"},
		{"bad dt", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: 0}}}, "non-positive dt"},
		{"NaN dt", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: math.NaN()}}}, "non-finite dt"},
		{"INF dt", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: math.Inf(1)}}}, "non-finite dt"},
		{"-INF dt", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: math.Inf(-1)}}}, "non-positive dt"},
		{"unknown assigned signal", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: 1, Assign: []Assignment{{Signal: "GHOST", Status: "Open"}}}}}, "unknown signal"},
		{"unknown status", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: 1, Assign: []Assignment{{Signal: "DS_FL", Status: "Sideways"}}}}}, "unknown status"},
		{"measurement on input", &TestCase{Name: "X", Signals: []string{"DS_FL"},
			Steps: []Step{{Dt: 1, Assign: []Assignment{{Signal: "DS_FL", Status: "Ho"}}}}}, "input"},
		{"stimulus on output", &TestCase{Name: "X", Signals: []string{"INT_ILL"},
			Steps: []Step{{Dt: 1, Assign: []Assignment{{Signal: "INT_ILL", Status: "Open"}}}}}, "output"},
	}
	for _, c := range cases {
		err := c.tc.Validate(sigs, tbl)
		if err == nil {
			t.Errorf("%s: Validate succeeded", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"missing columns": "== Test_X ==\nfoo;bar\n1;2\n",
		"no signal cols":  "== Test_X ==\ntest step;dt;remarks\n0;1;\n",
		"bad step number": "== Test_X ==\ntest step;dt;S\nx;1;Open\n",
		"bad dt":          "== Test_X ==\ntest step;dt;S\n0;zz;Open\n",
		"no steps":        "== Test_X ==\ntest step;dt;S\n",
		"non-increasing":  "== Test_X ==\ntest step;dt;S\n1;1;Open\n1;1;Open\n",
		"decreasing":      "== Test_X ==\ntest step;dt;S\n2;1;Open\n1;1;Open\n",
	}
	for name, in := range bad {
		wb, err := sheet.ReadWorkbookString(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSheet(wb.Sheet("Test_X")); err == nil {
			t.Errorf("%s: ParseSheet succeeded", name)
		}
	}
	if _, err := ParseSheet(nil); err == nil {
		t.Error("ParseSheet(nil) succeeded")
	}
}

func TestParseAll(t *testing.T) {
	wb, err := sheet.ReadWorkbookString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := ParseAll(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 || cases[0].Name != "InteriorIllumination" {
		t.Errorf("ParseAll = %v", cases)
	}
	// A workbook without test sheets errors.
	wb2, _ := sheet.ReadWorkbookString("== Other ==\nx\n")
	if _, err := ParseAll(wb2); err == nil {
		t.Error("ParseAll without Test_* sheets succeeded")
	}
}

func TestToSheetRoundTrip(t *testing.T) {
	tc := paperCase(t)
	out := tc.ToSheet()
	tc2, err := ParseSheet(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if tc2.Name != tc.Name || len(tc2.Steps) != len(tc.Steps) {
		t.Fatalf("round trip changed shape: %+v", tc2)
	}
	for i := range tc.Steps {
		a, b := tc.Steps[i], tc2.Steps[i]
		if a.Index != b.Index || a.Dt != b.Dt || a.Remark != b.Remark || len(a.Assign) != len(b.Assign) {
			t.Errorf("step %d changed: %+v vs %+v", i, a, b)
			continue
		}
		for j := range a.Assign {
			if a.Assign[j] != b.Assign[j] {
				t.Errorf("step %d assign %d: %+v vs %+v", i, j, a.Assign[j], b.Assign[j])
			}
		}
	}
}

func TestStepsWithoutNumbersGetSequential(t *testing.T) {
	wb, _ := sheet.ReadWorkbookString("== Test_X ==\ntest step;dt;S\n;1;Open\n;1;Closed\n")
	tc, err := ParseSheet(wb.Sheet("Test_X"))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Steps[0].Index != 0 || tc.Steps[1].Index != 1 {
		t.Errorf("auto indices = %d,%d", tc.Steps[0].Index, tc.Steps[1].Index)
	}
}

func TestGermanDt(t *testing.T) {
	tc := paperCase(t)
	for _, i := range []int{0, 9} {
		if tc.Steps[i].Dt != 0.5 {
			t.Errorf("step %d dt = %v, want 0.5 (German comma)", i, tc.Steps[i].Dt)
		}
	}
	if tc.Steps[7].Dt != 280 || tc.Steps[8].Dt != 25 {
		t.Errorf("long steps dt = %v, %v", tc.Steps[7].Dt, tc.Steps[8].Dt)
	}
}

// TestCloneIsIndependent: editing a clone's signals, steps and
// assignments leaves the original unchanged.
func TestCloneIsIndependent(t *testing.T) {
	tc := paperCase(t)
	want := fmt.Sprintf("%+v", *tc)
	c := tc.Clone()
	if c.Name != tc.Name || len(c.Steps) != len(tc.Steps) {
		t.Fatalf("clone %s has %d steps, want %s with %d", c.Name, len(c.Steps), tc.Name, len(tc.Steps))
	}
	c.Signals[0] = "edited"
	c.Steps[0].Dt = -1
	c.Steps[1].Assign[0].Status = "edited"
	c.Steps[1].Assign = append(c.Steps[1].Assign[:0], c.Steps[1].Assign[1:]...)
	c.Steps = append(c.Steps[:0], c.Steps[1:]...)
	if got := fmt.Sprintf("%+v", *tc); got != want {
		t.Errorf("editing the clone changed the original:\nbefore: %s\nafter:  %s", want, got)
	}
	if c.SheetName != "" || c.HeaderLine != 0 || c.ColumnOf(tc.Signals[0]) != 0 {
		t.Errorf("clone carries sheet position %q:%d or columns", c.SheetName, c.HeaderLine)
	}
}

// TestCloneStepsDoNotAlias: a clone's assignments share one array, yet
// appending to one step's assignments leaves the clone's other steps
// and the original as they were.
func TestCloneStepsDoNotAlias(t *testing.T) {
	tc := paperCase(t)
	want := fmt.Sprintf("%+v", *tc)
	for i := range tc.Steps {
		c := tc.Clone()
		c.Steps[i].Assign = append(c.Steps[i].Assign, Assignment{Signal: "x", Status: "y"})
		for j, step := range c.Steps {
			if j != i && !slices.Equal(step.Assign, tc.Steps[j].Assign) {
				t.Fatalf("append to step %d changed step %d: %v, want %v", i, j, step.Assign, tc.Steps[j].Assign)
			}
		}
	}
	if got := fmt.Sprintf("%+v", *tc); got != want {
		t.Errorf("appending to a clone changed the original:\nbefore: %s\nafter:  %s", want, got)
	}
}

// TestCloneAllocsPerTest: Clone allocates per test, not per step.
func TestCloneAllocsPerTest(t *testing.T) {
	tc := paperCase(t)
	steps := func(n int) *TestCase {
		c := &TestCase{Name: tc.Name, Signals: tc.Signals, Steps: make([]Step, n)}
		for i := range c.Steps {
			c.Steps[i] = tc.Steps[i%len(tc.Steps)]
		}
		return c
	}
	short, long := steps(4), steps(24)
	a := testing.AllocsPerRun(50, func() { short.Clone() })
	b := testing.AllocsPerRun(50, func() { long.Clone() })
	if a != b {
		t.Errorf("Clone allocates %v for 4 steps, %v for 24 steps", a, b)
	}
}
