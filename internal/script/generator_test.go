package script

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/workbooks"
)

var builtinWorkbooks = map[string]string{
	"paper":           paper.Workbook,
	"central_locking": workbooks.CentralLocking,
	"exterior_light":  workbooks.ExteriorLight,
	"window_lifter":   workbooks.WindowLifter,
}

func workbookParts(t testing.TB, src string) ([]*testdef.TestCase, *sigdef.List, *status.Table) {
	t.Helper()
	wb, err := sheet.ReadWorkbookString(src)
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
	return tcs, sigs, tbl
}

func encoded(t *testing.T, g *Generator, tc *testdef.TestCase) string {
	t.Helper()
	sc, err := g.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	s, err := EncodeString(sc)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGeneratorMatchesFresh: a Generator shared by every test of a
// workbook emits the same XML as a fresh Generator per test, whichever
// order the tests are generated in.
func TestGeneratorMatchesFresh(t *testing.T) {
	for name, src := range builtinWorkbooks {
		tcs, sigs, tbl := workbookParts(t, src)
		want := map[string]string{}
		for _, tc := range tcs {
			want[tc.Name] = encoded(t, NewGenerator(sigs, tbl), tc)
		}
		reversed := slices.Clone(tcs)
		slices.Reverse(reversed)
		for _, order := range [][]*testdef.TestCase{tcs, reversed} {
			g := NewGenerator(sigs, tbl)
			for _, tc := range order {
				if got := encoded(t, g, tc); got != want[tc.Name] {
					t.Errorf("%s/%s: shared Generator XML differs from a fresh one:\n%s\nwant:\n%s",
						name, tc.Name, got, want[tc.Name])
				}
			}
		}
	}
}

// TestGeneratorShares: scripts from one Generator share declarations
// and the statement of each (signal, status) pair.
func TestGeneratorShares(t *testing.T) {
	tc, sigs, tbl := paperParts(t)
	g := NewGenerator(sigs, tbl)
	a, err := g.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || &a.Decls[0] != &b.Decls[0] || &a.Init[0] != &b.Init[0] {
		t.Error("scripts of one Generator do not share declarations and init block")
	}
	for i := range a.Steps {
		for j := range a.Steps[i].Signals {
			if a.Steps[i].Signals[j] != b.Steps[i].Signals[j] {
				t.Errorf("step %d statement %d is not shared", i, j)
			}
		}
	}
	// Steps 4 and 6 both assign Ho to INT_ILL.
	ho := func(sc *Script, step int) *SignalStmt {
		for _, st := range sc.Steps[step].Signals {
			if st.Name == "int_ill" {
				return st
			}
		}
		t.Fatalf("step %d has no int_ill statement", step)
		return nil
	}
	if ho(a, 4) != ho(a, 6) {
		t.Error("one script's equal statements are not shared")
	}
	// Appending to a shared slice never reaches another script.
	a.Decls = append(a.Decls, &SignalDecl{Name: "extra"})
	a.Init = append(a.Init, &SignalStmt{Name: "extra"})
	c, err := g.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Decls) != len(b.Decls) || len(c.Init) != len(b.Init) {
		t.Errorf("append to one script's declarations reached the next: %d/%d decls, %d/%d init",
			len(c.Decls), len(b.Decls), len(c.Init), len(b.Init))
	}
}

// TestGeneratorRepeatAllocs: generating a test the Generator has seen
// allocates under half of what a fresh Generator does.
func TestGeneratorRepeatAllocs(t *testing.T) {
	tc, sigs, tbl := paperParts(t)
	g := NewGenerator(sigs, tbl)
	if _, err := g.Generate(tc); err != nil {
		t.Fatal(err)
	}
	repeat := testing.AllocsPerRun(20, func() { _, _ = g.Generate(tc) })
	fresh := testing.AllocsPerRun(20, func() { _, _ = NewGenerator(sigs, tbl).Generate(tc) })
	t.Logf("repeat %v allocs, fresh %v", repeat, fresh)
	if repeat >= fresh/2 {
		t.Errorf("repeat Generate allocates %v, fresh %v; want under half", repeat, fresh)
	}
}

// TestGeneratorErrors: a statement's failure is memoised with its
// text, and a missing init status is not memoised, so a table that
// gains the status later generates.
func TestGeneratorErrors(t *testing.T) {
	_, sigs, tbl := paperParts(t)
	// put_pwm needs a duty cycle from D1, which this row lacks.
	if err := tbl.Add(&status.Status{Name: "Pwm", Method: "put_pwm", Nom: "100"}); err != nil {
		t.Fatal(err)
	}
	tc := &testdef.TestCase{Name: "X", Signals: []string{"DS_FL"},
		Steps: []testdef.Step{{Dt: 1, Assign: []testdef.Assignment{{Signal: "DS_FL", Status: "Pwm"}}}}}
	_, want := Generate(tc, sigs, tbl)
	if want == nil || !strings.Contains(want.Error(), "no D parameter") {
		t.Fatalf("put_pwm status without duty cycle: %v", want)
	}
	g := NewGenerator(sigs, tbl)
	for range 2 {
		if _, err := g.Generate(tc); err == nil || err.Error() != want.Error() {
			t.Errorf("Generate error %v, want %v", err, want)
		}
	}

	late := sigdef.NewList()
	if err := late.Add(&sigdef.Signal{Name: "DS_FL", Direction: sigdef.In, Class: sigdef.Digital,
		Pin: "DS_FL", Init: "Later"}); err != nil {
		t.Fatal(err)
	}
	g = NewGenerator(late, tbl)
	tc.Steps[0].Assign = nil
	if _, err := g.Generate(tc); err == nil || !strings.Contains(err.Error(), "unknown initial status") {
		t.Fatalf("missing init status: %v", err)
	}
	if err := tbl.Add(&status.Status{Name: "Later", Method: "put_r", Nom: "0"}); err != nil {
		t.Fatal(err)
	}
	sc, err := g.Generate(tc)
	if err != nil || len(sc.Init) != 1 || sc.Init[0].Call.Attrs["r"] != "0" {
		t.Errorf("after the init status was added: %+v, %v", sc, err)
	}
}

// stepsOf returns a test case of n steps cycling through tc's steps.
func stepsOf(tc *testdef.TestCase, n int) *testdef.TestCase {
	out := &testdef.TestCase{Name: tc.Name, Signals: tc.Signals, Steps: make([]testdef.Step, n)}
	for i := range out.Steps {
		out.Steps[i] = tc.Steps[i%len(tc.Steps)]
		out.Steps[i].Index = i
	}
	return out
}

// TestGenerateStepsDoNotAlias: a script's steps share one array and
// their statement lists another, yet appending to one step's
// statements leaves every other step, and the next script generated
// for the same test, as they were.
func TestGenerateStepsDoNotAlias(t *testing.T) {
	tc, sigs, tbl := paperParts(t)
	g := NewGenerator(sigs, tbl)
	generate := func() *Script {
		sc, err := g.Generate(tc)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	ref, want := generate(), encoded(t, g, tc)
	for i := range ref.Steps {
		sc := generate()
		sc.Steps[i].Signals = append(sc.Steps[i].Signals, &SignalStmt{Name: "extra"})
		for j, step := range sc.Steps {
			if j != i && !slices.Equal(step.Signals, ref.Steps[j].Signals) {
				t.Fatalf("append to step %d changed step %d", i, j)
			}
		}
	}
	if got := encoded(t, g, tc); got != want {
		t.Errorf("append to one script's steps reached the next script:\n%s\nwant:\n%s", got, want)
	}
}

// TestGenerateAllocsPerScript: a warmed Generator allocates per script,
// not per step: a 24-step test costs what a 4-step test does.
func TestGenerateAllocsPerScript(t *testing.T) {
	tc, sigs, tbl := paperParts(t)
	g := NewGenerator(sigs, tbl)
	short, long := stepsOf(tc, 4), stepsOf(tc, 24)
	for _, c := range []*testdef.TestCase{short, long} {
		if _, err := g.Generate(c); err != nil {
			t.Fatal(err)
		}
	}
	a := testing.AllocsPerRun(50, func() { _, _ = g.Generate(short) })
	b := testing.AllocsPerRun(50, func() { _, _ = g.Generate(long) })
	if a != b {
		t.Errorf("Generate allocates %v for 4 steps, %v for 24 steps", a, b)
	}
	t.Logf("Generate: %v allocations per script", a)
}
