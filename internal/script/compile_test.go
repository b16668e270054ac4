package script

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/unit"
)

// TestCompilePartitionsSteps: for every step of every built-in script,
// Stimuli and Measures hold exactly the step's stimulus and measure
// statements in statement order (nil when there are none), ExtraWait
// sums its control waits, and each partition is capped at its length,
// so appending to one cannot overwrite the next in the shared array.
// Init resolves the init block alike, and every statement is resolved
// (checkResolved).
func TestCompilePartitionsSteps(t *testing.T) {
	reg := method.Builtin()
	for name, src := range builtinWorkbooks {
		tcs, sigs, tbl := workbookParts(t, src)
		g := NewGenerator(sigs, tbl)
		for _, tc := range tcs {
			sc, err := g.Generate(tc)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(sc, reg)
			if err != nil {
				t.Fatal(err)
			}
			if got := signalStmts(c.Init); !slices.Equal(got, sc.Init) || cap(c.Init) != len(c.Init) {
				t.Errorf("%s/%s: init %v (capacity %d), want %v", name, tc.Name, got, cap(c.Init), sc.Init)
			}
			checkResolved(t, sc, reg, c.Init)
			for i, step := range sc.Steps {
				var stim, meas []*SignalStmt
				wait := 0.0
				for _, st := range step.Signals {
					d, _ := reg.Lookup(st.Call.Method)
					switch d.Kind {
					case method.Stimulus:
						stim = append(stim, st)
					case method.Measure:
						meas = append(meas, st)
					case method.Control:
						if v, ok := st.Call.Attr("t"); ok {
							if f, ok := unit.Number(v); ok {
								wait += f
							}
						}
					}
				}
				cs := c.Steps[i]
				if cs.Step != step || cs.ExtraWait != wait {
					t.Errorf("%s/%s step %d: step or wait %v differs, want %v", name, tc.Name, i, cs.ExtraWait, wait)
				}
				for _, p := range []struct {
					label string
					got   []Stmt
					want  []*SignalStmt
				}{{"stimuli", cs.Stimuli, stim}, {"measures", cs.Measures, meas}} {
					if got := signalStmts(p.got); !slices.Equal(got, p.want) || (p.got == nil) != (p.want == nil) {
						t.Errorf("%s/%s step %d: %s %v, want %v", name, tc.Name, i, p.label, got, p.want)
					}
					if cap(p.got) != len(p.got) {
						t.Errorf("%s/%s step %d: %s capacity %d exceeds length %d",
							name, tc.Name, i, p.label, cap(p.got), len(p.got))
					}
					checkResolved(t, sc, reg, p.got)
				}
			}
		}
	}
}

// signalStmts returns the statements stmts resolve.
func signalStmts(stmts []Stmt) []*SignalStmt {
	var out []*SignalStmt
	for _, st := range stmts {
		out = append(out, st.SignalStmt)
	}
	return out
}

// checkResolved: each statement carries its lower-case key, its
// declaration, its method and its Content, capped at its length.
func checkResolved(t *testing.T, sc *Script, reg *method.Registry, stmts []Stmt) {
	t.Helper()
	for _, st := range stmts {
		d, _ := reg.Lookup(st.Call.Method)
		decl := sc.Decl(st.Name)
		switch {
		case st.Key != strings.ToLower(st.Name), st.Decl != decl, st.Method != d:
			t.Errorf("%s: %s resolved to key %q, %p, %p; want %q, %p, %p",
				sc.Name, st.Name, st.Key, st.Decl, st.Method, strings.ToLower(st.Name), decl, d)
		case !bytes.Equal(st.Content, AppendContent(nil, st.SignalStmt, decl)):
			t.Errorf("%s: %s content %q, want %q", sc.Name, st.Name, st.Content, AppendContent(nil, st.SignalStmt, decl))
		case cap(st.Content) != len(st.Content):
			t.Errorf("%s: %s content capacity %d exceeds length %d", sc.Name, st.Name, cap(st.Content), len(st.Content))
		}
	}
}

// TestCompileAllocsPerScript: Compile costs the same allocations at 4
// steps as at 24. The statements land in one array and their contents
// in one exactly sized slab, with no growing buffer.
func TestCompileAllocsPerScript(t *testing.T) {
	reg := method.Builtin()
	tcs, sigs, tbl := workbookParts(t, paper.Workbook)
	sc, err := Generate(tcs[0], sigs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		long := *sc
		long.Steps = make([]*Step, n)
		for i := range long.Steps {
			step := *sc.Steps[i%len(sc.Steps)]
			step.Nr = i
			long.Steps[i] = &step
		}
		if _, err := Compile(&long, reg); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { Compile(&long, reg) })
	}
	if short, long := allocs(4), allocs(24); short != long {
		t.Errorf("Compile allocates %v times at 4 steps, %v at 24; want equal", short, long)
	}
}
