package script

import (
	"slices"
	"testing"

	"repro/internal/method"
	"repro/internal/unit"
)

// TestCompilePartitionsSteps: for every step of every built-in script,
// Stimuli and Measures hold exactly the step's stimulus and measure
// statements in statement order (nil when there are none), ExtraWait
// sums its control waits, and each partition is capped at its length,
// so appending to one cannot overwrite the next in the shared array.
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
					label     string
					got, want []*SignalStmt
				}{{"stimuli", cs.Stimuli, stim}, {"measures", cs.Measures, meas}} {
					if !slices.Equal(p.got, p.want) || (p.got == nil) != (p.want == nil) {
						t.Errorf("%s/%s step %d: %s %v, want %v", name, tc.Name, i, p.label, p.got, p.want)
					}
					if cap(p.got) != len(p.got) {
						t.Errorf("%s/%s step %d: %s capacity %d exceeds length %d",
							name, tc.Name, i, p.label, cap(p.got), len(p.got))
					}
				}
			}
		}
	}
}
