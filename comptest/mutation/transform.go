package mutation

import (
	"fmt"
	"math"
	"strings"

	"repro/comptest"
	"repro/internal/script"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/unit"
)

// Script-level mutant generation: systematic transformations of the
// workbook artefacts, each modelling a plausible authoring error. Every
// transformation clones the artefact it touches — the suite itself is
// never modified — and regenerates only the scripts the change affects.

// generate builds the script of a transformed test case against the
// suite's own sheets.
type generate func(*testdef.TestCase) (*script.Script, error)

// scriptMutants derives all workbook-level mutants of the suite. Drop
// and flip mutants keep the suite's sheets, so gen (Enumerate passes
// the suite's one script.Generator) lets their scripts share its
// statements; widen mutants change a status and generate against their
// own table.
func scriptMutants(suite *comptest.Suite, gen generate) ([]Mutant, error) {
	out, err := widenMutants(suite)
	if err != nil {
		return nil, err
	}
	for _, mutants := range []func(*comptest.Suite, generate) ([]Mutant, error){
		dropStepMutants, flipStimulusMutants,
	} {
		ms, err := mutants(suite, gen)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// widenMutants widens the tolerance band of every numeric measurement
// status by its own width on each side. A widened check can only pass
// more often, so these mutants survive exactly when the suite never
// drives the measured signal into the widened band — revealing how much
// slack each limit carries.
func widenMutants(suite *comptest.Suite) ([]Mutant, error) {
	var out []Mutant
	for _, st := range suite.Statuses.Statuses() {
		if !st.Desc.IsMeasure() {
			continue
		}
		lo, ok1 := unit.Number(st.Min)
		hi, ok2 := unit.Number(st.Max)
		if !ok1 || !ok2 || hi <= lo {
			continue // expression, infinite or degenerate limits
		}
		using, signals := testsUsingStatus(suite, st.Name)
		if len(using) == 0 {
			continue
		}
		width := hi - lo
		// Rounding keeps binary float noise (0.7-0.4 = 0.2999…98) out of
		// the regenerated sheet cells.
		round := func(f float64) string { return unit.FormatNumber(math.Round(f*1e9) / 1e9) }
		newMin, newMax := round(lo-width), round(hi+width)
		tbl, err := tableWithLimits(suite, st.Name, newMin, newMax)
		if err != nil {
			return nil, err
		}
		scripts, err := script.GenerateAll(using, suite.Signals, tbl)
		if err != nil {
			return nil, err
		}
		out = append(out, Mutant{
			ID:   "script/widen/" + st.Name,
			Kind: ScriptMutant,
			Op:   "widen_limit",
			Detail: fmt.Sprintf("limits of status %q widened from [%s, %s] to [%s, %s]",
				st.Name, st.Min, st.Max, newMin, newMax),
			Signals: signals,
			scripts: scripts,
		})
	}
	return out, nil
}

// dropStepMutants removes one step at a time from every test case with
// more than one step. A surviving drop mutant marks a step the suite's
// verdict does not depend on.
func dropStepMutants(suite *comptest.Suite, gen generate) ([]Mutant, error) {
	var out []Mutant
	for _, tc := range suite.Tests {
		if len(tc.Steps) < 2 {
			continue
		}
		for i := range tc.Steps {
			clone := cloneTest(tc)
			dropped := clone.Steps[i]
			clone.Steps = append(clone.Steps[:i:i], clone.Steps[i+1:]...)
			sc, err := gen(clone)
			if err != nil {
				return nil, err
			}
			signals := make([]string, 0, len(dropped.Assign))
			for _, a := range dropped.Assign {
				signals = append(signals, a.Signal)
			}
			out = append(out, Mutant{
				ID:      fmt.Sprintf("script/%s/drop/step%d", tc.Name, dropped.Index),
				Kind:    ScriptMutant,
				Op:      "drop_step",
				Test:    tc.Name,
				Detail:  fmt.Sprintf("test %s: step %d dropped", tc.Name, dropped.Index),
				Signals: signals,
				scripts: []*script.Script{sc},
			})
		}
	}
	return out, nil
}

// flipStimulusMutants replaces one stimulus assignment at a time with
// the first other status of the table that is legal for the signal (same
// method, and for CAN payloads one that fits the signal's bit length).
// A surviving flip mutant marks a stimulus the suite never observes the
// DUT reacting to.
func flipStimulusMutants(suite *comptest.Suite, gen generate) ([]Mutant, error) {
	var out []Mutant
	for _, tc := range suite.Tests {
		for si := range tc.Steps {
			for ai, a := range tc.Steps[si].Assign {
				sig, ok := suite.Signals.Lookup(a.Signal)
				if !ok || sig.Direction != sigdef.In {
					continue
				}
				alt := flipTarget(suite.Statuses, sig, a.Status)
				if alt == "" {
					continue
				}
				clone := cloneTest(tc)
				clone.Steps[si].Assign[ai].Status = alt
				sc, err := gen(clone)
				if err != nil {
					return nil, err
				}
				out = append(out, Mutant{
					ID: fmt.Sprintf("script/%s/flip/step%d/%s",
						tc.Name, tc.Steps[si].Index, a.Signal),
					Kind: ScriptMutant,
					Op:   "flip_stimulus",
					Test: tc.Name,
					Detail: fmt.Sprintf("test %s step %d: %s status %s flipped to %s",
						tc.Name, tc.Steps[si].Index, a.Signal, a.Status, alt),
					Signals: []string{a.Signal},
					scripts: []*script.Script{sc},
				})
			}
		}
	}
	return out, nil
}

// flipTarget picks the replacement status for a flipped stimulus: the
// first status (in table order) that differs from the current one, uses
// the same method, is a legal assignment for the signal, and — for bit
// payloads — fits the signal's length. Empty when no alternative exists.
func flipTarget(tbl *status.Table, sig *sigdef.Signal, current string) string {
	cur, ok := tbl.Lookup(current)
	if !ok {
		return ""
	}
	for _, name := range tbl.Names() {
		if strings.EqualFold(name, current) {
			continue
		}
		alt, _ := tbl.Lookup(name)
		if alt.Method != cur.Method {
			continue
		}
		if sigdef.CheckAssignment(sig, name, tbl) != nil {
			continue
		}
		if _, width, err := alt.BitsValue(); err == nil && sig.Length > 0 && width > sig.Length {
			continue
		}
		return name
	}
	return ""
}

// testsUsingStatus returns the test cases that assign the status and the
// distinct signals they assign it to.
func testsUsingStatus(suite *comptest.Suite, name string) ([]*testdef.TestCase, []string) {
	var using []*testdef.TestCase
	seen := map[string]bool{}
	var signals []string
	for _, tc := range suite.Tests {
		found := false
		for _, step := range tc.Steps {
			for _, a := range step.Assign {
				if !strings.EqualFold(a.Status, name) {
					continue
				}
				found = true
				if key := strings.ToLower(a.Signal); !seen[key] {
					seen[key] = true
					signals = append(signals, a.Signal)
				}
			}
		}
		if found {
			using = append(using, tc)
		}
	}
	return using, signals
}

// tableWithLimits clones the status table with one status's min/max
// replaced, re-validating every row against the suite's registry.
func tableWithLimits(suite *comptest.Suite, name, newMin, newMax string) (*status.Table, error) {
	tbl := status.NewTable(suite.Registry)
	for _, st := range suite.Statuses.Statuses() {
		c := *st
		if strings.EqualFold(c.Name, name) {
			c.Min, c.Max = newMin, newMax
		}
		if err := tbl.Add(&c); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// cloneTest deep-copies a test case so a transformation cannot leak into
// the suite.
func cloneTest(tc *testdef.TestCase) *testdef.TestCase {
	c := &testdef.TestCase{
		Name:    tc.Name,
		Signals: append([]string(nil), tc.Signals...),
		Steps:   make([]testdef.Step, len(tc.Steps)),
	}
	for i, s := range tc.Steps {
		s.Assign = append([]testdef.Assignment(nil), s.Assign...)
		c.Steps[i] = s
	}
	return c
}
