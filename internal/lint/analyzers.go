package lint

import (
	"strings"

	"repro/internal/method"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/unit"
)

// The classic single-artifact analyzers, ported from the original flat
// check list. legacyAnalyzers preserves their historical execution
// order for Check.
var legacyAnalyzers = []string{
	"unused-status",
	"unstimulated-input",
	"unmeasured-output",
	"missing-init",
	"empty-column",
	"inverted-limits",
	"degenerate-limits",
	"long-test",
	"never-toggled",
}

func init() {
	Register(&Analyzer{
		Name:     "unused-status",
		Doc:      "flags statuses that no test step and no initial-status column references; dead rows in the status definition sheet usually indicate an abandoned or misspelled status",
		Severity: Warning,
		Run:      runUnusedStatus,
	})
	Register(&Analyzer{
		Name:     "unstimulated-input",
		Doc:      "flags input signals never stimulated by any test (the init block does not count); an unstimulated input is a coverage gap — requirement mutants touching it survive the suite",
		Severity: Warning,
		Run:      runUnstimulatedInput,
	})
	Register(&Analyzer{
		Name:     "unmeasured-output",
		Doc:      "flags output signals never measured by any test; behaviour on that output is entirely unchecked",
		Severity: Warning,
		Run:      runUnmeasuredOutput,
	})
	Register(&Analyzer{
		Name:     "missing-init",
		Doc:      "flags input signals without an initial status; their state before step 0 is undefined on a real stand",
		Severity: Warning,
		Run:      runMissingInit,
	})
	Register(&Analyzer{
		Name:     "empty-column",
		Doc:      "flags test sheet signal columns that assign nothing in any step; the column documents an intent the test does not implement",
		Severity: Warning,
		Run:      runEmptyColumn,
	})
	Register(&Analyzer{
		Name:     "inverted-limits",
		Doc:      "flags measurement statuses whose numeric absolute limits are inverted (min above max); every check against them fails",
		Severity: Warning,
		Run:      runInvertedLimits,
	})
	Register(&Analyzer{
		Name:     "degenerate-limits",
		Doc:      "flags measurement statuses with a zero-width tolerance band (min equals max); real measurements almost never hit an exact value",
		Severity: Warning,
		Run:      runDegenerateLimits,
	})
	Register(&Analyzer{
		Name:     "long-test",
		Doc:      "reports tests whose nominal duration exceeds ten minutes; consider splitting them for faster fault isolation",
		Severity: Info,
		Run:      runLongTest,
	})
	Register(&Analyzer{
		Name:     "never-toggled",
		Doc:      "flags inputs that are assigned but always with the same status; they never change state, so the tests cannot observe the DUT's reaction to them (the root of the paper table's only_fl gap: the rear doors are never opened)",
		Severity: Warning,
		Run:      runNeverToggled,
	})
}

func signalPos(sigs *sigdef.List, sig *sigdef.Signal) Pos {
	return Pos{Sheet: sigs.SheetName, Row: sig.Row, Col: 1, Line: sig.Line}
}

func statusPos(tbl *status.Table, st *status.Status) Pos {
	return Pos{Sheet: tbl.SheetName, Row: st.Row, Col: 1, Line: st.Line}
}

func headerPos(tc *testdef.TestCase) Pos {
	if tc.SheetName == "" {
		return Pos{}
	}
	return Pos{Sheet: tc.SheetName, Row: 1, Line: tc.HeaderLine}
}

func stepPos(tc *testdef.TestCase, step *testdef.Step, signal string) Pos {
	if tc.SheetName == "" {
		return Pos{}
	}
	return Pos{Sheet: tc.SheetName, Row: step.Row, Col: tc.ColumnOf(signal), Line: step.Line}
}

// runUnusedStatus flags statuses no test or init references.
func runUnusedStatus(p *Pass) {
	used := map[string]bool{}
	for _, sig := range p.Signals.Signals() {
		if sig.Init != "" {
			used[strings.ToLower(sig.Init)] = true
		}
	}
	for _, tc := range p.Tests {
		for _, st := range tc.UsedStatuses() {
			used[strings.ToLower(st)] = true
		}
	}
	for _, st := range p.Statuses.Statuses() {
		if !used[strings.ToLower(st.Name)] {
			p.Reportf(statusPos(p.Statuses, st),
				"status %q is defined but never used", st.Name)
		}
	}
}

// touchedSignals returns the lower-cased names of every signal any test
// step assigns.
func touchedSignals(tests []*testdef.TestCase) map[string]bool {
	touched := map[string]bool{}
	for _, tc := range tests {
		for _, step := range tc.Steps {
			for _, a := range step.Assign {
				touched[strings.ToLower(a.Signal)] = true
			}
		}
	}
	return touched
}

func runUnstimulatedInput(p *Pass) {
	touched := touchedSignals(p.Tests)
	for _, sig := range p.Signals.Inputs() {
		if !touched[strings.ToLower(sig.Name)] {
			p.Reportf(signalPos(p.Signals, sig),
				"input signal %q is never stimulated by any test", sig.Name)
		}
	}
}

func runUnmeasuredOutput(p *Pass) {
	touched := touchedSignals(p.Tests)
	for _, sig := range p.Signals.Outputs() {
		if !touched[strings.ToLower(sig.Name)] {
			p.Reportf(signalPos(p.Signals, sig),
				"output signal %q is never measured by any test", sig.Name)
		}
	}
}

func runMissingInit(p *Pass) {
	for _, sig := range p.Signals.Inputs() {
		if strings.TrimSpace(sig.Init) == "" {
			p.Reportf(signalPos(p.Signals, sig),
				"input signal %q has no initial status", sig.Name)
		}
	}
}

func runEmptyColumn(p *Pass) {
	for _, tc := range p.Tests {
		for _, sig := range tc.Signals {
			found := false
			for _, step := range tc.Steps {
				if _, ok := step.Lookup(sig); ok {
					found = true
					break
				}
			}
			if !found {
				pos := headerPos(tc)
				pos.Col = tc.ColumnOf(sig)
				p.Reportf(pos, "test %q lists signal %q but never assigns it", tc.Name, sig)
			}
		}
	}
}

// numericLimits returns the parsed absolute limits of a measurement
// status, or ok=false when the status is no plain-numeric range check
// (bits payloads and expression limits are handled elsewhere).
func numericLimits(st *status.Status) (lo, hi float64, ok bool) {
	if !st.Desc.IsMeasure() || st.Desc.Attr(st.Desc.RangeAttr) != nil &&
		st.Desc.Attr(st.Desc.RangeAttr).Kind == method.Bits {
		return 0, 0, false
	}
	lo, ok1 := unit.Number(st.Min)
	hi, ok2 := unit.Number(st.Max)
	if !ok1 || !ok2 {
		return 0, 0, false // expressions: see unsatisfiable-limits
	}
	return lo, hi, true
}

func runInvertedLimits(p *Pass) {
	for _, st := range p.Statuses.Statuses() {
		if lo, hi, ok := numericLimits(st); ok && lo > hi {
			p.Reportf(statusPos(p.Statuses, st),
				"status %q has min %v above max %v", st.Name, lo, hi)
		}
	}
}

func runDegenerateLimits(p *Pass) {
	for _, st := range p.Statuses.Statuses() {
		if lo, hi, ok := numericLimits(st); ok && lo == hi {
			p.Reportf(statusPos(p.Statuses, st),
				"status %q has a zero-width tolerance band at %v", st.Name, lo)
		}
	}
}

func runLongTest(p *Pass) {
	for _, tc := range p.Tests {
		if d := tc.Duration(); d > 600 {
			p.Reportf(headerPos(tc),
				"test %q runs %.0f s nominal; consider splitting", tc.Name, d)
		}
	}
}

func runNeverToggled(p *Pass) {
	values := map[string]map[string]bool{}
	for _, tc := range p.Tests {
		for _, step := range tc.Steps {
			for _, a := range step.Assign {
				key := strings.ToLower(a.Signal)
				if values[key] == nil {
					values[key] = map[string]bool{}
				}
				values[key][strings.ToLower(a.Status)] = true
			}
		}
	}
	for _, sig := range p.Signals.Inputs() {
		vs := values[strings.ToLower(sig.Name)]
		if len(vs) != 1 {
			continue
		}
		only := ""
		for v := range vs {
			only = v
		}
		// Re-assigning exactly the initial status means the input never
		// leaves its resting state at all.
		note := ""
		if strings.EqualFold(only, sig.Init) {
			note = " (and it equals the initial status)"
		}
		p.Reportf(signalPos(p.Signals, sig),
			"input signal %q is only ever assigned status %q%s", sig.Name, only, note)
	}
}
