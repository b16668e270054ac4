package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/method"
	"repro/internal/stand"
	"repro/internal/status"
	"repro/internal/unit"
)

// The cross-artifact analyzers: checks the flat model could not
// express, joining the status table with the expression evaluator, the
// stand configuration and the saved mutation kill matrix.

func init() {
	Register(&Analyzer{
		Name:     "unsatisfiable-limits",
		Doc:      "evaluates expression-valued measurement limits (e.g. \"(0.7*ubatt)\") against the stand profiles' supply voltages and flags statuses whose limit band is inverted under every profile; such checks can never pass anywhere",
		Severity: Error,
		Run:      runUnsatisfiableLimits,
	})
	Register(&Analyzer{
		Name:     "unreachable-check",
		Doc:      "flags test steps that assign a measurement status whose limits are unsatisfiable (inverted numerically or under every stand profile); the check is guaranteed to fail and the step after it is never reached meaningfully",
		Severity: Error,
		Run:      runUnreachableCheck,
	})
	Register(&Analyzer{
		Name:     "dead-step",
		Doc:      "flags steps whose assignments only re-apply stimuli that are already in effect and measure nothing; the step consumes test time without changing or observing anything",
		Severity: Warning,
		Run:      runDeadStep,
	})
	Register(&Analyzer{
		Name:     "duplicate-scenario",
		Doc:      "flags test sheets whose step sequence (durations and assignments) is identical to an earlier test's; duplicated scenarios double campaign time without adding coverage",
		Severity: Warning,
		Run:      runDuplicateScenario,
	})
	Register(&Analyzer{
		Name:     "settle-conflict",
		Doc:      "flags steps that stimulate and measure in the same step with a duration below the stand settle time; the measurement races the signal still settling",
		Severity: Warning,
		Run:      runSettleConflict,
	})
	Register(&Analyzer{
		Name:     "weak-check",
		Doc:      "joins a saved mutation kill matrix and flags measured checks on signals that never witnessed a mutant kill; the check runs but has demonstrated no fault-detection power",
		Severity: Info,
		Run:      runWeakCheck,
	})
}

// unsatisfiable reports, per environment, whether the status' evaluated
// limit band is inverted. Plain numeric limits are environment-free and
// covered by inverted-limits; this analyzer only considers statuses
// with at least one expression limit (a Var factor or a non-numeric
// Min/Max cell).
func unsatisfiableUnder(st *status.Status) (bad []string) {
	if !st.Desc.IsMeasure() {
		return nil
	}
	if a := st.Desc.Attr(st.Desc.RangeAttr); a != nil && a.Kind == method.Bits {
		return nil
	}
	_, ok1 := unit.Number(st.Min)
	_, ok2 := unit.Number(st.Max)
	if strings.TrimSpace(st.Var) == "" && ok1 && ok2 {
		return nil // plain numeric: inverted-limits territory
	}
	for _, e := range limitEnvs {
		lo, hi, err := st.EvalLimits(e.env)
		if err != nil {
			continue // malformed cells are hard validation errors
		}
		if lo > hi {
			bad = append(bad, fmt.Sprintf("%s (min %v, max %v)", e.name, lo, hi))
		}
	}
	return bad
}

func runUnsatisfiableLimits(p *Pass) {
	for _, st := range p.Statuses.Statuses() {
		bad := unsatisfiableUnder(st)
		if len(bad) == 0 {
			continue
		}
		scope := "under " + strings.Join(bad, ", ")
		if len(bad) == len(limitEnvs) {
			scope = "under every profile: " + strings.Join(bad, ", ")
		}
		p.Reportf(statusPos(p.Statuses, st),
			"status %q has an inverted limit band %s", st.Name, scope)
	}
}

// unsatisfiableStatuses returns the lower-cased names of measurement
// statuses that can never pass: numeric limits inverted, or expression
// limits inverted under every environment.
func unsatisfiableStatuses(p *Pass) map[string]bool {
	out := map[string]bool{}
	for _, st := range p.Statuses.Statuses() {
		if lo, hi, ok := numericLimits(st); ok {
			if lo > hi {
				out[strings.ToLower(st.Name)] = true
			}
			continue
		}
		if bad := unsatisfiableUnder(st); len(bad) > 0 && len(bad) == len(limitEnvs) {
			out[strings.ToLower(st.Name)] = true
		}
	}
	return out
}

func runUnreachableCheck(p *Pass) {
	unsat := unsatisfiableStatuses(p)
	if len(unsat) == 0 {
		return
	}
	for _, tc := range p.Tests {
		for i := range tc.Steps {
			step := &tc.Steps[i]
			for _, a := range step.Assign {
				if !unsat[strings.ToLower(a.Status)] {
					continue
				}
				p.Reportf(stepPos(tc, step, a.Signal),
					"check %q on signal %q in test %q step %d can never pass: its limits are unsatisfiable",
					a.Status, a.Signal, tc.Name, step.Index)
			}
		}
	}
}

// isMeasure reports whether assigning the named status performs a
// measurement (as opposed to a stimulus or control action).
func isMeasure(tbl *status.Table, statusName string) bool {
	st, ok := tbl.Lookup(statusName)
	return ok && st.Desc.IsMeasure()
}

func runDeadStep(p *Pass) {
	for _, tc := range p.Tests {
		// state tracks the status currently applied to each stimulated
		// signal, seeded from the init column.
		state := map[string]string{}
		for _, sig := range p.Signals.Signals() {
			if strings.TrimSpace(sig.Init) != "" {
				state[strings.ToLower(sig.Name)] = strings.ToLower(sig.Init)
			}
		}
		for i := range tc.Steps {
			step := &tc.Steps[i]
			if len(step.Assign) == 0 {
				continue // a bare wait step is deliberate
			}
			dead := true
			for _, a := range step.Assign {
				if isMeasure(p.Statuses, a.Status) {
					dead = false
					continue
				}
				key := strings.ToLower(a.Signal)
				if state[key] != strings.ToLower(a.Status) {
					dead = false
				}
				state[key] = strings.ToLower(a.Status)
			}
			if dead {
				p.Reportf(stepPos(tc, step, step.Assign[0].Signal),
					"test %q step %d only re-applies stimuli already in effect and measures nothing",
					tc.Name, step.Index)
			}
		}
	}
}

func runDuplicateScenario(p *Pass) {
	seen := map[string]string{} // fingerprint -> first test name
	for _, tc := range p.Tests {
		var b strings.Builder
		for _, step := range tc.Steps {
			fmt.Fprintf(&b, "%v|", step.Dt)
			assigns := make([]string, 0, len(step.Assign))
			for _, a := range step.Assign {
				assigns = append(assigns, strings.ToLower(a.Signal)+"="+strings.ToLower(a.Status))
			}
			sort.Strings(assigns)
			b.WriteString(strings.Join(assigns, ","))
			b.WriteString("\n")
		}
		fp := b.String()
		if first, dup := seen[fp]; dup {
			p.Reportf(headerPos(tc),
				"test %q duplicates the step sequence of test %q", tc.Name, first)
			continue
		}
		seen[fp] = tc.Name
	}
}

func runSettleConflict(p *Pass) {
	settle := stand.SettleTime.Seconds()
	for _, tc := range p.Tests {
		for i := range tc.Steps {
			step := &tc.Steps[i]
			if step.Dt >= settle {
				continue
			}
			stimulates, measures := false, ""
			for _, a := range step.Assign {
				if isMeasure(p.Statuses, a.Status) {
					if measures == "" {
						measures = a.Signal
					}
				} else {
					stimulates = true
				}
			}
			if stimulates && measures != "" {
				p.Reportf(stepPos(tc, step, measures),
					"test %q step %d stimulates and measures %q within %v s, below the stand settle time of %v s",
					tc.Name, step.Index, measures, step.Dt, settle)
			}
		}
	}
}

func runWeakCheck(p *Pass) {
	if p.Kills == nil {
		return
	}
	for _, tc := range p.Tests {
		reported := map[string]bool{} // one finding per (test, signal)
		for i := range tc.Steps {
			step := &tc.Steps[i]
			for _, a := range step.Assign {
				if !isMeasure(p.Statuses, a.Status) {
					continue
				}
				key := strings.ToLower(a.Signal)
				if reported[key] || p.Kills.KilledSignal(a.Signal) {
					continue
				}
				reported[key] = true
				p.Reportf(stepPos(tc, step, a.Signal),
					"measured check on signal %q in test %q (first at step %d) never witnessed a mutant kill in the saved matrix (%s)",
					a.Signal, tc.Name, step.Index, p.Kills.Summary())
			}
		}
	}
}
