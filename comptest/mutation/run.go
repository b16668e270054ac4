package mutation

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/comptest"
	"repro/internal/lint"
	"repro/internal/report"
	"repro/internal/script"
)

// Outcome is the kill-matrix verdict on one mutant.
type Outcome struct {
	Mutant *Mutant
	// Killed reports whether at least one run of the mutant's script
	// set failed — the suite's verdict deviated from the baseline.
	Killed bool
	// Witness is the first failing check of the first failing run,
	// empty for survivors.
	Witness string
	// Runs and Failed count the executions behind the verdict.
	Runs   int
	Failed int
	// Err is set when an execution could not even be built; the
	// verdict is then meaningless and excluded from scores.
	Err error
}

// Matrix is the completed kill matrix for one plan.
type Matrix struct {
	DUT      string
	Stand    string
	Plan     *Plan
	Outcomes []Outcome
}

// Options configures a mutation campaign run.
type Options struct {
	// Parallelism bounds the campaign worker pool (default 1).
	Parallelism int
	// Sink, when non-nil, additionally receives every unit result —
	// baseline runs and mutant runs alike — in completion order. Wrap it
	// in comptest.Ordered to receive the executed units in Seq order
	// instead: the executed set is fixed by each mutant's own results,
	// so that stream is identical at every parallelism. The campaign
	// service streams live NDJSON this way.
	Sink comptest.Sink
	// KillStats, when non-nil, orders each mutant's scripts by their
	// demonstrated kill count from a previous run (lint.ReadKillMatrixFile
	// on a saved strength report — the `.kills.json` sidecar), so early
	// kill decides most mutants on their first run. Ties keep workbook
	// order. The ordering is fixed before execution starts, so verdicts
	// and witnesses are identical with and without RunToCompletion.
	KillStats *lint.KillMatrix
	// RunToCompletion disables the two short-circuits — early kill
	// within a run (stop at the first deviating step) and stop-at-first-
	// kill within a mutant's script set. Verdicts, witnesses and scores
	// are identical either way (the baseline is enforced green, so the
	// first deviation decides); the flag exists for the equivalence
	// tests and for producing complete failure listings.
	RunToCompletion bool
}

// Run executes the plan's full kill matrix: the clean baseline plus
// every mutant's script set. Each mutant is one campaign group —
// its runs execute in order on one worker and, unless RunToCompletion
// is set, stop at the first kill — and the groups fan out over the
// bounded worker pool, so mutants of different cost interleave freely.
// It fails if the baseline does not pass — a red baseline makes every
// kill meaningless. Units carry the compiled scripts Enumerate stored
// in the plan, so rerunning a plan compiles nothing.
func Run(ctx context.Context, plan *Plan, opts Options) (*Matrix, error) {
	par := opts.Parallelism
	if par < 1 {
		par = 1
	}
	earlyKill := !opts.RunToCompletion

	// Unit i belongs to mutant owner[i]; -1 marks a baseline unit.
	var groups []comptest.Group
	var owner []int
	for _, sc := range plan.Baseline {
		groups = append(groups, comptest.Group{Units: []comptest.Unit{
			{Script: sc, Compiled: plan.compiled[sc], Stand: plan.Stand, DUT: plan.DUT}}})
		owner = append(owner, -1)
	}
	killed := func(res comptest.Result) bool {
		return res.Err == nil && !res.Report.Passed()
	}
	for mi := range plan.Mutants {
		m := &plan.Mutants[mi]
		units := make([]comptest.Unit, 0, len(m.scripts))
		for _, sc := range orderScripts(m.scripts, opts.KillStats) {
			u := comptest.Unit{Script: sc, Compiled: plan.compiled[sc],
				Stand: plan.Stand, DUT: plan.DUT, StopOnFail: earlyKill}
			if m.Kind == FaultMutant {
				u.Faults = []string{m.Fault.Name}
			}
			units = append(units, u)
			owner = append(owner, mi)
		}
		g := comptest.Group{Units: units}
		if earlyKill {
			g.Stop = killed
		}
		groups = append(groups, g)
	}

	collector := &comptest.Collector{}
	ropts := []comptest.Option{
		comptest.WithStand(plan.Stand),
		comptest.WithParallelism(par),
		comptest.WithSink(collector),
	}
	if opts.Sink != nil {
		ropts = append(ropts, comptest.WithSink(opts.Sink))
	}
	r, err := comptest.NewRunner(ropts...)
	if err != nil {
		return nil, err
	}
	if _, err := r.CampaignGroups(ctx, groups); err != nil {
		return nil, err
	}

	results := collector.Results()
	sort.Slice(results, func(i, j int) bool { return results[i].Seq < results[j].Seq })

	mat := &Matrix{DUT: plan.DUT, Stand: plan.Stand, Plan: plan,
		Outcomes: make([]Outcome, len(plan.Mutants))}
	for i := range mat.Outcomes {
		mat.Outcomes[i].Mutant = &plan.Mutants[i]
	}
	for _, res := range results {
		mi := owner[res.Seq]
		if mi < 0 { // baseline
			switch {
			case res.Err != nil:
				return nil, fmt.Errorf("mutation: baseline %s on %s: %v",
					res.Unit.Script.Name, plan.Stand, res.Err)
			case !res.Report.Passed():
				return nil, fmt.Errorf("mutation: baseline must pass, but %s",
					res.Report.Summary())
			}
			continue
		}
		o := &mat.Outcomes[mi]
		if res.Err != nil {
			if o.Err == nil {
				o.Err = res.Err
			}
			continue
		}
		o.Runs++
		if !res.Report.Passed() {
			o.Failed++
			if !o.Killed {
				o.Killed = true
				o.Witness = witness(res)
			}
		}
	}
	return mat, nil
}

// orderScripts returns the mutant's scripts most-lethal-first according
// to the kill statistics, or unchanged without statistics. The input is
// shared across mutants and never modified.
func orderScripts(scripts []*script.Script, stats *lint.KillMatrix) []*script.Script {
	if stats == nil || len(scripts) < 2 {
		return scripts
	}
	out := make([]*script.Script, len(scripts))
	copy(out, scripts)
	sort.SliceStable(out, func(i, j int) bool {
		return stats.ScriptKills(out[i].Name) > stats.ScriptKills(out[j].Name)
	})
	return out
}

// witness renders the first failing check of a failing run.
func witness(res comptest.Result) string {
	rep := res.Report
	for i := range rep.Steps {
		step := &rep.Steps[i]
		for j := range step.Checks {
			if c := &step.Checks[j]; c.Verdict == report.Fail || c.Verdict == report.Error {
				return checkWitness(rep.Script, step.Nr, c)
			}
		}
	}
	if rep.FatalErr != "" {
		return rep.Script + " aborted: " + rep.FatalErr
	}
	return rep.Summary()
}

// checkWitness renders one failing check, "<script> step <n>: <signal>
// <method> expected <e>, measured <m>", followed by " (<detail>)" when
// the check has a detail, in a single allocation.
func checkWitness(scriptName string, nr int, c *report.Check) string {
	var num [20]byte
	step := strconv.AppendInt(num[:0], int64(nr), 10)
	n := len(scriptName) + len(" step : ") + len(step) + len(c.Signal) + len(" ") + len(c.Method) +
		len(" expected , measured ") + len(c.Expected) + len(c.Measured)
	if c.Detail != "" {
		n += len(" ()") + len(c.Detail)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(scriptName)
	b.WriteString(" step ")
	b.Write(step)
	b.WriteString(": ")
	b.WriteString(c.Signal)
	b.WriteByte(' ')
	b.WriteString(c.Method)
	b.WriteString(" expected ")
	b.WriteString(c.Expected)
	b.WriteString(", measured ")
	b.WriteString(c.Measured)
	if c.Detail != "" {
		b.WriteString(" (")
		b.WriteString(c.Detail)
		b.WriteByte(')')
	}
	return b.String()
}

// Score tallies the conclusive outcomes (mutants whose execution could
// not be built are excluded).
func (m *Matrix) Score() report.Score {
	var s report.Score
	for _, o := range m.Outcomes {
		if o.Err == nil {
			s.Add(o.Killed)
		}
	}
	return s
}

// Errored returns the outcomes whose execution could not be built —
// mutants without a verdict, excluded from Score and Strength. Callers
// presenting the matrix should surface these rather than let the score
// silently overstate coverage.
func (m *Matrix) Errored() []Outcome {
	var out []Outcome
	for _, o := range m.Outcomes {
		if o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// Survivors returns the conclusive outcomes the suite failed to kill.
func (m *Matrix) Survivors() []Outcome {
	var out []Outcome
	for _, o := range m.Outcomes {
		if o.Err == nil && !o.Killed {
			out = append(out, o)
		}
	}
	return out
}

// Strength converts the matrix into the report-layer strength record,
// explaining every survivor with the lint coverage findings that match
// its signals. Pass the suite's lint findings (lint.Check); nil is
// accepted and simply yields no explanations.
func (m *Matrix) Strength(findings []lint.Finding) report.DUTStrength {
	gaps := lint.CoverageGaps(findings)
	d := report.DUTStrength{DUT: m.DUT, Stand: m.Stand}
	for _, o := range m.Outcomes {
		if o.Err != nil {
			continue
		}
		mo := report.MutantOutcome{
			ID:          o.Mutant.ID,
			Kind:        o.Mutant.Kind.String(),
			Requirement: o.Mutant.Fault.Requirement,
			Detail:      o.Mutant.Detail,
			Killed:      o.Killed,
			Witness:     o.Witness,
		}
		if !o.Killed {
			for _, f := range gaps {
				for _, sig := range o.Mutant.Signals {
					if f.Mentions(sig) {
						mo.Explanations = append(mo.Explanations, f.String())
						break
					}
				}
			}
		}
		d.Mutants = append(d.Mutants, mo)
	}
	return d
}
