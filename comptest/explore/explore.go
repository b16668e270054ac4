// Package explore implements coverage-guided scenario exploration: it
// imagines the test scenarios the written requirements never did.
//
// The paper's core complaint — "the written requirements for the
// components are normally incomplete" — was made quantitative by the
// mutation subsystem (EXPERIMENTS.md C2): the requirement-derived
// suites leave mutants like the interior light's only_fl and the
// window lifter's no_thermal alive. This package closes the loop:
//
//	Generator ──► candidate walks ──► Campaign (traced) ──► Coverage
//	     ▲                                                     │
//	     └── lint gap bias                    novel? oracle kill?
//	                                                           │
//	              Promote ◄── Shrinker ◄── Corpus ◄────────────┘
//
// A seeded Generator synthesises stimulus-only scripts by random walks
// over the DUT's input space; batches execute as one comptest.Campaign
// over the bounded worker pool, each unit traced through the
// stand.Observer hook. A behavioural Coverage model (stimuli applied,
// output levels, transitions, duty buckets, checks pinned) decides
// novelty; novel candidates are shrunk (steps dropped, holds
// shortened, stimuli removed) while preserving their new coverage, and
// promoted: the observed clean behaviour is pinned as measurement
// assignments, turning the walk into a testdef.TestCase + status.Table
// rows — a first-class workbook test that passes on the clean DUT by
// construction and kills every mutant that behaves differently.
//
// Optionally the fitness loop uses comptest/mutation as an oracle:
// candidates are additionally scored against a list of fault mutants
// (typically the survivors of the existing suite, see SurvivingFaults),
// and a candidate that kills one is retained even when its coverage is
// not novel. EXPERIMENTS.md C3 records the acceptance result: with a
// fixed seed and bounded budget, exploration discovers and shrinks
// scenarios that kill both only_fl and no_thermal.
//
// All randomness flows through one injected *rand.Rand: a fixed seed
// reproduces the corpus byte for byte, regardless of parallelism.
//
//lint:deterministic
package explore

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/comptest"
	"repro/comptest/mutation"
	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
	"repro/internal/status"
	"repro/internal/testdef"
)

// Options configures an exploration run. The zero value of every field
// selects a sensible default; DUT is the only required field.
type Options struct {
	// DUT is the registered model under exploration (required).
	DUT string
	// Stand is the stand profile every execution uses; empty selects
	// mutation.DefaultStand — the profile the DUT's suite is known to
	// pass on.
	Stand string
	// Seed seeds the generator; identical seeds reproduce identical
	// corpora.
	Seed int64
	// Budget is the number of candidate walks to generate and execute
	// (default 32). Shrinking and oracle runs are extra executions on
	// top, bounded per entry by ShrinkBudget.
	Budget int
	// Parallelism bounds the campaign worker pool (default 1).
	Parallelism int
	// Oracle lists fault names of the DUT used as kill oracles: every
	// candidate's promoted script is run against each, and killing one
	// retains the candidate regardless of coverage novelty.
	Oracle []string
	// MinSteps/MaxSteps bound the walk length (defaults 4 and 24).
	MinSteps, MaxSteps int
	// Durations is the hold-duration pool in seconds (default
	// 0.5/1/2/3/5 — spanning the sub-second reactions and multi-second
	// timing constants of the built-in models).
	Durations []float64
	// ShrinkBudget caps the stand executions spent shrinking one corpus
	// entry (default 48, negative disables shrinking).
	ShrinkBudget int
	// Sink, when non-nil, additionally receives every stand execution's
	// result — candidate walks, pinned verification, oracle scoring and
	// shrink probes alike. Each batch of executions reaches it in unit
	// order (the engine wraps it in comptest.Ordered per batch), so the
	// stream is identical at every parallelism. The campaign service
	// streams live NDJSON through this.
	Sink comptest.Sink
}

// withDefaults resolves the zero values.
func (o Options) withDefaults() Options {
	if o.Stand == "" {
		o.Stand = mutation.DefaultStand(o.DUT)
	}
	if o.Budget <= 0 {
		o.Budget = 32
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.MinSteps <= 0 {
		o.MinSteps = 4
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = max(24, o.MinSteps)
	}
	if len(o.Durations) == 0 {
		o.Durations = []float64{0.5, 1, 2, 3, 5}
	}
	if o.ShrinkBudget == 0 {
		o.ShrinkBudget = 48
	}
	return o
}

// Explorer runs coverage-guided exploration for one DUT and suite.
type Explorer struct {
	suite *comptest.Suite
	opts  Options
	gen   *Generator
	pin   *pinner
	// scripts generates every walk and shrink candidate against the
	// suite's status table, so their statements are built once.
	scripts *script.Generator

	// runner executes every stand run of the exploration. Its one sink
	// is record; each batch passes its Ordered wrapper of Options.Sink
	// as a call sink.
	runner  *comptest.Runner
	oracles []string // sorted, unique fault names
	// reps holds the reports of the latest campaign; each campaign
	// reuses it.
	reps []*report.Report
	// probe traces every shrink attempt; RunStarted resets it.
	probe Trace

	cov    *Coverage
	corpus *Corpus
	keys   *keyer

	executions int
	candidates int
}

// Result is the outcome of one exploration run.
type Result struct {
	DUT, Stand string
	Seed       int64
	// Budget is the resolved candidate budget, Candidates the walks
	// actually executed, Executions every stand run including pinned
	// verification, oracle scoring and shrinking.
	Budget, Candidates, Executions int
	Coverage                       *Coverage
	Corpus                         *Corpus

	suite *comptest.Suite
	added []*status.Status
}

// New builds an Explorer for the suite. Oracle fault names are
// validated against the DUT model up front.
func New(suite *comptest.Suite, opts Options) (*Explorer, error) {
	if suite == nil {
		return nil, fmt.Errorf("explore: New needs a suite")
	}
	if opts.DUT == "" {
		return nil, fmt.Errorf("explore: Options.DUT is required")
	}
	opts = opts.withDefaults()
	if opts.MaxSteps < opts.MinSteps {
		return nil, fmt.Errorf("explore: MaxSteps %d below MinSteps %d", opts.MaxSteps, opts.MinSteps)
	}
	for _, d := range opts.Durations {
		if !(d > 0 && d <= math.MaxFloat64) {
			return nil, fmt.Errorf("explore: duration %v is not finite and positive", d)
		}
	}

	// Validate the DUT and every oracle fault up front.
	oracles := slices.Compact(slices.Sorted(slices.Values(opts.Oracle)))
	if err := comptest.CheckFaults(opts.DUT, oracles...); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	gen, err := newGenerator(suite, rng, opts.MinSteps, opts.MaxSteps, opts.Durations)
	if err != nil {
		return nil, err
	}
	pin, err := newPinner(suite)
	if err != nil {
		return nil, err
	}
	e := &Explorer{
		suite:   suite,
		opts:    opts,
		gen:     gen,
		pin:     pin,
		scripts: script.NewGenerator(suite.Signals, suite.Statuses),
		oracles: oracles,
		cov:     NewCoverage(),
		corpus:  &Corpus{},
		keys:    newKeyer(),
	}
	e.runner, err = comptest.NewRunner(comptest.WithStand(opts.Stand), comptest.WithDUT(opts.DUT),
		comptest.WithParallelism(opts.Parallelism), comptest.WithSink(comptest.SinkFunc(e.record)))
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Run executes the exploration: Budget candidate walks in campaign
// batches, each traced, pinned, scored for coverage novelty and oracle
// kills, and — when retained — shrunk and added to the corpus. On
// cancellation the partial result is returned alongside ctx.Err().
func (e *Explorer) Run(ctx context.Context) (*Result, error) {
	batch := max(4, 2*e.opts.Parallelism)
	// One walk, unit and trace per batch slot, reused by every batch: a
	// batch's traces are read before the next batch starts, whose runs
	// reset them (Trace.RunStarted).
	walks := make([]*testdef.TestCase, batch)
	traces := make([]Trace, batch)
	units := make([]comptest.Unit, batch)
	batchReps := make([]*report.Report, 0, batch)
	remaining := e.opts.Budget
	for remaining > 0 && ctx.Err() == nil {
		n := min(batch, remaining)
		remaining -= n

		for i := range walks[:n] {
			walks[i] = e.gen.Next()
			sc, err := e.scripts.Generate(walks[i])
			if err != nil {
				return nil, fmt.Errorf("explore: generated walk invalid: %v", err)
			}
			units[i] = e.unit(sc, &traces[i])
		}
		// Oracle, verification and shrink runs below reuse the
		// campaign's report slice, so the batch keeps its own copy.
		reps, err := e.campaign(ctx, units[:n])
		if err != nil {
			break
		}
		batchReps = append(batchReps[:0], reps...)
		e.candidates += n

		for i, tc := range walks[:n] {
			if ctx.Err() != nil {
				break
			}
			// Walks that could not execute cleanly (e.g. an allocation
			// the stand cannot serve) are discarded: a promoted test
			// derived from them could not serve as a green baseline.
			if batchReps[i] == nil || !batchReps[i].Passed() {
				continue
			}
			promo, err := e.pin.pin(tc, &traces[i])
			if err != nil {
				continue
			}
			keys := e.keys.keysOf(tc, &traces[i], promo)
			novel := e.cov.Missing(keys)
			kills := e.kills(ctx, promo.Script, e.oracles)
			if len(novel) == 0 && len(kills) == 0 {
				continue
			}
			// The promoted script must pass on the clean DUT — it is
			// the contract that makes its kills meaningful.
			if !e.runPasses(ctx, promo.Script) {
				continue
			}
			promo, keys = e.shrink(ctx, tc, promo, keys, novel, kills)
			e.cov.Merge(keys)
			e.corpus.Add(&Entry{
				Name:           tc.Name,
				GeneratedSteps: len(tc.Steps),
				Promotion:      promo,
				NewKeys:        novel,
				Kills:          kills,
			})
		}
	}
	res := &Result{
		DUT:        e.opts.DUT,
		Stand:      e.opts.Stand,
		Seed:       e.opts.Seed,
		Budget:     e.opts.Budget,
		Candidates: e.candidates,
		Executions: e.executions,
		Coverage:   e.cov,
		Corpus:     e.corpus,
		suite:      e.suite,
		added:      e.pin.added,
	}
	return res, ctx.Err()
}

// unit is one run of sc on the clean DUT, observed by obs, carrying sc
// compiled as every unit the library builds does. A script that does
// not compile is left without one, and its run reports the rejection.
func (e *Explorer) unit(sc *script.Script, obs stand.Observer) comptest.Unit {
	c, _ := script.Compile(sc, method.Builtin())
	return comptest.Unit{Script: sc, Compiled: c, Stand: e.opts.Stand, Observer: obs}
}

// campaign fans the units out over the worker pool and returns their
// reports in unit order (nil where the execution could not be built).
// Every completed run counts toward Executions.
func (e *Explorer) campaign(ctx context.Context, units []comptest.Unit) ([]*report.Report, error) {
	e.reps = slices.Grow(e.reps[:0], len(units))[:len(units)]
	clear(e.reps)
	var sinks []comptest.Sink
	if e.opts.Sink != nil {
		sinks = []comptest.Sink{comptest.Ordered(e.opts.Sink)}
	}
	_, err := e.runner.Campaign(ctx, units, sinks...)
	return e.reps, err
}

// record is the Runner's sink: it keeps the current batch's reports by
// Seq.
func (e *Explorer) record(r comptest.Result) {
	e.executions++
	if r.Err == nil {
		e.reps[r.Seq] = r.Report
	}
}

// execTraced runs one stimulus walk on the clean DUT with the probe
// trace attached. The trace is valid until the next execTraced.
func (e *Explorer) execTraced(ctx context.Context, sc *script.Script) (*Trace, *report.Report) {
	reps, _ := e.campaign(ctx, []comptest.Unit{e.unit(sc, &e.probe)})
	return &e.probe, reps[0]
}

// runPasses executes the script against the clean DUT and reports a
// fully green run.
func (e *Explorer) runPasses(ctx context.Context, sc *script.Script) bool {
	reps, _ := e.campaign(ctx, []comptest.Unit{e.unit(sc, nil)})
	return reps[0] != nil && reps[0].Passed()
}

// killed reports whether a report constitutes a kill: the run completed
// and at least one check failed outright. Errors (allocation, solver)
// are infrastructure, not behaviour, and never count.
func killed(rep *report.Report) bool {
	if rep == nil || rep.FatalErr != "" {
		return false
	}
	_, fail, errs, skip := rep.Counts()
	return fail > 0 && errs == 0 && skip == 0
}

// kills runs the script once per fault, each injected alone into the
// DUT, fanning the faulted runs out as one campaign. Returns the faults
// it kills, in the given order.
func (e *Explorer) kills(ctx context.Context, sc *script.Script, faults []string) []string {
	if len(faults) == 0 {
		return nil
	}
	u := e.unit(sc, nil)
	units := make([]comptest.Unit, len(faults))
	for i := range faults {
		units[i] = u
		units[i].Faults = faults[i : i+1]
	}
	reps, _ := e.campaign(ctx, units)
	var out []string
	for i, f := range faults {
		if killed(reps[i]) {
			out = append(out, f)
		}
	}
	return out
}

// SurvivingFaults runs the fault-mutant kill matrix of the suite and
// returns the fault names the suite fails to kill — the natural oracle
// set for exploration: discovering a scenario that kills a survivor is
// exactly the incompleteness repair the paper asks for.
func SurvivingFaults(ctx context.Context, dut, standName string, suite *comptest.Suite, parallelism int) ([]string, error) {
	plan, err := mutation.Enumerate(dut, standName, suite)
	if err != nil {
		return nil, err
	}
	// Only the fault mutants matter as oracles; dropping the script
	// mutants keeps the matrix small.
	var faults []mutation.Mutant
	for _, m := range plan.Mutants {
		if m.Kind == mutation.FaultMutant {
			faults = append(faults, m)
		}
	}
	plan.Mutants = faults
	mat, err := mutation.Run(ctx, plan, mutation.Options{Parallelism: parallelism})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, o := range mat.Survivors() {
		out = append(out, o.Mutant.Fault.Name)
	}
	sort.Strings(out)
	return out, nil
}

// Exploration converts the result into the report-layer record.
func (r *Result) Exploration() *report.Exploration {
	x := &report.Exploration{
		DUT:          r.DUT,
		Stand:        r.Stand,
		Seed:         r.Seed,
		Budget:       r.Budget,
		Candidates:   r.Candidates,
		Executions:   r.Executions,
		CoverageKeys: r.Coverage.Len(),
	}
	for _, e := range r.Corpus.Entries {
		x.Entries = append(x.Entries, report.ExplorationEntry{
			Name:           e.Name,
			Steps:          e.Steps(),
			GeneratedSteps: e.GeneratedSteps,
			DurationS:      e.Duration(),
			NewKeys:        append([]string(nil), e.NewKeys...),
			Kills:          append([]string(nil), e.Kills...),
		})
	}
	return x
}
