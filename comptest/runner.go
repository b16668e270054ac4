package comptest

import (
	"context"
	"sync"

	"repro/internal/report"
	"repro/internal/script"
)

// Runner executes test-stand-independent scripts. It is configured once
// via functional options and may then be used for any number of runs;
// execution units never share mutable state (each gets an exclusively
// owned stand and DUT for the duration of its run), so a Runner is safe
// for concurrent use.
//
// Every run goes through one loop (CampaignGroups). Scripts are
// compiled where their units are made (Compile, Cross, the mutation and
// exploration engines), not by the Runner, and stands come from one
// process-wide cache (profileFor): the stand profile of each (stand
// name, harness) — its routing, expectation and attribute memos — and
// the idle stands built from it, shared by every Runner. A Runner holds
// only its defaults, its parallelism and its sinks.
type Runner struct {
	standName string // registered profile of units that name none
	dutName   string // registered model of units that name none, "" = no DUT
	parallel  int

	emitMu sync.Mutex // serialises sink emission across workers
	sinks  []Sink
}

// NewRunner builds a Runner. The defaults are the paper's stand
// (paper_stand), no DUT, sequential execution and no sinks.
func NewRunner(opts ...Option) (*Runner, error) {
	r := &Runner{
		standName: "paper_stand",
		parallel:  1,
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Parallelism returns the configured worker-pool bound.
func (r *Runner) Parallelism() int { return r.parallel }

// names resolves a unit's stand and DUT names: empty ones fall back to
// the Runner's defaults.
func (r *Runner) names(standName, dutName string) (string, string) {
	if standName == "" {
		standName = r.standName
	}
	if dutName == "" {
		dutName = r.dutName
	}
	return standName, dutName
}

// RunScript executes one script as a one-unit Campaign on the Runner's
// default stand and DUT and returns its report; the Runner's sinks see
// the result too. The context is honoured between steps; a context
// cancelled before the run starts yields no report and ctx.Err().
func (r *Runner) RunScript(ctx context.Context, sc *script.Script) (*report.Report, error) {
	var res *Result
	_, err := r.Campaign(ctx, []Unit{{Script: sc}}, SinkFunc(func(got Result) { res = &got }))
	if res == nil {
		return nil, err
	}
	return res.Report, res.Err
}

// RunPlan executes a compiled plan's scripts on the Runner's default
// stand and DUT as one Group: in order, on one worker (the sequential
// pipeline of the paper). Each report is streamed to the Runner's sinks
// as it completes and the full slice is returned. A unit whose stand
// cannot be built stops the plan with its error. On cancellation the
// already-produced reports are returned alongside ctx.Err().
func (r *Runner) RunPlan(ctx context.Context, plan *Plan) ([]*report.Report, error) {
	var (
		reps   []*report.Report
		runErr error
	)
	g := Group{Units: plan.Units([]string{""}, ""), Stop: func(res Result) bool { return res.Err != nil }}
	_, err := r.CampaignGroups(ctx, []Group{g}, SinkFunc(func(res Result) {
		if res.Err != nil {
			runErr = res.Err
			return
		}
		reps = append(reps, res.Report)
	}))
	if runErr != nil {
		return reps, runErr
	}
	return reps, err
}

// emit streams one result to the Runner's sinks, then to the call's
// sinks, serialised.
func (r *Runner) emit(res Result, call []Sink) {
	if len(r.sinks) == 0 && len(call) == 0 {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	for _, s := range r.sinks {
		s.Emit(res)
	}
	for _, s := range call {
		s.Emit(res)
	}
}

// skip tells every Ordered sink, the Runner's and the call's, that Seqs
// [from, to) will never be emitted. Empty ranges are no-ops.
func (r *Runner) skip(from, to int, call []Sink) {
	if from >= to {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	for _, sinks := range [2][]Sink{r.sinks, call} {
		for _, s := range sinks {
			if o, ok := s.(*orderedSink); ok {
				o.skip(from, to)
			}
		}
	}
}
