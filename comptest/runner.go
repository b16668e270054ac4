package comptest

import (
	"context"
	"sync"

	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
)

// Runner executes test-stand-independent scripts. It is configured once
// via functional options and may then be used for any number of runs;
// execution units never share mutable state (each gets an exclusively
// owned stand and DUT for the duration of its run), so a Runner is safe
// for concurrent use.
//
// Every run goes through one loop (CampaignGroups) and one cache: stands
// of equivalent configuration are pooled across units instead of being
// rebuilt per run, without changing a single output byte. Scripts are
// compiled where their units are made (Compile, Cross, the mutation and
// exploration engines), not by the Runner. Below the pool, the stand
// profile a stand is built from — its routing, expectation and attribute
// memos — is shared by every Runner in the process (profileFor).
type Runner struct {
	standName string // registered profile of units that name none
	dutName   string // registered model of units that name none, "" = no DUT
	parallel  int

	poolMu sync.Mutex
	// pools holds the idle stands by configuration key. A Runner never
	// holds more stands than it ran at once, so the lists need no cap.
	pools map[string]*[]*stand.Stand

	emitMu sync.Mutex // serialises sink emission across workers
	sinks  []Sink
}

// NewRunner builds a Runner. The defaults are the paper's stand
// (paper_stand), no DUT, sequential execution and no sinks.
func NewRunner(opts ...Option) (*Runner, error) {
	r := &Runner{
		standName: "paper_stand",
		parallel:  1,
		pools:     map[string]*[]*stand.Stand{},
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

// newStand builds and populates a stand for one execution unit: an
// instance of the named profile (or the Runner's default) for the
// script's harness, shared process-wide (profileFor), with a fresh
// instance of the named DUT model (or the Runner's default) attached.
// No DUT name at all means an empty socket.
func (r *Runner) newStand(standName, dutName string, sc *script.Script) (*stand.Stand, error) {
	standName, dutName = r.names(standName, dutName)
	p, err := r.profileFor(standName, sc)
	if err != nil {
		return nil, err
	}
	st := p.New()
	if dutName == "" {
		return st, nil
	}
	dut, err := NewDUT(dutName)
	if err != nil {
		return nil, err
	}
	if err := st.AttachDUT(dut); err != nil {
		return nil, err
	}
	return st, nil
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
