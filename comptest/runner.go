package comptest

import (
	"context"
	"sync"
	"time"

	"repro/internal/method"
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
// Two caches make repeated execution cheap without changing a single
// output byte: scripts are compiled (validated and classified) once per
// Runner and executed through stand.RunCompiled, and stands of
// equivalent configuration are pooled across units instead of being
// rebuilt per run (see WithoutStandPool). Below both, the stand profile
// a stand is built from — its routing, expectation and attribute memos
// — is shared by every Runner in the process (profileFor).
type Runner struct {
	methods *method.Registry

	standName string // registered profile of units that name none
	dutName   string // registered model of units that name none, "" = no DUT
	parallel  int
	noPool    bool

	compileMu sync.RWMutex
	compiled  map[*script.Script]*script.Compiled // nil value: compile failed

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
		methods:   method.Builtin(),
		standName: "paper_stand",
		parallel:  1,
		compiled:  map[*script.Script]*script.Compiled{},
		pools:     map[string]*[]*stand.Stand{},
	}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Methods returns the method registry the Runner validates against.
func (r *Runner) Methods() *method.Registry { return r.methods }

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

// RunScript executes one script on a freshly built default stand and
// returns its report. The context is honoured between steps.
func (r *Runner) RunScript(ctx context.Context, sc *script.Script) (*report.Report, error) {
	st, err := r.newStand("", "", sc)
	if err != nil {
		return nil, err
	}
	return r.runOn(ctx, st, sc, nil, stand.RunOptions{}), nil
}

// runOn executes one script on a stand: compiled (c, or the Runner's
// cached compilation when c is nil) when the script compiles, and
// otherwise the stand's rejection report carrying the validation error.
func (r *Runner) runOn(ctx context.Context, st *stand.Stand, sc *script.Script, c *script.Compiled, opts stand.RunOptions) *report.Report {
	if c == nil {
		c = r.compiledFor(sc)
	}
	if c == nil {
		return st.RunContext(ctx, sc)
	}
	return st.RunCompiled(ctx, c, opts)
}

// RunPlan executes a compiled plan's scripts in order on ONE stand
// instance (the sequential pipeline of the paper). Each report is
// streamed to the Runner's sinks as it completes and the full slice is
// returned. On cancellation the already-produced reports are returned
// alongside ctx.Err().
func (r *Runner) RunPlan(ctx context.Context, plan *Plan) ([]*report.Report, error) {
	if len(plan.Scripts) == 0 {
		return nil, nil
	}
	st, err := r.newStand("", "", plan.Scripts[0])
	if err != nil {
		return nil, err
	}
	var reps []*report.Report
	for i, sc := range plan.Scripts {
		if err := ctx.Err(); err != nil {
			return reps, err
		}
		c := plan.Compiled(sc)
		start := time.Now()
		rep := r.runOn(ctx, st, sc, c, stand.RunOptions{})
		reps = append(reps, rep)
		r.emit(Result{Seq: i, Unit: Unit{Script: sc, Compiled: c}, Report: rep, Elapsed: time.Since(start)}, nil)
	}
	return reps, ctx.Err()
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
