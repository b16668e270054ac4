package comptest

import (
	"context"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/ecu"
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
// rebuilt per run (see WithoutStandPool).
type Runner struct {
	methods *method.Registry

	standName  string        // registered profile, used when standCfg == nil
	standCfg   *stand.Config // explicit configuration
	dutName    string        // registered model, used when dutFactory == nil
	dutFactory DUTFactory

	strategy *alloc.Strategy // nil = leave the profile's default
	settle   time.Duration   // 0 = leave the profile's default
	parallel int
	noPool   bool

	compileMu sync.RWMutex
	compiled  map[*script.Script]*script.Compiled // nil value: compile failed

	poolMu sync.Mutex
	// pools holds the idle stands by configuration key. A Runner never
	// holds more stands than it ran at once, so the lists need no cap.
	pools map[string][]*stand.Stand

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
		pools:     map[string][]*stand.Stand{},
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

// standConfig resolves the stand configuration for one script: the
// explicit config or the named profile built for the script's harness,
// with the Runner's strategy/settle overrides applied.
func (r *Runner) standConfig(standName string, sc *script.Script) (stand.Config, error) {
	var cfg stand.Config
	var err error
	switch {
	case standName != "":
		cfg, err = BuildStand(standName, r.methods, stand.HarnessFromScript(sc))
	case r.standCfg != nil:
		cfg = *r.standCfg
	default:
		cfg, err = BuildStand(r.standName, r.methods, stand.HarnessFromScript(sc))
	}
	if err != nil {
		return stand.Config{}, err
	}
	if r.strategy != nil {
		cfg.Strategy = *r.strategy
	}
	if r.settle > 0 {
		cfg.SettleTime = r.settle
	}
	return cfg, nil
}

// newDUT instantiates the DUT for one execution unit: the unit's
// factory, the unit's named model, or the Runner's default. nil means
// "no DUT".
func (r *Runner) newDUT(dutName string, factory DUTFactory) (ecu.ECU, error) {
	switch {
	case factory != nil:
		return factory(), nil
	case dutName != "":
		return NewDUT(dutName)
	case r.dutFactory != nil:
		return r.dutFactory(), nil
	case r.dutName != "":
		return NewDUT(r.dutName)
	}
	return nil, nil
}

// newStand builds and populates a stand for one execution unit.
func (r *Runner) newStand(standName, dutName string, factory DUTFactory, sc *script.Script) (*stand.Stand, error) {
	cfg, err := r.standConfig(standName, sc)
	if err != nil {
		return nil, err
	}
	st, err := stand.New(cfg, r.methods)
	if err != nil {
		return nil, err
	}
	dut, err := r.newDUT(dutName, factory)
	if err != nil {
		return nil, err
	}
	if dut != nil {
		if err := st.AttachDUT(dut); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// RunScript executes one script on a freshly built default stand and
// returns its report. The context is honoured between steps.
func (r *Runner) RunScript(ctx context.Context, sc *script.Script) (*report.Report, error) {
	st, err := r.newStand("", "", nil, sc)
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
	st, err := r.newStand("", "", nil, plan.Scripts[0])
	if err != nil {
		return nil, err
	}
	var reps []*report.Report
	for i, sc := range plan.Scripts {
		if err := ctx.Err(); err != nil {
			return reps, err
		}
		c := plan.Compiled(sc)
		rep := r.runOn(ctx, st, sc, c, stand.RunOptions{})
		reps = append(reps, rep)
		r.emit(Result{Seq: i, Unit: Unit{Script: sc, Compiled: c}, Report: rep})
	}
	return reps, ctx.Err()
}

// emit streams one result to every sink, serialised.
func (r *Runner) emit(res Result) {
	if len(r.sinks) == 0 {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	for _, s := range r.sinks {
		s.Emit(res)
	}
}

// skip tells every Ordered sink that Seqs [from, to) will never be
// emitted. Empty ranges are no-ops.
func (r *Runner) skip(from, to int) {
	if from >= to {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	for _, s := range r.sinks {
		if o, ok := s.(*orderedSink); ok {
			o.skip(from, to)
		}
	}
}
