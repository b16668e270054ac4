package comptest

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
)

// Unit is one schedulable execution of a campaign: one script on one
// stand with one DUT. Empty Stand/DUT names fall back to the Runner's
// defaults.
type Unit struct {
	Script *script.Script
	// Compiled is the compiled form of Script. Every unit the library
	// builds carries it (Plan.Units, Cross, the mutation and exploration
	// engines), so a script is compiled once however often it runs;
	// Script may then be nil and is derived from it. A unit without a
	// Compiled is compiled for its own run only, and a script that does
	// not compile gets the stand's rejection report.
	Compiled *script.Compiled
	Stand    string // registered stand profile, "" = Runner default
	DUT      string // registered DUT model, "" = Runner default
	// Faults are injected into the unit's DUT (ecu.ECU.InjectFault)
	// before the run and cleared afterwards, so a faulted unit reuses a
	// pooled stand like any other (see CheckFaults to validate the names
	// up front). The mutation engine runs its fault mutants this way.
	Faults []string
	// StopOnFail stops the run after the first step with a failing or
	// erroring check; the remaining steps are reported as SKIP
	// (stand.RunOptions.StopOnFail). Mutation early-kill sets this: it
	// never changes a verdict, only how much work a decided run wastes.
	StopOnFail bool
	// Observer, when non-nil, is attached to this unit's stand and
	// receives the behavioural trace of the execution (stand.Observer).
	// Each unit needs its own observer instance: units run concurrently
	// under WithParallelism, and observer callbacks are only serialised
	// within one unit. The exploration engine (comptest/explore) records
	// coverage through this field. The observer is attached for this
	// unit's run only and detached before its stand returns to the pool.
	Observer stand.Observer
}

// Result is the outcome of one Unit, streamed to sinks as it completes.
// Exactly one of Report and Err is set: Err covers failures to build
// the execution (unknown stand/DUT, stand construction), while script
// verdicts — including fatal script errors — live in the Report.
type Result struct {
	// Seq is the index of the Unit in the campaign's unit slice.
	Seq    int
	Unit   Unit
	Report *report.Report
	Err    error
	// Elapsed is the unit's wall-clock execution time, from taking its
	// stand (pooled or freshly built) to the finished report. It is set
	// on every Result that has a Report. Reports carry no wall-clock
	// time, so per-unit latency is read from here.
	Elapsed time.Duration
}

// Sink consumes campaign results. The Runner serialises Emit calls —
// even under WithParallelism(n>1) a sink never sees two concurrent
// calls — so implementations need no locking of their own.
type Sink interface {
	Emit(Result)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Result)

// Emit implements Sink.
func (f SinkFunc) Emit(r Result) { f(r) }

// Collector is a Sink that accumulates every result.
type Collector struct {
	mu      sync.Mutex
	results []Result
}

// Emit implements Sink.
func (c *Collector) Emit(r Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, r)
}

// Results returns the collected results in arrival order.
func (c *Collector) Results() []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Result, len(c.results))
	copy(out, c.results)
	return out
}

// Ordered wraps a sink so it receives results in strict Seq order
// (0, 1, 2, …) regardless of completion order, buffering early
// arrivals. Units a campaign never emits (a Group's Stop, cancellation)
// are reported to the wrapper by the Runner, so the sink sees exactly
// the executed units, in Seq order. The Runner reports them only to a
// wrapper it holds itself, through WithSink or as a call sink of
// Campaign; a wrapper reached through another sink waits forever for
// them. Use one Ordered wrapper per campaign, passed as a call sink to
// a long-lived Runner: Seq restarts at 0 for every Campaign call.
func Ordered(s Sink) Sink {
	return &orderedSink{report.NewSequencer(0, func(r Result) error {
		s.Emit(r)
		return nil
	})}
}

type orderedSink struct {
	seq *report.Sequencer[Result]
}

// Emit and skip ignore the Sequencer's errors: its release never fails.
func (o *orderedSink) Emit(r Result) { o.seq.Add(r.Seq, r) }

// skip records that Seqs [from, to) will never be emitted, so release
// passes over them instead of waiting forever.
func (o *orderedSink) skip(from, to int) { o.seq.Skip(from, to) }

// Summary tallies a campaign. When the campaign is cancelled mid-run,
// units that were never dispatched are counted in Skipped.
type Summary struct {
	Units   int // total units submitted
	Passed  int // reports with every check passing
	Failed  int // reports with failing/erroring checks or a fatal error
	Errored int // units whose execution could not be built
	Skipped int // units never dispatched (cancellation)
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("%d units: %d passed, %d failed, %d errored, %d skipped",
		s.Units, s.Passed, s.Failed, s.Errored, s.Skipped)
}

// Cross builds the campaign units of a full matrix: every script on
// every named stand, with the given DUT model ("" = Runner default).
// Each script is compiled once, against the built-in method registry
// every Runner validates against, and its units share that compiled
// form; a script that does not compile gets none, so its runs report
// the validation failure.
func Cross(scripts []*script.Script, stands []string, dut string) []Unit {
	reg := method.Builtin()
	compiled := make([]*script.Compiled, len(scripts))
	for i, sc := range scripts {
		if sc != nil { // a nil script errors its units, as in any Campaign
			compiled[i], _ = script.Compile(sc, reg)
		}
	}
	units := make([]Unit, 0, len(scripts)*len(stands))
	for _, st := range stands {
		for i, sc := range scripts {
			units = append(units, Unit{Script: sc, Compiled: compiled[i], Stand: st, DUT: dut})
		}
	}
	return units
}

// Group is a sequence of units Campaign executes in order on one
// worker, with an optional short-circuit: after every result, Stop (if
// non-nil) decides whether the group's remaining units still matter.
// Stopped units are counted as Skipped and never emitted — and because
// the decision depends only on the group's own results, the executed
// unit set is deterministic regardless of parallelism. The mutation
// engine runs each mutant as one group that stops at the first kill.
type Group struct {
	Units []Unit
	Stop  func(Result) bool
}

// Campaign fans the units out over a bounded worker pool
// (WithParallelism) and streams every Result to the Runner's sinks, and
// then to this call's sinks, the moment it completes, instead of
// returning one slice at the end. Call sinks serve this campaign only:
// they get the same serialised Emit, and an Ordered call sink the same
// notices of units never emitted, as the Runner's own sinks, so one
// long-lived Runner can stream each campaign somewhere else. Units
// never share mutable state — each run exclusively owns its stand and
// DUT — so execution order cannot change verdicts.
//
// Cancellation is honoured at three levels: undispatched units are
// dropped (counted as Skipped, never emitted), running scripts stop at
// the next step boundary (stand.RunCompiled), and Campaign returns
// ctx.Err() alongside the partial Summary.
func (r *Runner) Campaign(ctx context.Context, units []Unit, sinks ...Sink) (Summary, error) {
	groups := make([]Group, len(units))
	for i := range units {
		groups[i].Units = units[i : i+1]
	}
	return r.CampaignGroups(ctx, groups, sinks...)
}

// CampaignGroups is Campaign over unit groups: groups are dispatched to
// the worker pool, the units within one group run sequentially (in
// Result.Seq terms the units are numbered by their position in the
// flattened group list). See Group for the short-circuit semantics and
// Campaign for the call sinks.
func (r *Runner) CampaignGroups(ctx context.Context, groups []Group, sinks ...Sink) (Summary, error) {
	var sum Summary
	base := make([]int, len(groups)) // first Seq of each group
	for i, g := range groups {
		base[i] = sum.Units
		sum.Units += len(g.Units)
	}
	if sum.Units == 0 {
		return sum, ctx.Err()
	}

	workers := r.parallel
	if workers > len(groups) {
		workers = len(groups)
	}

	var (
		mu         sync.Mutex // guards sum
		wg         sync.WaitGroup
		idx        = make(chan int)
		dispatched int
	)
	account := func(res Result) {
		mu.Lock()
		switch {
		case res.Err != nil:
			sum.Errored++
		case res.Report.Passed():
			sum.Passed++
		default:
			sum.Failed++
		}
		mu.Unlock()
		r.emit(res, sinks)
	}
	// skip accounts Seqs [from, to) as never emitted.
	skip := func(from, to int) {
		mu.Lock()
		sum.Skipped += to - from
		mu.Unlock()
		r.skip(from, to, sinks)
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range idx {
				g, end := groups[gi], base[gi]+len(groups[gi].Units)
				for k := 0; k < len(g.Units); k++ {
					if k > 0 && ctx.Err() != nil {
						skip(base[gi]+k, end)
						break
					}
					res := r.runUnit(ctx, base[gi]+k, g.Units[k])
					account(res)
					if g.Stop != nil && g.Stop(res) {
						skip(base[gi]+k+1, end)
						break
					}
				}
			}
		}()
	}

dispatch:
	for i := range groups {
		// Checked before each send: a select alone would race a ready
		// Done channel against a ready worker and dispatch a random
		// subset of the remaining groups.
		if ctx.Err() != nil {
			break dispatch
		}
		select {
		case idx <- i:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	if dispatched < len(groups) {
		skip(base[dispatched], sum.Units)
	}
	return sum, ctx.Err()
}

// runUnit executes one campaign unit on an exclusively owned stand —
// pooled across units of equivalent configuration, freshly built
// otherwise. The Result carries the unit as submitted.
func (r *Runner) runUnit(ctx context.Context, seq int, u Unit) Result {
	if u.Script == nil && u.Compiled != nil {
		u.Script = u.Compiled.Script
	}
	res := Result{Seq: seq, Unit: u}
	if u.Script == nil {
		res.Err = fmt.Errorf("comptest: unit %d has no script", seq)
		return res
	}
	start := time.Now()
	free, st := r.takeStand(u)
	if st == nil {
		var err error
		st, err = r.newStand(u.Stand, u.DUT, u.Script)
		if err != nil {
			res.Err = err
			return res
		}
	}
	if u.Observer != nil {
		st.SetObserver(u.Observer)
	}
	faulted := len(u.Faults) > 0
	if faulted {
		dut := st.DUT()
		if dut == nil {
			res.Err = fmt.Errorf("comptest: unit %d injects faults but has no DUT", seq)
			return res
		}
		for _, f := range u.Faults {
			if err := dut.InjectFault(f); err != nil {
				res.Err = err
				return res // stand state unknown: never pooled
			}
		}
	}
	c := u.Compiled
	if c == nil {
		c, _ = script.Compile(u.Script, method.Builtin())
	}
	if c == nil {
		res.Report = st.RunContext(ctx, u.Script) // the rejection report
	} else {
		res.Report = st.RunCompiled(ctx, c, stand.RunOptions{StopOnFail: u.StopOnFail})
	}
	res.Elapsed = time.Since(start)
	st.SetObserver(nil)
	r.releaseStand(free, st, faulted)
	return res
}
