// Compiled execution: the one step loop. Running a script.Compiled skips
// per-run validation and statement classification (RunContext compiles
// and delegates here), and — independent of compilation — the stand
// fast-forwards simulated time across windows in which nothing can
// happen; TestFastForwardEquivalence pins the fast-forward against
// tick-by-tick ground truth.

package stand

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ecu"
	"repro/internal/report"
	"repro/internal/script"
)

// RunOptions modifies compiled execution.
type RunOptions struct {
	// StopOnFail aborts the run after the first step that produced a
	// FAIL or ERROR check; the remaining steps are reported as SKIP.
	// Against an enforced-green baseline the first deviating step
	// already decides the verdict, so mutation testing uses this to
	// kill mutants early without changing any verdict or witness.
	StopOnFail bool
}

// errEarlyStop is the SKIP detail of steps cut off by StopOnFail.
var errEarlyStop = errors.New("not executed: an earlier step already failed")

// RunCompiled executes a compiled script, checking ctx between steps
// (see RunContext for the cancellation semantics).
func (s *Stand) RunCompiled(ctx context.Context, c *script.Compiled, opts RunOptions) *report.Report {
	sc := c.Script
	rep := &report.Report{Script: sc.Name, Stand: s.prof.cfg.Name,
		Steps: make([]report.StepResult, 0, len(sc.Steps))}
	if s.dut != nil {
		rep.DUT = s.dut.Name()
	}
	// Structural validation happened once, in script.Compile.
	if err := ctx.Err(); err != nil {
		rep.FatalErr = err.Error()
		s.skipRemaining(rep, sc.Steps, err)
		return rep
	}
	s.resetRun()
	s.runStart = s.sched.Now()
	if s.obs != nil {
		s.obs.RunStarted(sc, s.prof.cfg.UbattVolts)
		defer func() { s.obs.RunFinished(rep) }()
	}

	if len(sc.Init) > 0 {
		if _, err := s.applyStep(sc, sc.Init, nil, nil, sc); err != nil {
			rep.FatalErr = fmt.Sprintf("init: %v", err)
			return rep
		}
	}
	s.advanceTo(s.sched.Now()+s.prof.cfg.SettleTime, true)
	if s.obs != nil {
		s.obs.OutputsSampled(s.sched.Now()-s.runStart, -1, s.observeOutputs(sc))
	}

	for i := range c.Steps {
		cs := &c.Steps[i]
		if err := ctx.Err(); err != nil {
			rep.FatalErr = err.Error()
			s.skipRemaining(rep, sc.Steps[i:], err)
			return rep
		}
		res := s.runStep(sc, cs.Step, cs.Stimuli, cs.Measures, cs.ExtraWait)
		rep.Steps = append(rep.Steps, res)
		if opts.StopOnFail && stepDeviates(&res) {
			s.skipRemaining(rep, sc.Steps[i+1:], errEarlyStop)
			return rep
		}
	}
	return rep
}

// stepDeviates reports whether a step result decides a run as failed.
func stepDeviates(res *report.StepResult) bool {
	for i := range res.Checks {
		if v := res.Checks[i].Verdict; v == report.Fail || v == report.Error {
			return true
		}
	}
	return false
}

// SetFastForward enables or disables the quiescence fast-forward
// (default on). The equivalence tests turn it off to obtain the
// tick-by-tick ground truth.
func (s *Stand) SetFastForward(on bool) { s.ff = on }

// fastForwardMargin is the guard band kept before a model's promised
// wake time: the stand resumes ticking a few task periods early so an
// off-by-one in a model's wake estimate surfaces as a missed
// optimisation, never as a missed transition.
const fastForwardMargin = 4 * ecu.TaskPeriod

// ffWarmup is how long the stand runs tick-by-tick after an input
// change or a model transition before trusting a quiescence promise:
// one full ReusePhase, so every driver — the task ticker ingesting the
// new inputs, the CAN retransmit groups flushing changed payloads into
// the monitors — has completed at least one cycle against the settled
// state.
const ffWarmup = ReusePhase

// advanceTo advances simulated time to target. When quiet is true (no
// timing samplers armed), no PWM waveform is toggling and the DUT
// promises quiescence, the idle window is crossed by suspending the
// periodic drivers — the task ticker, the CAN retransmit groups and the
// trace sampler — and jumping the (then empty) event queue in O(1),
// resuming phase-preserving: after a resume, every driver fires at
// exactly the times an uninterrupted run would have produced. The trace
// samples that fell inside the window are delivered to the observer
// before the resume, at their grid times (replayTrace), so an observer
// sees the same callback sequence as in a tick-by-tick run. One-shot
// events (in-flight CAN frame deliveries) are never skipped, and the
// stand always runs normally for ffWarmup after the step's stimuli (and
// after every promised wake it crosses) before jumping.
func (s *Stand) advanceTo(target time.Duration, quiet bool) {
	if !s.ff || !quiet || s.dut == nil {
		s.sched.RunUntil(target)
		return
	}
	q, ok := s.dut.(ecu.Quiescer)
	if !ok {
		s.sched.RunUntil(target)
		return
	}
	// settled is when the current warmup ends; pendingWake is the next
	// promised model transition (-1: none known).
	settled := s.sched.Now() + ffWarmup
	pendingWake := time.Duration(-1)
	for {
		now := s.sched.Now()
		if now >= target {
			s.sched.RunUntil(target)
			return
		}
		if s.pwmRunning() {
			s.sched.RunUntil(target)
			return
		}
		wake, ok := q.QuiescentUntil(now)
		if !ok {
			s.sched.RunUntil(target)
			return
		}
		if wake != ecu.Forever && wake > pendingWake {
			pendingWake = wake
		}
		if pendingWake >= 0 && now >= pendingWake {
			// The promised transition is behind us: flush its effects.
			if w := pendingWake + ffWarmup; w > settled {
				settled = w
			}
			pendingWake = -1
		}
		if now < settled {
			// Warmup: run normally (events fire) up to the flush point.
			next := settled
			if next > target {
				next = target
			}
			s.sched.RunUntil(next)
			continue
		}
		jump := target
		if wake != ecu.Forever && wake-fastForwardMargin < jump {
			jump = wake - fastForwardMargin
		}
		if jump <= now+fastForwardMargin {
			// Wake imminent (or already due): tick one task period the
			// slow way and re-evaluate.
			next := now + ecu.TaskPeriod
			if next > target {
				next = target
			}
			s.sched.RunUntil(next)
			continue
		}
		s.suspendPeriodics()
		if next, any := s.sched.NextAt(); any && next <= jump {
			// A one-shot event lives inside the window: run normally up
			// to it and re-evaluate.
			s.resumePeriodics()
			if next > target {
				next = target
			}
			s.sched.RunUntil(next)
			continue
		}
		s.sched.RunUntil(jump)
		s.replayTrace()
		s.resumePeriodics()
	}
}

// periodicSuspender is implemented by DUTs whose periodic activity can
// be suspended phase-preserving (ecu.Base provides it).
type periodicSuspender interface {
	SuspendPeriodic()
	ResumePeriodic()
}

func (s *Stand) suspendPeriodics() {
	if s.trace != nil {
		s.trace.Suspend()
	}
	if s.ticker != nil {
		s.ticker.Suspend()
	}
	s.tx.Suspend()
	if ps, ok := s.dut.(periodicSuspender); ok {
		ps.SuspendPeriodic()
	}
}

// resumePeriodics re-arms the drivers, the trace sampler first: in an
// uninterrupted run the sampler was armed a whole TracePeriod before a
// coincident task tick, so it fires first and samples the outputs
// before that tick can change them. Re-arming it first keeps that order.
func (s *Stand) resumePeriodics() {
	if s.trace != nil {
		s.trace.Resume()
	}
	if s.ticker != nil {
		s.ticker.Resume()
	}
	s.tx.Resume()
	if ps, ok := s.dut.(periodicSuspender); ok {
		ps.ResumePeriodic()
	}
}

func (s *Stand) pwmRunning() bool {
	for _, inst := range s.instruments {
		if inst.pwm != nil && inst.pwm.running {
			return true
		}
	}
	return false
}

// ReusePhase is the least common multiple of every periodic driver
// period in the stand: the task ticker (10 ms), the stand's CAN
// retransmit (20 ms), a DUT's retransmit (100 ms) and the DRL
// modulation grid (40 ms). A run starting on a ReusePhase boundary sees
// every driver at the same relative phase as a run starting at t = 0.
const ReusePhase = 200 * time.Millisecond

// AlignForReuse advances a stand that has already executed runs to the
// next ReusePhase boundary, so the next run is byte-identical to the
// same run on a freshly built stand. Stand pools call this between
// runs; a fresh stand (t = 0) is already aligned.
func (s *Stand) AlignForReuse() {
	now := s.sched.Now()
	if rem := now % ReusePhase; rem != 0 {
		s.advanceTo(now+ReusePhase-rem, true)
	}
}
