package stand

import (
	"strings"
	"time"

	"repro/internal/analog"
	"repro/internal/canbus"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/sigdef"
)

// TracePeriod is the sampling rate of the behavioural trace: while a
// step's dt elapses, an attached Observer sees the DUT outputs at this
// simulated-time interval. It is coarser than the get_t/get_f
// SamplePeriod because the trace feeds coverage models, not
// measurements — and the network solver's dirty-flag cache makes the
// extra solves nearly free between DUT ticks.
const TracePeriod = 50 * time.Millisecond

// OutputState is one observed DUT output level: the voltage of a
// declared electrical "out" signal, or the payload of a CAN "out"
// signal. High binarises electrical levels against half the supply so
// observers need not know the stand's ubatt.
type OutputState struct {
	// Signal is the declared (lower-case) script signal name.
	Signal string
	// CAN marks a bus signal; Value then carries the payload and Volts
	// is meaningless. Electrical signals carry Volts and High.
	CAN   bool
	Volts float64
	High  bool
	Value uint64
	// Valid is false when the level could not be observed (no CAN frame
	// received yet, solver failure).
	Valid bool
}

// Observer receives behavioural events while RunContext executes a
// script. All callbacks run on the executing goroutine, in simulated
// time order; an observer attached to one Stand never sees concurrent
// calls. Every callback time is relative to the start of the run, so a
// pooled stand reports the same times as a freshly built one. The
// coverage-guided exploration engine (comptest/explore) records
// output/CAN transitions through this hook.
type Observer interface {
	// RunStarted is called once per run, after validation and reset,
	// before the init block is applied.
	RunStarted(sc *script.Script, ubattVolts float64)
	// OutputsSampled reports the DUT output levels at one sample point:
	// after the init settle (step = -1) and every TracePeriod while a
	// step's dt elapses (step = the step number). Samples inside a
	// fast-forwarded quiescent window are delivered after the jump, at
	// their grid times, and share one outputs slice: the same slice may
	// be passed to several consecutive calls, so observers must treat it
	// as read-only.
	OutputsSampled(now time.Duration, step int, outputs []OutputState)
	// StepFinished reports the settled output levels at the end of a
	// step, after dt elapsed and before the step's measurements are
	// judged.
	StepFinished(step *script.Step, now time.Duration, outputs []OutputState)
	// RunFinished is called once with the completed report.
	RunFinished(rep *report.Report)
}

// SetObserver attaches a behavioural-trace observer to the stand, or
// detaches it with nil. It must not be called while a script is
// executing.
func (s *Stand) SetObserver(o Observer) { s.obs = o }

// Ubatt returns the stand's supply voltage.
func (s *Stand) Ubatt() float64 { return s.prof.cfg.UbattVolts }

// observeOutputs samples every declared "out" signal of the script:
// electrical pins through the network solver, CAN signals through the
// monitor. Unobservable signals are reported with Valid == false rather
// than dropped, so traces always have a fixed shape per script.
func (s *Stand) observeOutputs(sc *script.Script) []OutputState {
	var sol *analog.Solution
	var solErr error
	solved := false

	out := make([]OutputState, 0, len(sc.Decls))
	for _, d := range sc.Decls {
		dir, err := sigdef.ParseDirection(d.Direction)
		if err != nil || dir != sigdef.Out {
			continue
		}
		st := OutputState{Signal: strings.ToLower(d.Name)}
		cls, err := sigdef.ParseClass(d.Class)
		if err == nil && cls == sigdef.CANSignal {
			st.CAN = true
			order, err := canbus.ParseByteOrder(d.ByteOrder)
			if err == nil {
				if v, err := s.monitor.SignalOrder(order, s.db, d.Message, d.StartBit, d.Length); err == nil {
					st.Value, st.Valid = v, true
				}
			}
		} else {
			if !solved {
				sol, solErr = s.net.Solve()
				solved = true
				if solErr == nil {
					s.Solves++
				}
			}
			if solErr == nil {
				hi := s.net.Node(d.Pin)
				lo := analog.Ground
				if d.PinRet != "" {
					lo = s.net.Node(d.PinRet)
				}
				st.Volts = sol.VoltageBetween(hi, lo)
				st.High = st.Volts > 0.5*s.prof.cfg.UbattVolts
				st.Valid = true
			}
		}
		out = append(out, st)
	}
	return out
}

// MultiObserver fans one stand's behavioural events out to several
// observers, in argument order. Nil entries are skipped, so callers can
// compose optional hooks without branching; with zero (or only nil)
// observers it returns nil, which detaches observation entirely.
func MultiObserver(obs ...Observer) Observer {
	var active []Observer
	for _, o := range obs {
		if o != nil {
			active = append(active, o)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return multiObserver(active)
}

type multiObserver []Observer

func (m multiObserver) RunStarted(sc *script.Script, ubattVolts float64) {
	for _, o := range m {
		o.RunStarted(sc, ubattVolts)
	}
}

func (m multiObserver) OutputsSampled(now time.Duration, step int, outputs []OutputState) {
	for _, o := range m {
		o.OutputsSampled(now, step, outputs)
	}
}

func (m multiObserver) StepFinished(step *script.Step, now time.Duration, outputs []OutputState) {
	for _, o := range m {
		o.StepFinished(step, now, outputs)
	}
}

func (m multiObserver) RunFinished(rep *report.Report) {
	for _, o := range m {
		o.RunFinished(rep)
	}
}

// startTrace arms the periodic trace sampling of one step (a no-op when
// no observer is attached). The sampler is a suspendable series, so the
// fast-forward parks it with the other periodic drivers and replays
// what it skipped (replayTrace).
func (s *Stand) startTrace(sc *script.Script, step *script.Step) {
	if s.obs == nil {
		return
	}
	s.traceSc, s.traceStep = sc, step.Nr
	s.trace = s.sched.Periodic(TracePeriod, func() {
		s.obs.OutputsSampled(s.sched.Now()-s.runStart, s.traceStep, s.observeOutputs(s.traceSc))
	})
}

// stopTrace disarms the step's trace sampler, if one is armed.
func (s *Stand) stopTrace() {
	if s.trace != nil {
		s.trace.Stop()
		s.trace, s.traceSc = nil, nil
	}
}

// replayTrace delivers the samples a fast-forward jump held back: one
// per TracePeriod grid time from the suspended sampler's next
// occurrence up to and including Now, in order. The DUT promised
// quiescence over the jumped window, so every one of them equals the
// current outputs: they are observed once and the same slice goes to
// every call.
func (s *Stand) replayTrace() {
	if s.trace == nil {
		return
	}
	var outputs []OutputState
	for t := s.trace.Next(); t <= s.sched.Now(); t += TracePeriod {
		if outputs == nil {
			outputs = s.observeOutputs(s.traceSc)
		}
		s.obs.OutputsSampled(t-s.runStart, s.traceStep, outputs)
	}
}
