package comptest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
)

// Tracer turns a campaign's behavioural events into a structured span
// tree (campaign → unit → step) on [report.TraceSink]. It plugs into
// the existing plumbing at two points:
//
//   - [Tracer.Observer] builds the per-unit stand.Observer that records
//     simulated-clock step boundaries while the unit executes;
//   - the Tracer itself is a [Sink]: Emit tells it a unit's result is
//     final, at which point the unit's span subtree is built and handed
//     to a [report.TraceMerger], which releases it in strict Seq order.
//
// All span times are simulated-clock offsets placed on an
// as-if-sequential timeline: unit i starts where unit i-1 ended, no
// matter how many units really ran concurrently. Combined with the
// seq-ordered release, the same workbook always produces a
// byte-identical trace, across reruns and across -parallel settings.
// Call [Tracer.Flush] after Campaign returns to release buffered spans
// and the closing campaign span.
type Tracer struct {
	mu    sync.Mutex
	units map[int]*unitTrace
	tm    *report.TraceMerger
}

// NewTracer returns a Tracer emitting to sink.
func NewTracer(sink report.TraceSink) *Tracer {
	return &Tracer{
		units: make(map[int]*unitTrace),
		tm:    report.NewTraceMerger(sink),
	}
}

// Observer returns the behavioural-trace recorder for unit seq. Each
// unit needs its own recorder (units run concurrently); compose it with
// other observers via stand.MultiObserver. Seq numbers must match the
// Result.Seq values the Tracer later sees via Emit.
func (t *Tracer) Observer(seq int) stand.Observer {
	ut := &unitTrace{}
	t.mu.Lock()
	t.units[seq] = ut
	t.mu.Unlock()
	return ut
}

// Attach instruments every unit of a campaign in place, composing with
// any observer the unit already carries.
func (t *Tracer) Attach(units []Unit) {
	for i := range units {
		units[i].Observer = stand.MultiObserver(units[i].Observer, t.Observer(i))
	}
}

// Emit implements Sink. The Runner emits a unit's result on the
// goroutine that ran it, so the unit's observer callbacks are complete
// by the time its result arrives here.
func (t *Tracer) Emit(res Result) {
	t.mu.Lock()
	ut := t.units[res.Seq]
	delete(t.units, res.Seq)
	t.mu.Unlock()
	if ut == nil {
		ut = &unitTrace{}
	}
	t.tm.AddUnit(res.Seq, ut.subtree(res))
}

// Flush releases any still-buffered units (gaps left by cancelled,
// never-dispatched units are skipped) and closes the trace with the
// campaign span. Call it once, after Campaign has returned.
func (t *Tracer) Flush() { t.tm.Flush() }

// subtree builds the unit's span subtree, unit span first, with times
// relative to the unit's start; the TraceMerger places it on the
// campaign timeline.
func (u *unitTrace) subtree(res Result) []report.Span {
	uid := fmt.Sprintf("c/u%d", res.Seq)
	unit := report.Span{
		ID:      uid,
		Parent:  "c",
		Kind:    report.SpanUnit,
		DurNS:   int64(u.total),
		Verdict: "fail",
	}
	if res.Unit.Script != nil {
		unit.Name, unit.Script = res.Unit.Script.Name, res.Unit.Script.Name
	}
	unit.Stand, unit.DUT = res.Unit.Stand, res.Unit.DUT
	rep := res.Report
	if rep == nil {
		rep = u.report
	}
	if rep != nil {
		// The report carries the resolved names ("" unit fields fall
		// back to Runner defaults the observer never sees).
		unit.Script, unit.Stand, unit.DUT = rep.Script, rep.Stand, rep.DUT
		if unit.Name == "" {
			unit.Name = rep.Script
		}
		if res.Err == nil && rep.Passed() {
			unit.Verdict = "pass"
		}
	}
	spans := make([]report.Span, 0, 2+len(u.steps))
	spans = append(spans, unit)

	if u.haveInit {
		spans = append(spans, report.Span{
			ID:     uid + "/init",
			Parent: uid,
			Kind:   report.SpanStep,
			Name:   "init",
			DurNS:  int64(u.initEnd),
		})
	}
	// Step verdicts fire before measurements are judged, so they are
	// back-filled from the completed report here.
	failed := make(map[int]bool)
	if rep != nil {
		for i := range rep.Steps {
			if rep.Steps[i].Failed() {
				failed[rep.Steps[i].Nr] = true
			}
		}
	}
	prev := u.initEnd
	for _, sm := range u.steps {
		verdict := "pass"
		if failed[sm.nr] {
			verdict = "fail"
		}
		spans = append(spans, report.Span{
			ID:      fmt.Sprintf("%s/s%d", uid, sm.nr),
			Parent:  uid,
			Kind:    report.SpanStep,
			Name:    sm.remark,
			Step:    sm.nr,
			StartNS: int64(prev),
			DurNS:   int64(sm.end - prev),
			Verdict: verdict,
		})
		prev = sm.end
	}
	return spans
}

// unitTrace records one unit's simulated-clock boundaries. It is only
// touched by the unit's executing goroutine, which also emits the
// unit's Result (and so builds its subtree) — no locking of its own.
type unitTrace struct {
	haveInit bool
	initEnd  time.Duration
	steps    []stepMark
	total    time.Duration
	report   *report.Report
}

type stepMark struct {
	nr     int
	remark string
	end    time.Duration
}

// RunStarted implements stand.Observer.
func (u *unitTrace) RunStarted(sc *script.Script, ubattVolts float64) {}

// OutputsSampled implements stand.Observer. The step == -1 sample marks
// the end of the init settle window; periodic in-step samples only
// advance the unit's running total.
func (u *unitTrace) OutputsSampled(now time.Duration, step int, outputs []stand.OutputState) {
	if step == -1 {
		u.haveInit, u.initEnd = true, now
	}
	if now > u.total {
		u.total = now
	}
}

// StepFinished implements stand.Observer.
func (u *unitTrace) StepFinished(step *script.Step, now time.Duration, outputs []stand.OutputState) {
	u.steps = append(u.steps, stepMark{nr: step.Nr, remark: step.Remark, end: now})
	if now > u.total {
		u.total = now
	}
}

// RunFinished implements stand.Observer.
func (u *unitTrace) RunFinished(rep *report.Report) { u.report = rep }
