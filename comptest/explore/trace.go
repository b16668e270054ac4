package explore

import (
	"slices"
	"time"

	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
)

// Sample is one trace observation: the DUT output levels at one point
// in simulated time. Step is -1 for the post-init settle sample, the
// step number otherwise.
type Sample struct {
	Now     time.Duration
	Step    int
	Outputs []stand.OutputState
}

// Trace records the behavioural trace of one execution through the
// stand.Observer hook: every periodic output sample plus the settled
// state at the end of each step. One Trace instance serves one
// campaign unit at a time (stand callbacks are serialised per unit),
// and is read only after the campaign delivered the unit's result.
// RunStarted resets it, so a Trace can record run after run: the
// Explorer keeps one per batch slot and one for shrink attempts.
//
// The stand's outputs slice is valid only during a callback, so the
// trace copies every sample into a slab it owns. A sample whose levels
// equal the previous sample's shares that sample's copy: most samples
// of a walk repeat the levels before them. Copies are never modified.
type Trace struct {
	Ubatt   float64
	Samples []Sample
	stepEnd map[int][]stand.OutputState
	slab    []stand.OutputState
}

var _ stand.Observer = (*Trace)(nil)

// RunStarted implements stand.Observer.
func (t *Trace) RunStarted(sc *script.Script, ubattVolts float64) {
	t.Ubatt = ubattVolts
	t.Samples = t.Samples[:0]
	if t.stepEnd == nil {
		t.stepEnd = map[int][]stand.OutputState{}
	}
	clear(t.stepEnd)
	// Copies of an earlier run stay intact: new ones go after them.
	t.slab = t.slab[len(t.slab):]
}

// OutputsSampled implements stand.Observer.
func (t *Trace) OutputsSampled(now time.Duration, step int, outputs []stand.OutputState) {
	t.Samples = append(t.Samples, Sample{Now: now, Step: step, Outputs: t.keep(outputs)})
}

// StepFinished implements stand.Observer.
func (t *Trace) StepFinished(step *script.Step, now time.Duration, outputs []stand.OutputState) {
	kept := t.keep(outputs)
	t.Samples = append(t.Samples, Sample{Now: now, Step: step.Nr, Outputs: kept})
	t.stepEnd[step.Nr] = kept
}

// RunFinished implements stand.Observer.
func (t *Trace) RunFinished(rep *report.Report) {}

// The slab grows in chunks, doubling from slabMin output states up to
// slabMax, or larger when one sample needs more.
const (
	slabMin = 16
	slabMax = 1024
)

// keep returns a copy of outputs the trace owns: the previous sample's
// copy when the levels are equal, a fresh one in the slab otherwise. The
// copy is never nil, so StepEnd tells a finished step without outputs
// from one that never finished.
func (t *Trace) keep(outputs []stand.OutputState) []stand.OutputState {
	if n := len(t.Samples); n > 0 {
		if prev := t.Samples[n-1].Outputs; slices.Equal(prev, outputs) {
			return prev
		}
	}
	if t.slab == nil || cap(t.slab)-len(t.slab) < len(outputs) {
		n := min(max(2*cap(t.slab), slabMin), slabMax)
		t.slab = make([]stand.OutputState, 0, max(n, len(outputs)))
	}
	i := len(t.slab)
	t.slab = append(t.slab, outputs...)
	return t.slab[i:len(t.slab):len(t.slab)]
}

// StepEnd returns the settled output levels at the end of the numbered
// step, or nil when the step never finished.
func (t *Trace) StepEnd(nr int) []stand.OutputState { return t.stepEnd[nr] }
