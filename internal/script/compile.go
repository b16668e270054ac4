package script

import (
	"repro/internal/method"
	"repro/internal/unit"
)

// Compiled is a validated script with the per-step statement
// classification precomputed. Interpreting a script step requires
// knowing, for every statement, whether its method stimulates, measures
// or controls — a registry lookup the stand would otherwise repeat on
// every run of every step. Compiling folds that work (and the one-time
// structural validation) into an artifact that can be executed many
// times, by many stands, concurrently: a Compiled and everything it
// points to is read-only after Compile returns.
type Compiled struct {
	// Script is the underlying script, unchanged.
	Script *Script
	// Steps mirrors Script.Steps with the classification attached.
	Steps []CompiledStep
}

// CompiledStep is one step with its statements split by method kind.
type CompiledStep struct {
	// Step is the underlying step.
	Step *Step
	// Stimuli and Measures partition the step's statements; control
	// statements contribute only to ExtraWait.
	Stimuli  []*SignalStmt
	Measures []*SignalStmt
	// ExtraWait is the summed wait time (seconds) of the step's control
	// statements, accumulated in statement order so the float arithmetic
	// matches the interpreter exactly.
	ExtraWait float64
}

// Compile validates sc against reg and precomputes the classification.
// A Compiled is bound to the registry it was compiled against; executing
// it on a stand with a different registry is undefined.
func Compile(sc *Script, reg *method.Registry) (*Compiled, error) {
	if err := Validate(sc, reg); err != nil {
		return nil, err
	}
	c := &Compiled{Script: sc, Steps: make([]CompiledStep, len(sc.Steps))}
	// The steps' partitions share one backing array, stimuli in its
	// first half and measures in its second, so a script costs one
	// allocation however many steps it has.
	n := 0
	for _, step := range sc.Steps {
		n += len(step.Signals)
	}
	buf := make([]*SignalStmt, 2*n)
	stim, meas := buf[:0:n], buf[n:n]
	for i, step := range sc.Steps {
		cs := CompiledStep{Step: step}
		s0, m0 := len(stim), len(meas)
		for _, st := range step.Signals {
			d, ok := reg.Lookup(st.Call.Method)
			if !ok {
				continue // Validate rejects unknown methods
			}
			switch d.Kind {
			case method.Stimulus:
				stim = append(stim, st)
			case method.Measure:
				meas = append(meas, st)
			case method.Control:
				if t, ok := st.Call.Attr("t"); ok {
					if f, ok := unit.Number(t); ok {
						cs.ExtraWait += f
					}
				}
			}
		}
		cs.Stimuli, cs.Measures = since(stim, s0), since(meas, m0)
		c.Steps[i] = cs
	}
	return c, nil
}

// since returns s[from:] capped at its length, or nil when empty.
func since(s []*SignalStmt, from int) []*SignalStmt {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}
