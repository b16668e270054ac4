package script

import (
	"strings"

	"repro/internal/method"
	"repro/internal/unit"
)

// Compiled is a validated script with every statement resolved.
// Interpreting a script step requires knowing, for every statement,
// whether its method stimulates, measures or controls, which signal
// declaration it refers to and what a stand's router reads of it —
// lookups the stand would otherwise repeat on every run of every step.
// Compiling folds that work (and the one-time structural validation)
// into an artifact that can be executed many times, by many stands,
// concurrently: a Compiled and everything it points to is read-only
// after Compile returns.
type Compiled struct {
	// Script is the underlying script, unchanged.
	Script *Script
	// Init resolves Script.Init, in statement order.
	Init []Stmt
	// Steps mirrors Script.Steps with the classification attached.
	Steps []CompiledStep
}

// CompiledStep is one step with its statements split by method kind.
type CompiledStep struct {
	// Step is the underlying step.
	Step *Step
	// Stimuli and Measures partition the step's statements; control
	// statements contribute only to ExtraWait.
	Stimuli  []Stmt
	Measures []Stmt
	// ExtraWait is the summed wait time (seconds) of the step's control
	// statements, accumulated in statement order so the float arithmetic
	// matches the interpreter exactly.
	ExtraWait float64
}

// Stmt is an init, stimulus or measure statement resolved by Compile.
// Decl and Method are never nil: Compile rejects undeclared signals and
// unknown methods.
type Stmt struct {
	*SignalStmt
	// Key is the lower-case signal name.
	Key    string
	Decl   *SignalDecl
	Method *method.Descriptor
	// Content is the statement's part of a stand's plan key
	// (AppendContent).
	Content []byte
}

// Compile validates sc against reg and resolves its statements.
// A Compiled is bound to the registry it was compiled against; executing
// it on a stand with a different registry is undefined.
func Compile(sc *Script, reg *method.Registry) (*Compiled, error) {
	if err := Validate(sc, reg); err != nil {
		return nil, err
	}
	// The statements share one array, each step's stimuli followed by
	// its measures, and their contents one exactly sized slab, so a
	// script costs the same allocations however many steps it has.
	n := len(sc.Init)
	for _, step := range sc.Steps {
		n += len(step.Signals)
	}
	stmts := make([]Stmt, 0, n)
	for _, st := range sc.Init {
		d, _ := reg.Lookup(st.Call.Method)
		stmts = append(stmts, resolve(sc, st, d))
	}
	c := &Compiled{Script: sc, Init: since(stmts, 0), Steps: make([]CompiledStep, len(sc.Steps))}
	for i, step := range sc.Steps {
		cs := CompiledStep{Step: step}
		from := len(stmts)
		for _, st := range step.Signals {
			switch d, _ := reg.Lookup(st.Call.Method); d.Kind {
			case method.Stimulus:
				stmts = append(stmts, resolve(sc, st, d))
			case method.Control:
				if t, ok := st.Call.Attr("t"); ok {
					if f, ok := unit.Number(t); ok {
						cs.ExtraWait += f
					}
				}
			}
		}
		cs.Stimuli, from = since(stmts, from), len(stmts)
		for _, st := range step.Signals {
			if d, _ := reg.Lookup(st.Call.Method); d.Kind == method.Measure {
				stmts = append(stmts, resolve(sc, st, d))
			}
		}
		cs.Measures = since(stmts, from)
		c.Steps[i] = cs
	}
	size := 0
	for i := range stmts {
		size += contentLen(stmts[i].SignalStmt, stmts[i].Decl)
	}
	slab := make([]byte, 0, size)
	for i := range stmts {
		from := len(slab)
		slab = AppendContent(slab, stmts[i].SignalStmt, stmts[i].Decl)
		stmts[i].Content = slab[from:len(slab):len(slab)]
	}
	return c, nil
}

// resolve looks up the declaration of a validated statement with
// method d.
func resolve(sc *Script, st *SignalStmt, d *method.Descriptor) Stmt {
	return Stmt{SignalStmt: st, Key: strings.ToLower(st.Name), Decl: sc.Decl(st.Name), Method: d}
}

// since returns s[from:] capped at its length, or nil when empty.
func since(s []Stmt, from int) []Stmt {
	if len(s) == from {
		return nil
	}
	return s[from:len(s):len(s)]
}
