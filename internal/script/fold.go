package script

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/unit"
)

// Fold returns a deep copy of the script with every numeric attribute
// expression evaluated against env and replaced by its constant value —
// the alternative design the paper implicitly rejects (DESIGN.md,
// ablation 2). Folding binds the script to one stand's variables: a
// script folded at ubatt=12 V carries u_max="13.2" and silently checks
// the wrong band on a 13.5 V stand. The ablation tests demonstrate
// exactly that failure mode; production code should keep limits symbolic.
func Fold(sc *Script, env expr.Env, reg *method.Registry) (*Script, error) {
	out := &Script{
		Name:    sc.Name,
		Version: sc.Version,
		Header:  sc.Header,
	}
	for _, d := range sc.Decls {
		cp := *d
		out.Decls = append(out.Decls, &cp)
	}
	foldStmt := func(st *SignalStmt) (*SignalStmt, error) {
		d, ok := reg.Lookup(st.Call.Method)
		if !ok {
			return nil, fmt.Errorf("script: fold: unknown method %q", st.Call.Method)
		}
		attrs := make(map[string]string, len(st.Call.Attrs))
		for name, v := range st.Call.Attrs {
			spec := d.Attr(name)
			if spec == nil || spec.Kind != method.Numeric {
				attrs[name] = v
				continue
			}
			if _, ok := unit.Number(v); ok {
				attrs[name] = v // already constant
				continue
			}
			e, err := expr.Compile(v)
			if err != nil {
				return nil, fmt.Errorf("script: fold: %s.%s: %v", st.Name, name, err)
			}
			f, err := e.Eval(env)
			if err != nil {
				return nil, fmt.Errorf("script: fold: %s.%s: %v", st.Name, name, err)
			}
			attrs[name] = formatFolded(f)
		}
		return &SignalStmt{Name: st.Name, Call: MethodCall{Method: d.Name, Attrs: attrs}}, nil
	}
	for _, st := range sc.Init {
		f, err := foldStmt(st)
		if err != nil {
			return nil, err
		}
		out.Init = append(out.Init, f)
	}
	for _, step := range sc.Steps {
		ns := &Step{Nr: step.Nr, Dt: step.Dt, Remark: step.Remark}
		for _, st := range step.Signals {
			f, err := foldStmt(st)
			if err != nil {
				return nil, err
			}
			ns.Signals = append(ns.Signals, f)
		}
		out.Steps = append(out.Steps, ns)
	}
	return out, nil
}

// formatFolded renders a folded constant with 10 significant digits so
// binary float noise (1.1*12 = 13.200000000000001) does not leak into the
// script.
func formatFolded(f float64) string {
	if math.IsInf(f, 0) {
		return unit.FormatNumber(f)
	}
	return strconv.FormatFloat(f, 'g', 10, 64)
}

// SymbolicAttrs counts the attribute values in the script that are still
// expressions (i.e. reference stand variables). A freshly generated
// script has one per scaled limit; a folded script has none.
func SymbolicAttrs(sc *Script) int {
	count := 0
	countIn := func(stmts []*SignalStmt) {
		for _, st := range stmts {
			for _, v := range st.Call.Attrs {
				if _, ok := unit.Number(v); ok {
					continue
				}
				if strings.HasSuffix(strings.ToUpper(strings.TrimSpace(v)), "B") {
					if _, _, err := unit.ParseBits(v); err == nil {
						continue
					}
				}
				if e, err := expr.Compile(v); err == nil && !e.IsConstant() {
					count++
				}
			}
		}
	}
	countIn(sc.Init)
	for _, step := range sc.Steps {
		countIn(step.Signals)
	}
	return count
}
