// Package mutation implements mutation testing of component-test
// suites: it enumerates systematic deviations ("mutants") from the
// requirements, fans them out over the campaign worker pool, and
// reports which deviations the suite detects (kills) and which survive.
//
// Two mutant kinds are evaluated:
//
//   - Fault mutants deviate the DUT model: every fault injection the
//     model registers (ecu.FaultInfo) becomes one mutant, run against
//     the unmodified suite. A kill means the suite detects the
//     requirement violation; a survivor exposes a genuine coverage gap.
//
//   - Script mutants deviate the test definition itself, modelling
//     authoring errors: a measurement limit widened, a test step
//     dropped, a stimulus status flipped. The mutated suite runs
//     against the healthy DUT; a survivor means the suite's verdict
//     does not depend on that detail — the check has slack, the step is
//     redundant, or the stimulus is never observed.
//
// Both kinds share one kill criterion: the campaign's verdict differs
// from the clean baseline, which must pass. The strength report
// (report.Strength) aggregates kill scores per DUT and per requirement
// and explains survivors by cross-referencing the suite's lint coverage
// findings — the only_fl mutant of the paper's interior-illumination
// example survives precisely because of the unstimulated rear-door
// inputs that lint flags.
//
//lint:deterministic
package mutation

import (
	"fmt"

	"repro/comptest"
	"repro/internal/ecu"
	"repro/internal/script"
)

// Kind classifies a mutant.
type Kind int

const (
	// FaultMutant is a DUT model deviation (ecu fault injection).
	FaultMutant Kind = iota
	// ScriptMutant is a workbook deviation (transformed test artefact).
	ScriptMutant
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == ScriptMutant {
		return "script"
	}
	return "fault"
}

// Mutant is one deviation to evaluate against the suite.
type Mutant struct {
	// ID is the stable identifier, e.g. "fault/only_fl" or
	// "script/InteriorIllumination/drop/step7".
	ID   string
	Kind Kind
	// Fault describes the injected fault (FaultMutant only).
	Fault ecu.FaultInfo
	// Op is the workbook transformation (ScriptMutant only):
	// "widen_limit", "drop_step" or "flip_stimulus".
	Op string
	// Test names the transformed test case (ScriptMutant only; empty
	// for widen_limit mutants spanning several tests).
	Test string
	// Detail describes the deviation for reports.
	Detail string
	// Signals lists the workbook signals the deviation involves; the
	// strength report matches them against lint coverage findings to
	// explain survivors.
	Signals []string

	scripts []*script.Script
}

// Plan is the enumerated mutant matrix for one DUT model and suite.
type Plan struct {
	// DUT is the registered model name.
	DUT string
	// Stand is the registered stand profile every run uses.
	Stand string
	// Suite is the (unmutated) workbook the mutants were derived from.
	Suite *comptest.Suite
	// Baseline is the clean script set; it must pass for the kill
	// matrix to be meaningful, which Run verifies.
	Baseline []*script.Script
	// Mutants is the enumerated matrix: fault mutants first (in
	// ecu.Faults order), then script mutants (in workbook order).
	Mutants []Mutant

	// compiled holds the compiled form of every distinct baseline and
	// mutant script, nil for one that does not compile. Enumerate fills
	// it once, so every Run of the plan hands its units the same
	// compiled scripts.
	compiled map[*script.Script]*script.Compiled
}

// DefaultStand returns the stand profile a DUT's built-in suite is
// known to pass on: the paper's own stand for the paper's DUT, the
// full lab for everything else.
func DefaultStand(dut string) string {
	if dut == "interior_light" {
		return "paper_stand"
	}
	return "full_lab"
}

// Enumerate builds the mutant matrix for one registered DUT model and
// its suite: every registered fault of the model, plus the script-level
// mutants derived from the workbook. An empty stand name selects
// DefaultStand.
func Enumerate(dut, standName string, suite *comptest.Suite) (*Plan, error) {
	if suite == nil {
		return nil, fmt.Errorf("mutation: Enumerate needs a suite")
	}
	if standName == "" {
		standName = DefaultStand(dut)
	}
	faults, err := comptest.DUTFaults(dut)
	if err != nil {
		return nil, err
	}
	// One Generator serves the baseline and the drop and flip mutants,
	// so their scripts share declarations, init blocks and statements.
	g := script.NewGenerator(suite.Signals, suite.Statuses)
	baseline := make([]*script.Script, 0, len(suite.Tests))
	for _, tc := range suite.Tests {
		sc, err := g.Generate(tc)
		if err != nil {
			return nil, err
		}
		baseline = append(baseline, sc)
	}
	p := &Plan{DUT: dut, Stand: standName, Suite: suite, Baseline: baseline}
	for _, f := range faults {
		p.Mutants = append(p.Mutants, Mutant{
			ID:      "fault/" + f.Name,
			Kind:    FaultMutant,
			Fault:   f,
			Detail:  f.Doc,
			Signals: f.Signals,
			scripts: baseline,
		})
	}

	scriptMuts, err := scriptMutants(suite, g.Generate)
	if err != nil {
		return nil, err
	}
	p.Mutants = append(p.Mutants, scriptMuts...)

	// Fault mutants share the baseline's scripts, so they compile once.
	p.compiled = make(map[*script.Script]*script.Compiled)
	compile := func(scripts []*script.Script) {
		for _, sc := range scripts {
			if _, ok := p.compiled[sc]; !ok {
				p.compiled[sc], _ = script.Compile(sc, suite.Registry)
			}
		}
	}
	compile(baseline)
	for _, m := range p.Mutants {
		compile(m.scripts)
	}
	return p, nil
}

// EnumerateBuiltin builds one plan per registered DUT model with a
// built-in workbook, each on its default stand — the full combinatorial
// matrix the kill-matrix benchmark runs.
func EnumerateBuiltin() ([]*Plan, error) {
	var plans []*Plan
	for _, dut := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			continue // model without a built-in suite: nothing to mutate
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			return nil, err
		}
		p, err := Enumerate(dut, "", suite)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	return plans, nil
}
