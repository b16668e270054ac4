package explore

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/comptest"
	"repro/internal/expr"
	"repro/internal/script"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/stand"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/unit"
)

// Promotion is a discovered scenario promoted to first-class workbook
// artefacts: the stimulus walk with the observed DUT behaviour pinned
// as measurement assignments on every step, the regenerated XML script,
// and any status-table rows that had to be synthesised because no
// existing status matched an observed level.
type Promotion struct {
	// Test is the promoted test case: the walk's stimulus assignments
	// plus one measurement assignment per observable output per step.
	Test *testdef.TestCase
	// Script is Test compiled against Table.
	Script *script.Script
	// Table is the status table the script was generated against: the
	// suite's rows plus every synthesised row (shared across the
	// exploration run, so promotions compose into one workbook).
	Table *status.Table
}

// IsCheck reports whether the assignment is one of the pinned
// measurement checks (as opposed to a walk stimulus).
func (p *Promotion) IsCheck(a testdef.Assignment) bool {
	st, ok := p.Table.Lookup(a.Status)
	return ok && st.Desc.IsMeasure()
}

// pinner converts traces into promotions. It owns the growing status
// table: statuses synthesised for one candidate are reused by every
// later candidate that observes the same level, and the synthesised
// rows are keyed by rounded value so regenerated sheets stay small.
// All pinning happens on the exploration goroutine — the pinner needs
// no locking.
type pinner struct {
	suite   *comptest.Suite
	tbl     *status.Table
	scripts *script.Generator // generates against tbl as it grows
	added   []*status.Status
	// measures names tbl's measurement statuses in table order;
	// synthesise appends to it.
	measures []string
	// limits memoises each get_u status' limits, evaluated at one
	// supply voltage.
	limits map[limitKey]limitVal
	// byLevel caches synthesised status names: "u/<volts>" for
	// electrical levels, "b/<signal>/<value>" for CAN payloads.
	byLevel map[string]string
	nextSyn int
}

// newPinner clones the suite's status table so synthesis never touches
// the original.
func newPinner(suite *comptest.Suite) (*pinner, error) {
	tbl := status.NewTable(suite.Registry)
	for _, st := range suite.Statuses.Statuses() {
		c := *st
		if err := tbl.Add(&c); err != nil {
			return nil, err
		}
	}
	p := &pinner{suite: suite, tbl: tbl, scripts: script.NewGenerator(suite.Signals, tbl),
		limits: map[limitKey]limitVal{}, byLevel: map[string]string{}}
	for _, name := range tbl.Names() {
		if st, _ := tbl.Lookup(name); st.Desc.IsMeasure() {
			p.measures = append(p.measures, name)
		}
	}
	return p, nil
}

type limitKey struct {
	st    *status.Status
	ubatt float64
}

type limitVal struct {
	lo, hi float64
	err    error
}

// pin converts a stimulus walk and its trace into a Promotion: for
// every step end, every observable DUT output is asserted with a
// measurement status whose limits contain the observed level. The
// promoted test therefore passes on the clean DUT by construction —
// and fails on any mutant that behaves observably differently, which
// is what makes promoted scenarios useful mutation killers.
func (p *pinner) pin(tc *testdef.TestCase, tr *Trace) (*Promotion, error) {
	// The promoted steps' assignments share one array: the walk's own,
	// then at most one check per output observed at the step's end.
	n, maxOuts := 0, 0
	for _, step := range tc.Steps {
		o := len(tr.StepEnd(step.Index))
		n, maxOuts = n+len(step.Assign)+o, max(maxOuts, o)
	}
	slab := make([]testdef.Assignment, 0, n)
	clone := &testdef.TestCase{
		Name:    tc.Name,
		Signals: append(make([]string, 0, len(tc.Signals)+maxOuts), tc.Signals...),
		Steps:   make([]testdef.Step, len(tc.Steps)),
	}
	for i, step := range tc.Steps {
		outs := tr.StepEnd(step.Index)
		if outs == nil {
			return nil, fmt.Errorf("explore: no trace for step %d of %s", step.Index, tc.Name)
		}
		from := len(slab)
		slab = append(slab, step.Assign...)
		for _, o := range outs {
			if !o.Valid {
				continue
			}
			sig, ok := p.suite.Signals.Lookup(o.Signal)
			if !ok {
				continue
			}
			name, err := p.statusFor(sig, o, tr.Ubatt)
			if err != nil {
				return nil, err
			}
			slab = append(slab, testdef.Assignment{Signal: sig.Name, Status: name})
			if !slices.ContainsFunc(clone.Signals, func(col string) bool { return strings.EqualFold(col, sig.Name) }) {
				clone.Signals = append(clone.Signals, sig.Name)
			}
		}
		step.Assign = nil
		if len(slab) > from {
			step.Assign = slab[from:len(slab):len(slab)]
		}
		clone.Steps[i] = step
	}
	sc, err := p.scripts.Generate(clone)
	if err != nil {
		return nil, err
	}
	return &Promotion{Test: clone, Script: sc, Table: p.tbl}, nil
}

// statusFor finds a measurement status asserting the observed level:
// the first existing status (table order) whose limits contain it, or
// a freshly synthesised row.
func (p *pinner) statusFor(sig *sigdef.Signal, o stand.OutputState, ubatt float64) (string, error) {
	for _, name := range p.measures {
		st, _ := p.tbl.Lookup(name)
		if sigdef.CheckAssignment(sig, name, p.tbl) != nil {
			continue
		}
		if o.CAN {
			if st.Method != "get_can" {
				continue
			}
			v, width, err := st.BitsValue()
			if err != nil || v != o.Value {
				continue
			}
			if sig.Length > 0 && width > sig.Length {
				continue
			}
			return name, nil
		}
		if st.Method != "get_u" {
			continue
		}
		k := limitKey{st, ubatt}
		l, ok := p.limits[k]
		if !ok {
			l.lo, l.hi, l.err = st.EvalLimits(expr.MapEnv{"ubatt": ubatt})
			p.limits[k] = l
		}
		if l.err != nil {
			continue
		}
		if o.Volts >= l.lo && o.Volts <= l.hi {
			return name, nil
		}
	}
	return p.synthesise(sig, o, ubatt)
}

// synthesise adds a new status row for an observed level no existing
// status covers: a get_u band of ±5 % of the supply around the voltage,
// or a get_can status expecting the exact payload.
func (p *pinner) synthesise(sig *sigdef.Signal, o stand.OutputState, ubatt float64) (string, error) {
	var key string
	var st *status.Status
	if o.CAN {
		key = fmt.Sprintf("b/%s/%d", strings.ToLower(sig.Name), o.Value)
		if name, ok := p.byLevel[key]; ok {
			return name, nil
		}
		st = &status.Status{
			Method: "get_can",
			Nom:    unit.FormatBits(o.Value, sig.Length),
		}
	} else {
		margin := 0.05 * ubatt
		v := math.Round(o.Volts*100) / 100
		key = fmt.Sprintf("u/%g", v)
		if name, ok := p.byLevel[key]; ok {
			return name, nil
		}
		st = &status.Status{
			Method: "get_u",
			Nom:    unit.FormatNumber(v),
			Min:    unit.FormatNumber(math.Round((v-margin)*100) / 100),
			Max:    unit.FormatNumber(math.Round((v+margin)*100) / 100),
		}
	}
	// Synthesised names carry an X prefix and a counter; the table
	// rejects duplicates, so collisions with authored statuses surface
	// immediately.
	st.Name = fmt.Sprintf("Xm%d", p.nextSyn)
	p.nextSyn++
	if err := p.tbl.Add(st); err != nil {
		return "", fmt.Errorf("explore: synthesising status for %s: %v", sig.Name, err)
	}
	p.added = append(p.added, st)
	p.measures = append(p.measures, st.Name)
	p.byLevel[key] = st.Name
	return st.Name, nil
}

// Workbook renders the suite plus the corpus' promoted tests as one
// complete workbook: the original signal sheet, the status table
// extended by exactly the synthesised rows the promoted tests
// reference, the original tests and one Test_ sheet per corpus entry.
// The result loads with comptest.LoadSuiteString, so discovered
// scenarios are first-class workbook tests — runnable, lintable and
// mutable like hand-written ones.
func (r *Result) Workbook() (string, error) {
	wb := &sheet.Workbook{}
	if err := wb.Add(r.suite.Signals.ToSheet(comptest.SignalSheetName)); err != nil {
		return "", err
	}

	used := map[string]bool{}
	for _, e := range r.Corpus.Entries {
		for _, step := range e.Promotion.Test.Steps {
			for _, a := range step.Assign {
				used[strings.ToLower(a.Status)] = true
			}
		}
	}
	tbl := status.NewTable(r.suite.Registry)
	for _, st := range r.suite.Statuses.Statuses() {
		c := *st
		if err := tbl.Add(&c); err != nil {
			return "", err
		}
	}
	for _, st := range r.added {
		if !used[strings.ToLower(st.Name)] {
			continue
		}
		c := *st
		if err := tbl.Add(&c); err != nil {
			return "", err
		}
	}
	if err := wb.Add(tbl.ToSheet(comptest.StatusSheetName)); err != nil {
		return "", err
	}

	for _, tc := range r.suite.Tests {
		if err := wb.Add(tc.ToSheet()); err != nil {
			return "", err
		}
	}
	for _, e := range r.Corpus.Entries {
		if err := wb.Add(e.Promotion.Test.ToSheet()); err != nil {
			return "", err
		}
	}
	return sheet.WorkbookString(wb), nil
}
