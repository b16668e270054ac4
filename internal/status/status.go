// Package status implements the status definition table of the paper's
// tool chain. Every expression used in a signal-definition or
// test-definition sheet ("Off", "Open", "Closed", "0", "1", "Lo", "Ho", …)
// is a status, and the status table defines what each one means:
//
//	status  method   attribut  var (x)  nom   min  max  D1 D2 D3
//	Off     put_can  data      —        0001B
//	Open    put_r    r         —        0     0    0.5  2
//	Closed  put_r    r         —        INF   5000 INF  5000
//	Lo      get_u    u         UBATT    0     0    0.3
//	Ho      get_u    u         UBATT    1     0.7  1.1
//
// Semantics, as reconstructed from the paper's prose and XML example:
//
//   - For a stimulus status (put_*), nom is the value to apply. min/max
//     document the tolerance band the physical stand may realise; D1–D3
//     carry extra method parameters (e.g. the PWM duty cycle).
//   - For a measurement status (get_*), min and max are the limits. If the
//     var(x) column names a variable, the limits are FACTORS of it: status
//     "Ho" is valid if the voltage lies between 0.7*Ubatt and 1.1*Ubatt —
//     which is exactly what the paper's generated XML encodes as
//     u_min="(0.7*ubatt)" u_max="(1.1*ubatt)". Without a var the limits
//     are absolute.
//   - For a get_can status, nom is the expected binary payload.
package status

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/sheet"
	"repro/internal/unit"
)

// Status is one row of the status table, raw cells preserved verbatim so
// the paper's table can be re-emitted exactly.
type Status struct {
	Name   string
	Method string
	Attr   string
	Var    string
	Nom    string
	Min    string
	Max    string
	D      [3]string

	// Desc is the resolved method descriptor (set by Table parsing).
	Desc *method.Descriptor

	// Row is the 1-based sheet row the status was parsed from and Line
	// the 1-based source line of the workbook file (0 for
	// programmatically built rows). The static analyzers use them to
	// anchor findings.
	Row  int
	Line int
}

// Table is the parsed status definition sheet.
type Table struct {
	byName map[string]*Status // by lower-cased name
	exact  map[string]*Status // by the name as added
	order  []string
	reg    *method.Registry

	// SheetName is the name of the sheet the table was parsed from
	// ("" for programmatically built tables).
	SheetName string
}

// NewTable returns an empty table bound to a method registry.
func NewTable(reg *method.Registry) *Table {
	return &Table{byName: map[string]*Status{}, exact: map[string]*Status{}, reg: reg}
}

// Add validates a status row against the method registry and inserts it.
func (t *Table) Add(s *Status) error {
	name := strings.TrimSpace(s.Name)
	if name == "" {
		return fmt.Errorf("status: row without status name")
	}
	key := strings.ToLower(name)
	if _, dup := t.byName[key]; dup {
		return fmt.Errorf("status: duplicate status %q", name)
	}
	d, ok := t.reg.Lookup(s.Method)
	if !ok {
		return fmt.Errorf("status %q: unknown method %q", name, s.Method)
	}
	s.Desc = d
	s.Name = name
	s.Method = d.Name
	if err := t.validate(s); err != nil {
		return err
	}
	t.byName[key] = s
	t.exact[name] = s
	t.order = append(t.order, name)
	return nil
}

func (t *Table) validate(s *Status) error {
	d := s.Desc
	// The attribut column must name the method's primary quantity.
	if a := strings.TrimSpace(s.Attr); a != "" && a != d.RangeAttr {
		return fmt.Errorf("status %q: attribute %q does not match method %s (expects %q)",
			s.Name, a, d.Name, d.RangeAttr)
	}
	checkNumericOrExpr := func(col, v string) error {
		if strings.TrimSpace(v) == "" {
			return nil
		}
		if _, ok := unit.Number(v); ok {
			return nil
		}
		if _, err := expr.Compile(v); err != nil {
			return fmt.Errorf("status %q: %s column %q is neither a number nor an expression", s.Name, col, v)
		}
		return nil
	}
	isBits := d.Attr(d.RangeAttr) != nil && d.Attr(d.RangeAttr).Kind == method.Bits
	switch d.Kind {
	case method.Stimulus:
		if strings.TrimSpace(s.Nom) == "" {
			return fmt.Errorf("status %q: stimulus method %s requires a nom value", s.Name, d.Name)
		}
		if isBits {
			if _, _, err := unit.ParseBits(s.Nom); err != nil {
				return fmt.Errorf("status %q: %v", s.Name, err)
			}
		} else if err := checkNumericOrExpr("nom", s.Nom); err != nil {
			return err
		}
	case method.Measure:
		if isBits {
			if strings.TrimSpace(s.Nom) == "" {
				return fmt.Errorf("status %q: CAN measurement requires an expected payload in nom", s.Name)
			}
			if _, _, err := unit.ParseBits(s.Nom); err != nil {
				return fmt.Errorf("status %q: %v", s.Name, err)
			}
		} else {
			if strings.TrimSpace(s.Min) == "" || strings.TrimSpace(s.Max) == "" {
				return fmt.Errorf("status %q: measurement method %s requires min and max limits", s.Name, d.Name)
			}
		}
	case method.Control:
		if strings.TrimSpace(s.Nom) == "" {
			return fmt.Errorf("status %q: control method %s requires a nom value", s.Name, d.Name)
		}
	}
	for _, col := range []struct{ n, v string }{{"min", s.Min}, {"max", s.Max}} {
		if !isBits {
			if err := checkNumericOrExpr(col.n, col.v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Lookup finds a status by name (case-insensitive). The spelling the
// status was added with is found without lower-casing.
func (t *Table) Lookup(name string) (*Status, bool) {
	if s, ok := t.exact[name]; ok {
		return s, true
	}
	s, ok := t.byName[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// Names returns the status names in table order.
func (t *Table) Names() []string {
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Len returns the number of statuses.
func (t *Table) Len() int { return len(t.order) }

// Registry returns the method registry the table was built against.
func (t *Table) Registry() *method.Registry { return t.reg }

// ------------------------------------------------------- code generation --

// MethodCallAttrs computes the attribute assignment the XML generator
// emits for this status — the transformation from Table 2 of the paper to
// the script fragment of Section 3.
func (s *Status) MethodCallAttrs() (map[string]string, error) {
	d := s.Desc
	attrs := map[string]string{}
	isBits := d.Attr(d.RangeAttr) != nil && d.Attr(d.RangeAttr).Kind == method.Bits

	switch {
	case isBits:
		attrs["data"] = strings.TrimSpace(s.Nom)
	case d.Kind == method.Measure:
		lo, err := limitExpr(s.Min, s.Var)
		if err != nil {
			return nil, fmt.Errorf("status %q: min: %v", s.Name, err)
		}
		hi, err := limitExpr(s.Max, s.Var)
		if err != nil {
			return nil, fmt.Errorf("status %q: max: %v", s.Name, err)
		}
		attrs[d.RangeAttr+"_min"] = lo
		attrs[d.RangeAttr+"_max"] = hi
	default: // stimulus or control, numeric
		v, err := normalizeNumeric(s.Nom)
		if err != nil {
			return nil, fmt.Errorf("status %q: nom: %v", s.Name, err)
		}
		attrs[d.RangeAttr] = v
	}

	// Remaining attributes are filled from D1–D3 in schema order.
	di := 0
	for _, a := range d.Attrs {
		if _, done := attrs[a.Name]; done {
			continue
		}
		for di < len(s.D) && strings.TrimSpace(s.D[di]) == "" {
			di++
		}
		if di >= len(s.D) {
			if a.Required {
				return nil, fmt.Errorf("status %q: method %s requires attribute %q but no D parameter is left",
					s.Name, d.Name, a.Name)
			}
			continue
		}
		v, err := normalizeNumeric(s.D[di])
		if err != nil {
			return nil, fmt.Errorf("status %q: D%d: %v", s.Name, di+1, err)
		}
		attrs[a.Name] = v
		di++
	}
	if err := d.ValidateAttrs(attrs); err != nil {
		return nil, err
	}
	return attrs, nil
}

// limitExpr builds the symbolic limit string for a measurement limit cell:
// with a var it is "(factor*var)" — the paper's "(0.7*ubatt)" — otherwise
// the normalised absolute value.
func limitExpr(cell, varName string) (string, error) {
	v := strings.ToLower(strings.TrimSpace(varName))
	n, err := normalizeNumeric(cell)
	if err != nil {
		return "", err
	}
	if v == "" {
		return n, nil
	}
	if _, err := expr.Compile(v); err != nil {
		return "", fmt.Errorf("var %q: %v", varName, err)
	}
	return "(" + n + "*" + v + ")", nil
}

// normalizeNumeric turns a raw sheet cell into canonical English-decimal
// form for the XML script: numbers through unit.ParseNumber/FormatNumber
// (so "0,5" becomes "0.5" and "INF" stays "INF"), expressions re-rendered
// by the expr package.
func normalizeNumeric(cell string) (string, error) {
	c := strings.TrimSpace(cell)
	if c == "" {
		return "", fmt.Errorf("empty value")
	}
	if f, ok := unit.Number(c); ok {
		return unit.FormatNumber(f), nil
	}
	e, err := expr.Compile(c)
	if err != nil {
		return "", fmt.Errorf("%q is neither a number nor an expression", cell)
	}
	return e.String(), nil
}

// EvalLimits evaluates a measurement status' limits against an
// environment (e.g. {"ubatt": 12}). It mirrors what the test stand does
// with the generated attribute expressions.
func (s *Status) EvalLimits(env expr.Env) (lo, hi float64, err error) {
	if !s.Desc.IsMeasure() {
		return 0, 0, fmt.Errorf("status %q: not a measurement status", s.Name)
	}
	attrs, err := s.MethodCallAttrs()
	if err != nil {
		return 0, 0, err
	}
	loSrc := attrs[s.Desc.RangeAttr+"_min"]
	hiSrc := attrs[s.Desc.RangeAttr+"_max"]
	le, err := expr.Compile(loSrc)
	if err != nil {
		return 0, 0, err
	}
	he, err := expr.Compile(hiSrc)
	if err != nil {
		return 0, 0, err
	}
	if lo, err = le.Eval(env); err != nil {
		return 0, 0, err
	}
	if hi, err = he.Eval(env); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// StimulusValue returns the numeric value a stimulus status applies
// (resistance for put_r, voltage for put_u, …). For bits statuses use
// BitsValue.
func (s *Status) StimulusValue() (float64, error) {
	if !s.Desc.IsStimulus() && s.Desc.Kind != method.Control {
		return 0, fmt.Errorf("status %q: not a stimulus status", s.Name)
	}
	return unit.ParseNumber(s.Nom)
}

// BitsValue returns the payload of a CAN status.
func (s *Status) BitsValue() (value uint64, width int, err error) {
	return unit.ParseBits(s.Nom)
}

// ------------------------------------------------------------- sheet I/O --

// Column headers accepted in a status definition sheet. The spellings
// follow the paper ("attribut", "var (x)", "D 1").
var headerAliases = map[string][]string{
	"status": {"status"},
	"method": {"method"},
	"attr":   {"attribut", "attribute", "attr"},
	"var":    {"var (x)", "var(x)", "var", "x"},
	"nom":    {"nom", "nominal"},
	"min":    {"min"},
	"max":    {"max"},
	"d1":     {"d 1", "d1"},
	"d2":     {"d 2", "d2"},
	"d3":     {"d 3", "d3"},
}

func findColumn(s *sheet.Sheet, key string) int {
	for _, alias := range headerAliases[key] {
		if i := s.HeaderIndex(alias); i >= 0 {
			return i
		}
	}
	return -1
}

// ParseSheet reads a status definition sheet (first row = headers) into a
// Table validated against reg.
func ParseSheet(s *sheet.Sheet, reg *method.Registry) (*Table, error) {
	if s == nil {
		return nil, fmt.Errorf("status: nil sheet")
	}
	cols := map[string]int{}
	for key := range headerAliases {
		cols[key] = findColumn(s, key)
	}
	for _, required := range []string{"status", "method"} {
		if cols[required] < 0 {
			return nil, fmt.Errorf("status: sheet %q lacks a %q column", s.Name, required)
		}
	}
	t := NewTable(reg)
	t.SheetName = s.Name
	for r := 1; r < s.NumRows(); r++ {
		if s.IsEmptyRow(r) {
			continue
		}
		get := func(key string) string {
			if cols[key] < 0 {
				return ""
			}
			return s.At(r, cols[key])
		}
		st := &Status{
			Name:   get("status"),
			Method: get("method"),
			Attr:   get("attr"),
			Var:    get("var"),
			Nom:    get("nom"),
			Min:    get("min"),
			Max:    get("max"),
			D:      [3]string{get("d1"), get("d2"), get("d3")},
			Row:    r + 1,
			Line:   s.RowLine(r),
		}
		if err := t.Add(st); err != nil {
			return nil, fmt.Errorf("status: sheet %q row %d: %v", s.Name, r+1, err)
		}
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("status: sheet %q contains no status rows", s.Name)
	}
	return t, nil
}

// ToSheet re-emits the table as a sheet with the paper's column layout,
// preserving the original raw cells.
func (t *Table) ToSheet(name string) *sheet.Sheet {
	s := sheet.NewSheet(name)
	s.AppendRow("status", "method", "attribut", "var (x)", "nom", "min", "max", "D 1", "D 2", "D 3")
	for _, n := range t.order {
		st := t.exact[n]
		s.AppendRow(st.Name, st.Method, st.Attr, st.Var, st.Nom, st.Min, st.Max, st.D[0], st.D[1], st.D[2])
	}
	return s
}

// Statuses returns the statuses in table order.
func (t *Table) Statuses() []*Status {
	out := make([]*Status, 0, len(t.order))
	for _, n := range t.order {
		out = append(out, t.exact[n])
	}
	return out
}

// UsedMethods returns the sorted set of method names referenced by the
// table — what a test stand must support to run tests written against it.
func (t *Table) UsedMethods() []string {
	set := map[string]bool{}
	for _, s := range t.byName {
		set[s.Method] = true
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
