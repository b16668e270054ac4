// Package resource models the test stand's resource catalog. The paper:
// "the test stand needs information about its own ressources … Ressources
// in this context are described by the methods that are supported by them
// and the valid range for all parameters." Table 3 of the paper lists one
// DVM (get_u, ±60 V) and two resistor decades (put_r, 0…1 MΩ and
// 0…200 kΩ); this package parses such tables and answers the questions
// the allocator asks: does resource X support method M with parameters P?
package resource

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/sheet"
	"repro/internal/unit"
)

// Kind classifies the virtual instrument realising a resource; the stand
// uses it to build the corresponding electrical/CAN model.
type Kind string

// The instrument kinds understood by the simulated stand.
const (
	DVM            Kind = "dvm"             // voltage/resistance/current meter
	ResistorDecade Kind = "resistor_decade" // programmable resistance to ground
	PowerSupply    Kind = "power_supply"    // programmable voltage source
	ELoad          Kind = "e_load"          // programmable current sink
	CANAdapter     Kind = "can_adapter"     // put_can/get_can interface
	Counter        Kind = "counter"         // timing/frequency measurements
	PWMGenerator   Kind = "pwm_generator"   // PWM stimulus
)

// kindForMethod infers the instrument kind from the first method a
// resource supports, for catalogs without an explicit kind column.
func kindForMethod(m string) Kind {
	switch m {
	case "get_u", "get_r", "get_i":
		return DVM
	case "put_r":
		return ResistorDecade
	case "put_u":
		return PowerSupply
	case "put_i":
		return ELoad
	case "put_can", "get_can":
		return CANAdapter
	case "get_t", "get_f":
		return Counter
	case "put_pwm":
		return PWMGenerator
	}
	return ""
}

// Capability says: this resource supports this method, with parameter
// values restricted to Range.
type Capability struct {
	Method string
	Range  unit.Range
}

// Resource is one row group of the resource table.
type Resource struct {
	ID   string
	Kind Kind
	Caps []Capability
}

// Terminals returns the number of electrical terminals the instrument
// exposes to the connection matrix: a DVM measures differentially (2),
// everything else is single-ended against ground (1). CAN adapters have
// no electrical terminal.
func (r *Resource) Terminals() int {
	switch r.Kind {
	case DVM, Counter:
		return 2
	case CANAdapter:
		return 0
	}
	return 1
}

// Electrical reports whether the resource needs connection-matrix routing.
func (r *Resource) Electrical() bool { return r.Kind != CANAdapter }

// Supports returns the capability for a method, if present.
func (r *Resource) Supports(methodName string) (*Capability, bool) {
	key := strings.ToLower(strings.TrimSpace(methodName))
	for i := range r.Caps {
		if r.Caps[i].Method == key {
			return &r.Caps[i], true
		}
	}
	return nil, false
}

// CheckAttrs verifies that a concrete method call fits the capability:
// every numeric attribute tied to the method's range quantity must lie
// inside the capability range. Attribute values may be expressions; eval
// turns a value into a number (a stand passes its memoised evaluator over
// its variables, e.g. ubatt). A put_r of INF is NOT checked here — the
// allocator treats it as a disconnect that needs no resource.
func (c *Capability) CheckAttrs(d *method.Descriptor, attrs map[string]string, eval func(string) (float64, error)) error {
	return c.checkAttrs(d, attrs, eval, true)
}

// Fits reports whether CheckAttrs would accept the call, without
// rendering the rejection reason.
func (c *Capability) Fits(d *method.Descriptor, attrs map[string]string, eval func(string) (float64, error)) bool {
	return c.checkAttrs(d, attrs, eval, false) == nil
}

// errMisfit is checkAttrs' unexplained rejection.
var errMisfit = errors.New("resource: attribute outside the supported range")

func (c *Capability) checkAttrs(d *method.Descriptor, attrs map[string]string, eval func(string) (float64, error), explain bool) error {
	for _, a := range d.Attrs {
		v, ok := attrs[a.Name]
		if !ok || a.Kind != method.Numeric {
			continue
		}
		// Only attributes of the method's primary quantity are range
		// checked (u, u_min, u_max for a DVM's get_u row).
		if a.Name != d.RangeAttr &&
			a.Name != d.RangeAttr+"_min" && a.Name != d.RangeAttr+"_max" {
			continue
		}
		f, err := eval(v)
		switch {
		case err == nil && c.Range.Contains(f):
			continue
		case !explain:
			return errMisfit
		case err != nil:
			return fmt.Errorf("attribute %s=%q: %v", a.Name, v, err)
		}
		return fmt.Errorf("attribute %s=%v outside supported range %v", a.Name, f, c.Range)
	}
	return nil
}

// EvalNumber evaluates an attribute value against env: a plain number
// parses directly, anything else compiles as a limit expression.
func EvalNumber(v string, env expr.Env) (float64, error) {
	if f, err := unit.ParseNumber(v); err == nil {
		return f, nil
	}
	e, err := expr.Compile(v)
	if err != nil {
		return 0, err
	}
	return e.Eval(env)
}

// Catalog is the ordered resource list of one test stand. The order is
// kept as a slice built by Add, never lazily, because concurrent stands
// share one catalog.
type Catalog struct {
	byID map[string]*Resource
	list []*Resource
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{byID: map[string]*Resource{}} }

// Add inserts a resource.
func (c *Catalog) Add(r *Resource) error {
	id := strings.TrimSpace(r.ID)
	if id == "" {
		return fmt.Errorf("resource: resource without id")
	}
	key := strings.ToLower(id)
	if _, dup := c.byID[key]; dup {
		return fmt.Errorf("resource: duplicate resource %q", id)
	}
	if len(r.Caps) == 0 {
		return fmt.Errorf("resource: resource %q has no capabilities", id)
	}
	if r.Kind == "" {
		r.Kind = kindForMethod(r.Caps[0].Method)
		if r.Kind == "" {
			return fmt.Errorf("resource: cannot infer kind of %q from method %q", id, r.Caps[0].Method)
		}
	}
	r.ID = id
	c.byID[key] = r
	c.list = append(c.list, r)
	return nil
}

// Lookup finds a resource by id (case-insensitive).
func (c *Catalog) Lookup(id string) (*Resource, bool) {
	r, ok := c.byID[strings.ToLower(strings.TrimSpace(id))]
	return r, ok
}

// Resources returns the resources in catalog order. The slice is the
// catalog's own: callers must not modify it.
func (c *Catalog) Resources() []*Resource { return c.list }

// IDs returns the resource ids in catalog order.
func (c *Catalog) IDs() []string {
	out := make([]string, len(c.list))
	for i, r := range c.list {
		out[i] = r.ID
	}
	return out
}

// Len returns the number of resources.
func (c *Catalog) Len() int { return len(c.list) }

// SupportedMethods returns the sorted set of methods any resource offers.
func (c *Catalog) SupportedMethods() []string {
	set := map[string]bool{}
	for _, r := range c.byID {
		for _, cap := range r.Caps {
			set[cap.Method] = true
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Candidates returns, in catalog order, the resources supporting a method.
func (c *Catalog) Candidates(methodName string) []*Resource {
	var out []*Resource
	for _, r := range c.Resources() {
		if _, ok := r.Supports(methodName); ok {
			out = append(out, r)
		}
	}
	return out
}

// ------------------------------------------------------------- sheet I/O --

var headerAliases = map[string][]string{
	"resource": {"resource", "ress.", "ress", "id"},
	"method":   {"method"},
	"attr":     {"attribut", "attribute", "attr"},
	"min":      {"min"},
	"max":      {"max"},
	"unit":     {"unit"},
	"kind":     {"kind", "type"},
}

func findColumn(s *sheet.Sheet, key string) int {
	for _, alias := range headerAliases[key] {
		if i := s.HeaderIndex(alias); i >= 0 {
			return i
		}
	}
	return -1
}

// ParseSheet reads a resource table (Table 3 layout: resource; method;
// attribut; min; max; unit, with an optional kind column). Multiple rows
// with the same resource id merge into one resource with several
// capabilities.
func ParseSheet(s *sheet.Sheet, reg *method.Registry) (*Catalog, error) {
	if s == nil {
		return nil, fmt.Errorf("resource: nil sheet")
	}
	cols := map[string]int{}
	for key := range headerAliases {
		cols[key] = findColumn(s, key)
	}
	for _, required := range []string{"resource", "method", "min", "max"} {
		if cols[required] < 0 {
			return nil, fmt.Errorf("resource: sheet %q lacks a %q column", s.Name, required)
		}
	}
	cat := NewCatalog()
	pending := map[string]*Resource{}
	var order []string
	for r := 1; r < s.NumRows(); r++ {
		if s.IsEmptyRow(r) {
			continue
		}
		get := func(key string) string {
			if cols[key] < 0 {
				return ""
			}
			return strings.TrimSpace(s.At(r, cols[key]))
		}
		id := get("resource")
		if id == "" {
			return nil, fmt.Errorf("resource: sheet %q row %d: missing resource id", s.Name, r+1)
		}
		mName := get("method")
		d, ok := reg.Lookup(mName)
		if !ok {
			return nil, fmt.Errorf("resource: sheet %q row %d: unknown method %q", s.Name, r+1, mName)
		}
		if a := get("attr"); a != "" && a != d.RangeAttr {
			return nil, fmt.Errorf("resource: sheet %q row %d: attribute %q does not match method %s (expects %q)",
				s.Name, r+1, a, d.Name, d.RangeAttr)
		}
		lo, err := unit.ParseNumber(get("min"))
		if err != nil {
			return nil, fmt.Errorf("resource: sheet %q row %d: min: %v", s.Name, r+1, err)
		}
		hi, err := unit.ParseNumber(get("max"))
		if err != nil {
			return nil, fmt.Errorf("resource: sheet %q row %d: max: %v", s.Name, r+1, err)
		}
		u, err := unit.ParseUnit(get("unit"))
		if err != nil {
			return nil, fmt.Errorf("resource: sheet %q row %d: %v", s.Name, r+1, err)
		}
		key := strings.ToLower(id)
		res, exists := pending[key]
		if !exists {
			res = &Resource{ID: id}
			if k := get("kind"); k != "" {
				res.Kind = Kind(strings.ToLower(k))
			}
			pending[key] = res
			order = append(order, key)
		}
		if _, dup := res.Supports(d.Name); dup {
			return nil, fmt.Errorf("resource: sheet %q row %d: resource %q declares method %s twice",
				s.Name, r+1, id, d.Name)
		}
		res.Caps = append(res.Caps, Capability{Method: d.Name, Range: unit.NewRange(lo, hi, u)})
	}
	for _, key := range order {
		if err := cat.Add(pending[key]); err != nil {
			return nil, err
		}
	}
	if cat.Len() == 0 {
		return nil, fmt.Errorf("resource: sheet %q contains no resources", s.Name)
	}
	return cat, nil
}

// ToSheet re-emits the catalog in the paper's Table 3 layout.
func (c *Catalog) ToSheet(name string, reg *method.Registry) *sheet.Sheet {
	s := sheet.NewSheet(name)
	s.AppendRow("resource", "method", "attribut", "min", "max", "unit")
	for _, r := range c.Resources() {
		for _, cap := range r.Caps {
			attr := ""
			if d, ok := reg.Lookup(cap.Method); ok {
				attr = d.RangeAttr
			}
			s.AppendRow(r.ID, cap.Method, attr,
				unit.FormatNumberDE(cap.Range.Min), unit.FormatNumberDE(cap.Range.Max),
				cap.Range.U.String())
		}
	}
	return s
}

// Unbounded is a convenience range for capabilities without limits.
func Unbounded(u unit.Unit) unit.Range {
	return unit.NewRange(math.Inf(-1), math.Inf(1), u)
}
