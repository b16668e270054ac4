// Package method defines the registry of test methods — the verbs of the
// component-test language. The paper's status table binds every status to
// a method such as put_can, put_r or get_u; the generated XML script emits
// one method element per signal statement; and the test stand's resource
// catalog advertises which methods each resource supports.
//
// Methods divide into stimuli (put_*: apply something to a DUT input),
// measurements (get_*: measure a DUT output and compare against limits)
// and control verbs (wait). Each method declares its attribute schema:
// get_u, for example, takes the limit attributes u_min and u_max — exactly
// the attributes in the paper's example element
//
//	<signal name="int_ill"> <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/> </signal>
package method

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/unit"
)

// Kind classifies what a method does.
type Kind int

const (
	// Stimulus methods apply a value to a DUT input (put_*).
	Stimulus Kind = iota
	// Measure methods read a DUT output and compare limits (get_*).
	Measure
	// Control methods steer the test run itself (wait).
	Control
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Stimulus:
		return "stimulus"
	case Measure:
		return "measure"
	case Control:
		return "control"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// SignalClass restricts which kind of signal a method may be applied to.
type SignalClass int

const (
	// AnyClass methods apply to every signal class.
	AnyClass SignalClass = iota
	// Electrical methods touch a physical pin (analog or digital).
	Electrical
	// CAN methods talk to a bus signal.
	CAN
)

// String implements fmt.Stringer.
func (c SignalClass) String() string {
	switch c {
	case AnyClass:
		return "any"
	case Electrical:
		return "electrical"
	case CAN:
		return "can"
	}
	return fmt.Sprintf("SignalClass(%d)", int(c))
}

// AttrKind describes how an attribute's value is interpreted.
type AttrKind int

const (
	// Numeric attributes hold a number or a limit expression such as
	// "(1.1*ubatt)".
	Numeric AttrKind = iota
	// Bits attributes hold the paper's binary payload notation ("0001B").
	Bits
)

// Attr describes one attribute a method accepts in the XML script.
type Attr struct {
	Name     string
	Kind     AttrKind
	Unit     unit.Unit
	Required bool
	Doc      string
}

// Descriptor describes one method.
type Descriptor struct {
	// Name is the method name as it appears in status tables, XML scripts
	// and resource catalogs (e.g. "get_u").
	Name string
	// Kind says whether the method stimulates, measures or controls.
	Kind Kind
	// Class restricts the signal class the method applies to.
	Class SignalClass
	// Unit is the physical unit of the method's primary quantity.
	Unit unit.Unit
	// Attrs is the attribute schema, in canonical order.
	Attrs []Attr
	// RangeAttr names the attribute a resource catalog's min/max columns
	// constrain (e.g. "u" for a DVM's get_u row). Limit pairs such as
	// u_min/u_max are checked against the same quantity.
	RangeAttr string
	// Doc is a one-line description.
	Doc string
}

// Attr returns the attribute schema entry with the given name, or nil.
func (d *Descriptor) Attr(name string) *Attr {
	for i := range d.Attrs {
		if d.Attrs[i].Name == name {
			return &d.Attrs[i]
		}
	}
	return nil
}

// IsStimulus reports whether the method applies a stimulus.
func (d *Descriptor) IsStimulus() bool { return d.Kind == Stimulus }

// IsMeasure reports whether the method performs a measurement.
func (d *Descriptor) IsMeasure() bool { return d.Kind == Measure }

// Registry maps method names to descriptors. It is read-only once
// built, so one registry serves every goroutine.
type Registry struct {
	byName map[string]*Descriptor
}

func newRegistry() *Registry {
	return &Registry{byName: map[string]*Descriptor{}}
}

// register adds a descriptor; it rejects duplicates and anonymous methods.
func (r *Registry) register(d *Descriptor) error {
	name := strings.ToLower(strings.TrimSpace(d.Name))
	if name == "" {
		return fmt.Errorf("method: descriptor without name")
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("method: duplicate method %q", name)
	}
	d.Name = name
	r.byName[name] = d
	return nil
}

// Lookup finds a method by name (case-insensitive).
func (r *Registry) Lookup(name string) (*Descriptor, bool) {
	d, ok := r.byName[strings.ToLower(strings.TrimSpace(name))]
	return d, ok
}

// Names returns all registered method names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.byName))
	for n := range r.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Builtin returns the registry of the standard component-test methods,
// built once per process. The set covers everything the paper uses
// (put_can, put_r, get_u) plus the natural completions a production
// stand needs.
func Builtin() *Registry { return builtin }

var builtin = func() *Registry {
	r := newRegistry()
	for _, d := range builtinDescriptors() {
		if err := r.register(d); err != nil {
			// Builtin descriptors are code, not input: a clash is a bug.
			panic(err)
		}
	}
	return r
}()

func builtinDescriptors() []*Descriptor {
	return []*Descriptor{
		{
			Name: "put_r", Kind: Stimulus, Class: Electrical, Unit: unit.Ohm,
			RangeAttr: "r",
			Attrs: []Attr{
				{Name: "r", Kind: Numeric, Unit: unit.Ohm, Required: true,
					Doc: "resistance to apply between pin and ground; INF opens the contact"},
			},
			Doc: "apply a resistance to a pin (resistor decade)",
		},
		{
			Name: "put_u", Kind: Stimulus, Class: Electrical, Unit: unit.Volt,
			RangeAttr: "u",
			Attrs: []Attr{
				{Name: "u", Kind: Numeric, Unit: unit.Volt, Required: true,
					Doc: "voltage to apply to the pin"},
				{Name: "ri", Kind: Numeric, Unit: unit.Ohm,
					Doc: "source resistance; default is the resource's output impedance"},
			},
			Doc: "apply a voltage to a pin (programmable source)",
		},
		{
			Name: "put_i", Kind: Stimulus, Class: Electrical, Unit: unit.Ampere,
			RangeAttr: "i",
			Attrs: []Attr{
				{Name: "i", Kind: Numeric, Unit: unit.Ampere, Required: true,
					Doc: "current to sink from the pin (electronic load)"},
			},
			Doc: "sink a defined current from a pin",
		},
		{
			Name: "put_can", Kind: Stimulus, Class: CAN, Unit: unit.Bit,
			RangeAttr: "data",
			Attrs: []Attr{
				{Name: "data", Kind: Bits, Unit: unit.Bit, Required: true,
					Doc: "binary payload for the CAN signal, e.g. 0001B"},
			},
			Doc: "transmit a CAN signal value to the DUT",
		},
		{
			Name: "put_pwm", Kind: Stimulus, Class: Electrical, Unit: unit.Hertz,
			RangeAttr: "f",
			Attrs: []Attr{
				{Name: "f", Kind: Numeric, Unit: unit.Hertz, Required: true,
					Doc: "PWM frequency"},
				{Name: "duty", Kind: Numeric, Unit: unit.Percent, Required: true,
					Doc: "duty cycle in percent"},
			},
			Doc: "apply a PWM waveform to a pin",
		},
		{
			Name: "get_u", Kind: Measure, Class: Electrical, Unit: unit.Volt,
			RangeAttr: "u",
			Attrs: []Attr{
				{Name: "u_min", Kind: Numeric, Unit: unit.Volt, Required: true,
					Doc: "lower voltage limit; may be an expression such as (0.7*ubatt)"},
				{Name: "u_max", Kind: Numeric, Unit: unit.Volt, Required: true,
					Doc: "upper voltage limit"},
			},
			Doc: "measure the voltage at a pin and compare against limits (DVM)",
		},
		{
			Name: "get_r", Kind: Measure, Class: Electrical, Unit: unit.Ohm,
			RangeAttr: "r",
			Attrs: []Attr{
				{Name: "r_min", Kind: Numeric, Unit: unit.Ohm, Required: true,
					Doc: "lower resistance limit"},
				{Name: "r_max", Kind: Numeric, Unit: unit.Ohm, Required: true,
					Doc: "upper resistance limit; INF accepts an open circuit"},
			},
			Doc: "measure the resistance at a pin pair and compare against limits",
		},
		{
			Name: "get_i", Kind: Measure, Class: Electrical, Unit: unit.Ampere,
			RangeAttr: "i",
			Attrs: []Attr{
				{Name: "i_min", Kind: Numeric, Unit: unit.Ampere, Required: true,
					Doc: "lower current limit"},
				{Name: "i_max", Kind: Numeric, Unit: unit.Ampere, Required: true,
					Doc: "upper current limit"},
			},
			Doc: "measure the current into a pin and compare against limits",
		},
		{
			Name: "get_can", Kind: Measure, Class: CAN, Unit: unit.Bit,
			RangeAttr: "data",
			Attrs: []Attr{
				{Name: "data", Kind: Bits, Unit: unit.Bit, Required: true,
					Doc: "expected binary payload of the CAN signal"},
			},
			Doc: "read a CAN signal from the DUT and compare against the expected payload",
		},
		{
			Name: "get_t", Kind: Measure, Class: Electrical, Unit: unit.Second,
			RangeAttr: "t",
			Attrs: []Attr{
				{Name: "t_min", Kind: Numeric, Unit: unit.Second, Required: true,
					Doc: "lower duration limit"},
				{Name: "t_max", Kind: Numeric, Unit: unit.Second, Required: true,
					Doc: "upper duration limit"},
				{Name: "edge", Kind: Numeric, Unit: unit.None,
					Doc: "1 = measure time since last rising edge, 0 = falling (default 1)"},
			},
			Doc: "measure a pulse/edge timing on a pin",
		},
		{
			Name: "get_f", Kind: Measure, Class: Electrical, Unit: unit.Hertz,
			RangeAttr: "f",
			Attrs: []Attr{
				{Name: "f_min", Kind: Numeric, Unit: unit.Hertz, Required: true,
					Doc: "lower frequency limit"},
				{Name: "f_max", Kind: Numeric, Unit: unit.Hertz, Required: true,
					Doc: "upper frequency limit"},
			},
			Doc: "measure a frequency on a pin",
		},
		{
			Name: "wait", Kind: Control, Class: AnyClass, Unit: unit.Second,
			RangeAttr: "t",
			Attrs: []Attr{
				{Name: "t", Kind: Numeric, Unit: unit.Second, Required: true,
					Doc: "additional settle time in seconds"},
			},
			Doc: "wait without touching any signal",
		},
	}
}

// ValidateAttrs checks a concrete attribute assignment (name → raw string
// value) against the descriptor's schema: required attributes present, no
// unknown attributes, bits attributes syntactically valid. Numeric
// attribute values are allowed to be expressions and are NOT evaluated
// here — that happens on the stand where variables such as ubatt live.
func (d *Descriptor) ValidateAttrs(attrs map[string]string) error {
	for _, a := range d.Attrs {
		v, ok := attrs[a.Name]
		if !ok {
			if a.Required {
				return fmt.Errorf("method %s: missing required attribute %q", d.Name, a.Name)
			}
			continue
		}
		if strings.TrimSpace(v) == "" {
			return fmt.Errorf("method %s: attribute %q is empty", d.Name, a.Name)
		}
		if a.Kind == Bits {
			if _, _, err := unit.ParseBits(v); err != nil {
				return fmt.Errorf("method %s: attribute %q: %v", d.Name, a.Name, err)
			}
		}
	}
	for name := range attrs {
		if d.Attr(name) == nil {
			return fmt.Errorf("method %s: unknown attribute %q", d.Name, name)
		}
	}
	return nil
}
