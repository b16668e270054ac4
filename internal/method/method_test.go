package method

import (
	"strings"
	"testing"

	"repro/internal/unit"
)

func TestBuiltinContainsPaperMethods(t *testing.T) {
	r := Builtin()
	// The three methods the paper's status table uses.
	for _, name := range []string{"put_can", "put_r", "get_u"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("builtin registry lacks paper method %q", name)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	r := Builtin()
	for _, name := range []string{"GET_U", "Get_U", " get_u "} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := r.Lookup("no_such"); ok {
		t.Error("Lookup(no_such) succeeded")
	}
}

func TestKinds(t *testing.T) {
	r := Builtin()
	stim := []string{"put_r", "put_u", "put_i", "put_can", "put_pwm"}
	meas := []string{"get_u", "get_r", "get_i", "get_can", "get_t", "get_f"}
	for _, n := range stim {
		d, _ := r.Lookup(n)
		if d == nil || !d.IsStimulus() || d.IsMeasure() {
			t.Errorf("%s: not classified as stimulus", n)
		}
	}
	for _, n := range meas {
		d, _ := r.Lookup(n)
		if d == nil || !d.IsMeasure() || d.IsStimulus() {
			t.Errorf("%s: not classified as measurement", n)
		}
	}
	d, _ := r.Lookup("wait")
	if d.Kind != Control {
		t.Errorf("wait kind = %v", d.Kind)
	}
}

func TestGetUAttrSchema(t *testing.T) {
	// The paper's XML example: <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)"/>
	r := Builtin()
	d, _ := r.Lookup("get_u")
	if d.Attr("u_min") == nil || d.Attr("u_max") == nil {
		t.Fatal("get_u lacks u_min/u_max attributes")
	}
	if !d.Attr("u_min").Required || !d.Attr("u_max").Required {
		t.Error("get_u limits must be required")
	}
	if d.Unit != unit.Volt {
		t.Errorf("get_u unit = %v", d.Unit)
	}
	if d.RangeAttr != "u" {
		t.Errorf("get_u RangeAttr = %q, want u", d.RangeAttr)
	}
	if d.Attr("bogus") != nil {
		t.Error("Attr(bogus) returned non-nil")
	}
}

func TestValidateAttrsOK(t *testing.T) {
	r := Builtin()
	cases := []struct {
		method string
		attrs  map[string]string
	}{
		{"get_u", map[string]string{"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"}},
		{"put_r", map[string]string{"r": "INF"}},
		{"put_r", map[string]string{"r": "5000"}},
		{"put_can", map[string]string{"data": "0001B"}},
		{"get_can", map[string]string{"data": "1B"}},
		{"put_u", map[string]string{"u": "13.5"}},
		{"put_u", map[string]string{"u": "13.5", "ri": "0.1"}},
		{"wait", map[string]string{"t": "0.5"}},
		{"put_pwm", map[string]string{"f": "100", "duty": "50"}},
		{"get_t", map[string]string{"t_min": "290", "t_max": "310"}},
	}
	for _, c := range cases {
		d, ok := r.Lookup(c.method)
		if !ok {
			t.Fatalf("method %q missing", c.method)
		}
		if err := d.ValidateAttrs(c.attrs); err != nil {
			t.Errorf("%s.ValidateAttrs(%v): %v", c.method, c.attrs, err)
		}
	}
}

func TestValidateAttrsErrors(t *testing.T) {
	r := Builtin()
	cases := []struct {
		method string
		attrs  map[string]string
		want   string
	}{
		{"get_u", map[string]string{"u_min": "0"}, "missing required"},
		{"get_u", map[string]string{"u_min": "0", "u_max": "1", "volts": "2"}, "unknown attribute"},
		{"put_can", map[string]string{"data": "0102B"}, "binary"},
		{"put_can", map[string]string{"data": ""}, "empty"},
		{"put_r", map[string]string{}, "missing required"},
	}
	for _, c := range cases {
		d, _ := r.Lookup(c.method)
		err := d.ValidateAttrs(c.attrs)
		if err == nil {
			t.Errorf("%s.ValidateAttrs(%v) unexpectedly succeeded", c.method, c.attrs)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s.ValidateAttrs(%v) error %q does not mention %q", c.method, c.attrs, err, c.want)
		}
	}
}

func TestRegisterErrors(t *testing.T) {
	r := newRegistry()
	if err := r.register(&Descriptor{Name: ""}); err == nil {
		t.Error("register with empty name succeeded")
	}
	if err := r.register(&Descriptor{Name: "m1"}); err != nil {
		t.Fatal(err)
	}
	if err := r.register(&Descriptor{Name: "M1"}); err == nil {
		t.Error("duplicate register succeeded")
	}
}

// TestBuiltinIsShared: every caller gets the one registry, and asking
// for it costs nothing.
func TestBuiltinIsShared(t *testing.T) {
	if Builtin() != Builtin() {
		t.Error("Builtin() returned two registries")
	}
	if n := testing.AllocsPerRun(100, func() { _ = Builtin() }); n != 0 {
		t.Errorf("Builtin() allocates %v times per call", n)
	}
}

func TestNamesSorted(t *testing.T) {
	names := Builtin().Names()
	if len(names) < 10 {
		t.Fatalf("builtin registry too small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

func TestClassRestrictions(t *testing.T) {
	r := Builtin()
	d, _ := r.Lookup("put_can")
	if d.Class != CAN {
		t.Errorf("put_can class = %v, want CAN", d.Class)
	}
	d, _ = r.Lookup("put_r")
	if d.Class != Electrical {
		t.Errorf("put_r class = %v, want Electrical", d.Class)
	}
	d, _ = r.Lookup("wait")
	if d.Class != AnyClass {
		t.Errorf("wait class = %v, want AnyClass", d.Class)
	}
}

func TestStringers(t *testing.T) {
	if Stimulus.String() != "stimulus" || Measure.String() != "measure" || Control.String() != "control" {
		t.Error("Kind.String() wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown Kind.String() empty")
	}
	if Electrical.String() != "electrical" || CAN.String() != "can" || AnyClass.String() != "any" {
		t.Error("SignalClass.String() wrong")
	}
	if SignalClass(9).String() == "" {
		t.Error("unknown SignalClass.String() empty")
	}
}
