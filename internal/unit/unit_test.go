package unit

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseNumberEnglish(t *testing.T) {
	cases := map[string]float64{
		"0.5":    0.5,
		"1":      1,
		"-60":    -60,
		"1.0E+6": 1e6,
		"0":      0,
		"  2.25": 2.25,
		"1e-3":   0.001,
	}
	for in, want := range cases {
		got, err := ParseNumber(in)
		if err != nil {
			t.Fatalf("ParseNumber(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseNumber(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseNumberGerman(t *testing.T) {
	cases := map[string]float64{
		"0,5":      0.5,
		"1,00E+06": 1e6,
		"2,00E+05": 2e5,
		"-0,3":     -0.3,
		"1,1":      1.1,
	}
	for in, want := range cases {
		got, err := ParseNumber(in)
		if err != nil {
			t.Fatalf("ParseNumber(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseNumber(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseNumberInf(t *testing.T) {
	for _, in := range []string{"INF", "inf", "+INF", "∞"} {
		got, err := ParseNumber(in)
		if err != nil || !math.IsInf(got, 1) {
			t.Errorf("ParseNumber(%q) = %v, %v; want +Inf", in, got, err)
		}
	}
	got, err := ParseNumber("-INF")
	if err != nil || !math.IsInf(got, -1) {
		t.Errorf("ParseNumber(-INF) = %v, %v; want -Inf", got, err)
	}
}

func TestParseNumberRejects(t *testing.T) {
	for _, in := range []string{"", "abc", "1.234,5", "1,2,3", "0x10", "--1"} {
		if _, err := ParseNumber(in); err == nil {
			t.Errorf("ParseNumber(%q) unexpectedly succeeded", in)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := map[float64]string{
		0.5:          "0.5",
		1e6:          "1e+06",
		math.Inf(1):  "INF",
		math.Inf(-1): "-INF",
		0:            "0",
	}
	for in, want := range cases {
		if got := FormatNumber(in); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatNumberDE(t *testing.T) {
	if got := FormatNumberDE(0.5); got != "0,5" {
		t.Errorf("FormatNumberDE(0.5) = %q, want 0,5", got)
	}
	if got := FormatNumberDE(280); got != "280" {
		t.Errorf("FormatNumberDE(280) = %q, want 280", got)
	}
}

func TestNumberRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true // NaN never appears in sheets
		}
		got, err := ParseNumber(FormatNumber(x))
		if err != nil {
			return false
		}
		return got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumberRoundTripGerman(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		s := FormatNumberDE(x)
		// German formatting must never contain a decimal point.
		if strings.Contains(s, ".") {
			return false
		}
		got, err := ParseNumber(s)
		if err != nil {
			return false
		}
		return got == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseUnit(t *testing.T) {
	cases := map[string]Unit{
		"V":    Volt,
		"Ohm":  Ohm,
		"Ω":    Ohm,
		"A":    Ampere,
		"s":    Second,
		"Hz":   Hertz,
		"%":    Percent,
		"":     None,
		" V ":  Volt,
		"degC": Degree,
	}
	for in, want := range cases {
		got, err := ParseUnit(in)
		if err != nil {
			t.Fatalf("ParseUnit(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseUnit(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseUnit("parsec"); err == nil {
		t.Error("ParseUnit(parsec) unexpectedly succeeded")
	}
}

func TestUnitString(t *testing.T) {
	if Volt.String() != "V" || Ohm.String() != "Ohm" {
		t.Errorf("unexpected unit symbols: %q %q", Volt, Ohm)
	}
	if got := Unit(99).String(); got != "Unit(99)" {
		t.Errorf("Unit(99).String() = %q", got)
	}
}

func TestValue(t *testing.T) {
	v := V(0.5, Second)
	if v.String() != "0.5 s" {
		t.Errorf("Value.String() = %q", v.String())
	}
	if !Inf(Ohm).IsInf() {
		t.Error("Inf(Ohm).IsInf() = false")
	}
	if V(1, Volt).IsInf() {
		t.Error("V(1,V).IsInf() = true")
	}
	if got := V(3, None).String(); got != "3" {
		t.Errorf("dimensionless Value.String() = %q", got)
	}
}

func TestRangeContains(t *testing.T) {
	r := NewRange(-60, 60, Volt)
	for _, f := range []float64{-60, 0, 60, 59.999} {
		if !r.Contains(f) {
			t.Errorf("%v.Contains(%v) = false", r, f)
		}
	}
	for _, f := range []float64{-60.001, 61, math.Inf(1)} {
		if r.Contains(f) {
			t.Errorf("%v.Contains(%v) = true", r, f)
		}
	}
}

func TestRangeInfiniteBound(t *testing.T) {
	r := NewRange(0, math.Inf(1), Ohm)
	if !r.Contains(math.Inf(1)) {
		t.Error("unbounded range must contain +Inf")
	}
	if !r.Contains(5e6) {
		t.Error("unbounded range must contain any finite positive value")
	}
	if r.Contains(-1) {
		t.Error("range [0,Inf] must not contain -1")
	}
}

func TestRangeNormalises(t *testing.T) {
	r := NewRange(10, -10, Volt)
	if r.Min != -10 || r.Max != 10 {
		t.Errorf("NewRange did not normalise: %+v", r)
	}
}

func TestRangeContainsRange(t *testing.T) {
	outer := NewRange(0, 1e6, Ohm)
	inner := NewRange(100, 5000, Ohm)
	if !outer.ContainsRange(inner) {
		t.Error("outer.ContainsRange(inner) = false")
	}
	if inner.ContainsRange(outer) {
		t.Error("inner.ContainsRange(outer) = true")
	}
}

func TestRangeString(t *testing.T) {
	r := NewRange(0, 0.3, None)
	if got := r.String(); got != "[0, 0.3]" {
		t.Errorf("Range.String() = %q", got)
	}
	rv := NewRange(-60, 60, Volt)
	if got := rv.String(); got != "[-60, 60] V" {
		t.Errorf("Range.String() = %q", got)
	}
}

func TestRangeWidth(t *testing.T) {
	if w := NewRange(2, 5, None).Width(); w != 3 {
		t.Errorf("Width = %v, want 3", w)
	}
	if w := NewRange(0, math.Inf(1), Ohm).Width(); !math.IsInf(w, 1) {
		t.Errorf("unbounded Width = %v, want +Inf", w)
	}
}

func TestParseBits(t *testing.T) {
	cases := []struct {
		in    string
		value uint64
		width int
	}{
		{"0001B", 1, 4},
		{"0B", 0, 1},
		{"1B", 1, 1},
		{"1010B", 10, 4},
		{"11111111B", 255, 8},
		{" 0001B ", 1, 4},
		{"0001b", 1, 4},
	}
	for _, c := range cases {
		v, w, err := ParseBits(c.in)
		if err != nil {
			t.Fatalf("ParseBits(%q): %v", c.in, err)
		}
		if v != c.value || w != c.width {
			t.Errorf("ParseBits(%q) = (%d,%d), want (%d,%d)", c.in, v, w, c.value, c.width)
		}
	}
}

func TestParseBitsRejects(t *testing.T) {
	for _, in := range []string{"", "B", "0102B", "0001", "xB", strings.Repeat("1", 65) + "B"} {
		if _, _, err := ParseBits(in); err == nil {
			t.Errorf("ParseBits(%q) unexpectedly succeeded", in)
		}
	}
}

var bitsSink string

func TestFormatBits(t *testing.T) {
	if got := FormatBits(1, 4); got != "0001B" {
		t.Errorf("FormatBits(1,4) = %q", got)
	}
	if got := FormatBits(10, 4); got != "1010B" {
		t.Errorf("FormatBits(10,4) = %q", got)
	}
	if got := FormatBits(0, 0); got != "0B" {
		t.Errorf("FormatBits(0,0) = %q", got)
	}
	// 64 bits fill the stack buffer; wider literals pad with zeros.
	if got, want := FormatBits(^uint64(0), 64), strings.Repeat("1", 64)+"B"; got != want {
		t.Errorf("FormatBits(max,64) = %q", got)
	}
	if got, want := FormatBits(^uint64(0), 70), "000000"+strings.Repeat("1", 64)+"B"; got != want {
		t.Errorf("FormatBits(max,70) = %q", got)
	}
	if got := testing.AllocsPerRun(10, func() { bitsSink = FormatBits(5, 8) }); got != 1 {
		t.Errorf("FormatBits allocates %v times, want 1 (the string)", got)
	}
}

func TestBitsRoundTrip(t *testing.T) {
	f := func(v uint64, w uint8) bool {
		width := int(w%64) + 1
		v &= (^uint64(0)) >> (64 - uint(width))
		got, gw, err := ParseBits(FormatBits(v, width))
		return err == nil && got == v && gw == width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
