// Package unit provides physical quantities for the component-test tool
// chain: values carrying a unit, infinity handling (the paper's status
// table uses "INF" for an open contact), number parsing that accepts both
// German decimal commas ("0,5", "1,00E+06" — as printed in the paper's
// sheets) and English decimal points, and range checking used by the
// resource catalog.
package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Unit enumerates the physical units that occur in component-test sheets,
// resource catalogs and generated scripts.
type Unit int

// The units understood by the tool chain. None marks dimensionless values
// (scale factors, counts, raw CAN data).
const (
	None Unit = iota
	Volt
	Ohm
	Ampere
	Second
	Hertz
	Percent
	Degree  // temperature, °C
	Bit     // raw binary payloads
	Decibel // reserved for acoustic components
)

var unitNames = map[Unit]string{
	None:    "",
	Volt:    "V",
	Ohm:     "Ohm",
	Ampere:  "A",
	Second:  "s",
	Hertz:   "Hz",
	Percent: "%",
	Degree:  "degC",
	Bit:     "b",
	Decibel: "dB",
}

// String returns the canonical symbol of the unit ("V", "Ohm", "s", …).
func (u Unit) String() string {
	if s, ok := unitNames[u]; ok {
		return s
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// ParseUnit maps a symbol found in a sheet to a Unit. It accepts the
// spellings that appear in the paper's tables ("V", "Ω", "Ohm") plus
// common ASCII fallbacks. An empty string parses to None.
func ParseUnit(s string) (Unit, error) {
	switch strings.TrimSpace(s) {
	case "":
		return None, nil
	case "V", "v", "Volt", "volt":
		return Volt, nil
	case "Ohm", "ohm", "OHM", "Ω", "R":
		return Ohm, nil
	case "A", "a", "Ampere":
		return Ampere, nil
	case "s", "S", "sec", "Sec":
		return Second, nil
	case "Hz", "hz", "HZ":
		return Hertz, nil
	case "%", "pct":
		return Percent, nil
	case "degC", "°C", "C":
		return Degree, nil
	case "b", "bit", "Bit":
		return Bit, nil
	case "dB", "db":
		return Decibel, nil
	}
	return None, fmt.Errorf("unit: unknown unit %q", s)
}

// Value is a physical quantity: a float with a unit. Positive infinity is
// a legal magnitude and denotes an open contact / unbounded limit, exactly
// as "INF" in the paper's status table.
type Value struct {
	F float64
	U Unit
}

// V constructs a Value.
func V(f float64, u Unit) Value { return Value{F: f, U: u} }

// Inf returns the positive-infinity value for the given unit.
func Inf(u Unit) Value { return Value{F: math.Inf(1), U: u} }

// IsInf reports whether the magnitude is ±infinite.
func (v Value) IsInf() bool { return math.IsInf(v.F, 0) }

// String formats the value using FormatNumber and appends the unit symbol.
func (v Value) String() string {
	s := FormatNumber(v.F)
	if v.U == None {
		return s
	}
	return s + " " + v.U.String()
}

// ParseNumber parses a numeric cell as it appears in the paper's sheets.
// Accepted forms:
//
//	0.5        English decimal point
//	0,5        German decimal comma
//	1,00E+06   German scientific notation
//	INF, -INF  infinities (case-insensitive; "∞" also accepted)
//
// Plain thousands separators are NOT supported: a cell such as "1.234,5"
// is ambiguous in mixed-locale sheets and is rejected.
func ParseNumber(s string) (float64, error) {
	if f, ok := Number(s); ok {
		return f, nil
	}
	t := strings.TrimSpace(s)
	switch {
	case t == "":
		return 0, fmt.Errorf("unit: empty number")
	case strings.Contains(t, ",") && strings.Contains(t, "."):
		return 0, fmt.Errorf("unit: ambiguous number %q (mixes ',' and '.')", s)
	}
	return 0, fmt.Errorf("unit: malformed number %q", s)
}

// Number is ParseNumber without the error: it accepts exactly the cells
// ParseNumber accepts. A cell holding a byte no number uses, or not
// starting like a number, is rejected without allocating, so probing a
// symbolic limit such as "(1.1*ubatt)" or a variable such as "ubatt"
// costs no garbage.
func Number(s string) (float64, bool) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, false
	}
	commas, point := 0, false
	for i := 0; i < len(t); i++ {
		switch c := t[i]; {
		case c >= utf8.RuneSelf:
			// strconv parses ASCII only, so a non-ASCII cell can only be
			// an infinity. ToUpper, not EqualFold: ToUpper("ınf") is "INF".
			switch strings.ToUpper(t) {
			case "INF", "+INF", "∞":
				return math.Inf(1), true
			case "-INF", "-∞":
				return math.Inf(-1), true
			}
			return 0, false
		case c == ',':
			commas++
		case c == '.':
			point = true
		case !numberByte(c):
			return 0, false // no float syntax uses this byte
		}
	}
	switch {
	case strings.EqualFold(t, "INF"), strings.EqualFold(t, "+INF"):
		return math.Inf(1), true
	case strings.EqualFold(t, "-INF"):
		return math.Inf(-1), true
	}
	// Reject forms with both comma and point: ambiguous locale.
	if commas > 1 || commas == 1 && point {
		return 0, false
	}
	// After its sign, a float starts with a digit, a decimal separator or
	// one of strconv's spelled-out specials. Rejecting anything else here
	// keeps an identifier such as "ubatt" from paying for a NumError.
	rest := t
	if rest[0] == '+' || rest[0] == '-' {
		rest = rest[1:]
	}
	if rest == "" || !('0' <= rest[0] && rest[0] <= '9' || rest[0] == '.' || rest[0] == ',' ||
		strings.EqualFold(rest, "infinity") || strings.EqualFold(rest, "nan")) {
		return 0, false
	}
	if commas == 1 {
		t = strings.Replace(t, ",", ".", 1)
	}
	f, err := strconv.ParseFloat(t, 64)
	return f, err == nil
}

// numberByte reports whether c can occur in a cell ParseFloat accepts
// after the decimal comma is replaced: digits, letters (exponents, hex
// digits, INF/NaN), signs, the separators and digit-group underscores.
func numberByte(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
		c == '+' || c == '-' || c == '.' || c == '_' || c == ','
}

// FormatNumber renders a float the way the generated XML scripts and
// regenerated tables print it: shortest round-trip representation with an
// English decimal point, infinities as "INF"/"-INF".
func FormatNumber(f float64) string {
	if math.IsInf(f, 1) {
		return "INF"
	}
	if math.IsInf(f, -1) {
		return "-INF"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// FormatNumberDE renders a float with a German decimal comma, used when
// re-emitting the paper's sheets verbatim (the paper prints "0,5").
func FormatNumberDE(f float64) string {
	return strings.Replace(FormatNumber(f), ".", ",", 1)
}

// Range is a closed numeric interval with a unit, used by the resource
// catalog ("valid range for all parameters") and by measurement limits.
type Range struct {
	Min, Max float64
	U        Unit
}

// NewRange constructs a Range, normalising a reversed interval.
func NewRange(min, max float64, u Unit) Range {
	if min > max {
		min, max = max, min
	}
	return Range{Min: min, Max: max, U: u}
}

// Contains reports whether f lies inside the closed interval. Infinite
// bounds behave as expected: Contains(INF) is true iff Max is +INF.
func (r Range) Contains(f float64) bool {
	return f >= r.Min && f <= r.Max
}

// ContainsRange reports whether the entire interval o fits inside r.
func (r Range) ContainsRange(o Range) bool {
	return r.Contains(o.Min) && r.Contains(o.Max)
}

// Width returns Max-Min; it is +Inf for unbounded ranges.
func (r Range) Width() float64 { return r.Max - r.Min }

// String renders the range as "[min, max] unit".
func (r Range) String() string {
	s := "[" + FormatNumber(r.Min) + ", " + FormatNumber(r.Max) + "]"
	if r.U != None {
		s += " " + r.U.String()
	}
	return s
}

// ParseBits parses the paper's binary literal notation for CAN payloads:
// a string of 0/1 digits followed by the suffix 'B' (e.g. "0001B"). It
// returns the numeric value and the bit width.
func ParseBits(s string) (value uint64, width int, err error) {
	t := strings.TrimSpace(s)
	if len(t) < 2 || (t[len(t)-1] != 'B' && t[len(t)-1] != 'b') {
		return 0, 0, fmt.Errorf("unit: %q is not a binary literal (missing B suffix)", s)
	}
	digits := t[:len(t)-1]
	if len(digits) == 0 || len(digits) > 64 {
		return 0, 0, fmt.Errorf("unit: binary literal %q has unsupported width", s)
	}
	for _, c := range digits {
		if c != '0' && c != '1' {
			return 0, 0, fmt.Errorf("unit: binary literal %q contains non-binary digit %q", s, c)
		}
		value = value<<1 | uint64(c-'0')
	}
	return value, len(digits), nil
}

// FormatBits renders a value as the paper's binary literal notation with
// the given width (e.g. FormatBits(1, 4) == "0001B"). Up to 64 bits it
// renders in a stack buffer: the string is the only allocation.
func FormatBits(value uint64, width int) string {
	if width <= 0 {
		width = 1
	}
	var buf [65]byte
	b := buf[:0]
	if width >= len(buf) {
		b = make([]byte, 0, width+1)
	}
	for i := width - 1; i >= 0; i-- {
		b = append(b, '0'+byte(value>>uint(i)&1))
	}
	return string(append(b, 'B'))
}
