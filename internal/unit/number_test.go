package unit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// frozenParseNumber is ParseNumber as it stood before Number existed:
// ToUpper for the infinities, then the locale checks, then ParseFloat.
// FuzzNumber holds Number and ParseNumber to it.
func frozenParseNumber(s string) (float64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("unit: empty number")
	}
	switch strings.ToUpper(t) {
	case "INF", "+INF", "∞":
		return math.Inf(1), nil
	case "-INF", "-∞":
		return math.Inf(-1), nil
	}
	hasComma := strings.Contains(t, ",")
	hasPoint := strings.Contains(t, ".")
	if hasComma && hasPoint {
		return 0, fmt.Errorf("unit: ambiguous number %q (mixes ',' and '.')", s)
	}
	if hasComma {
		if strings.Count(t, ",") > 1 {
			return 0, fmt.Errorf("unit: malformed number %q", s)
		}
		t = strings.Replace(t, ",", ".", 1)
	}
	f, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("unit: malformed number %q", s)
	}
	return f, nil
}

// FuzzNumber checks that Number accepts exactly the cells the frozen
// parser accepts, with the same bits, and that ParseNumber keeps the
// frozen error texts.
func FuzzNumber(f *testing.F) {
	for _, s := range []string{
		"0.5", "0,5", "1,00E+06", "-0,3", " 2.25 ", "-0", "INF", "-inf", "+Inf", "∞", "-∞",
		"ınf", "ſ", "0x1p-2", "1_000", "nan", "NaN", "infinity", "-Infinity", "+nan",
		"(1.1*ubatt)", "ubatt", "1.234,5", "1,2,3", "0x10", "--1", "", " ", "+", ",5", "e5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, werr := frozenParseNumber(s)
		got, ok := Number(s)
		if ok != (werr == nil) {
			t.Fatalf("Number(%q) ok = %v, frozen parser err = %v", s, ok, werr)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Number(%q) = %v (%#x), frozen parser %v (%#x)",
				s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		pf, perr := ParseNumber(s)
		if fmt.Sprint(perr) != fmt.Sprint(werr) || math.Float64bits(pf) != math.Float64bits(want) {
			t.Fatalf("ParseNumber(%q) = %v, %v; frozen parser %v, %v", s, pf, perr, want, werr)
		}
	})
}

// TestNumberAllocs pins the probe Validate runs on every numeric
// attribute: a symbolic limit or a bare variable is rejected without
// allocating, and so is a plain number accepted.
func TestNumberAllocs(t *testing.T) {
	for _, s := range []string{"(1.1*ubatt)", "ubatt", "1.5", "INF"} {
		if got := testing.AllocsPerRun(100, func() { Number(s) }); got != 0 {
			t.Errorf("Number(%q) allocates %v times, want 0", s, got)
		}
	}
}
