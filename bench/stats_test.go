package main

import (
	"math"
	"testing"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 95}, {100, 90}, {99, 75}, {200, 95}, {40, 75}, {20, 50}, {19, 50}, {0, 50},
		{100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, pct, n := tail(xs)
	if pct != 99 || n != 1000 {
		t.Fatalf("tail of 1000 samples used p%g of %d, want p99 of 1000", pct, n)
	}
	if beyond := 1000 - int(math.Floor(v)); beyond < 10 {
		t.Errorf("p99 = %v leaves %d samples beyond it, want at least 10", v, beyond)
	}
	if _, pct, n := tail(xs[:100]); pct != 90 || n != 100 {
		t.Errorf("tail of 100 samples used p%g of %d, want p90 of 100", pct, n)
	}
}

func TestPercentileAndSpread(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}
