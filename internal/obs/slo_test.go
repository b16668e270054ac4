package obs

import (
	"math"
	"strings"
	"testing"
)

// TestParseObjective covers the spec syntax: canonical form, "<" as an
// alias for "<=", fractional quantiles, and the malformed shapes that
// must fail loudly instead of evaluating a wrong SLO.
func TestParseObjective(t *testing.T) {
	pct := 99.9 // runtime division below, matching the parser's pct/100
	good := []struct {
		in   string
		want Objective
	}{
		{"unit_seconds:p95<=0.5", Objective{Metric: "unit_seconds", Quantile: 0.95, Max: 0.5}},
		{"unit_seconds:p95<0.5", Objective{Metric: "unit_seconds", Quantile: 0.95, Max: 0.5}},
		{"job_seconds:p99.9<=600", Objective{Metric: "job_seconds", Quantile: pct / 100, Max: 600}},
		{"q:p50<=0", Objective{Metric: "q", Quantile: 0.5, Max: 0}},
	}
	for _, tc := range good {
		got, err := ParseObjective(tc.in)
		if err != nil {
			t.Errorf("ParseObjective(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseObjective(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// String renders back into parseable spec syntax.
		back, err := ParseObjective(got.String())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q: %+v, %v", tc.in, got.String(), back, err)
		}
	}
	for _, bad := range []string{
		"", "unit_seconds", ":p95<=1", "m:95<=1", "m:p95", "m:p0<=1",
		"m:p101<=1", "m:pX<=1", "m:p95<=x", "m:p95<=-1",
	} {
		if _, err := ParseObjective(bad); err == nil {
			t.Errorf("ParseObjective(%q) accepted", bad)
		}
	}
	objs, err := ParseObjectives("a:p50<=1, b:p99<=2,")
	if err != nil || len(objs) != 2 {
		t.Errorf("ParseObjectives list: %v, %v", objs, err)
	}
}

// TestQuantileEdges pins the histogram_quantile conventions: NaN on an
// empty cell, interpolation from zero in the first bucket, clamping to
// the last finite bound when the rank lands in +Inf, and NaN when there
// are no finite buckets to interpolate against at all.
func TestQuantileEdges(t *testing.T) {
	if !math.IsNaN(Quantile(Cell{}, 0.5)) {
		t.Error("empty cell: want NaN")
	}
	// Single bucket, all 10 samples inside: p50 interpolates from 0.
	single := Cell{Count: 10, Buckets: []Bucket{{LE: 2, Count: 10}}}
	if got := Quantile(single, 0.5); got != 1 {
		t.Errorf("single-bucket p50 = %v, want 1 (linear from 0 to 2)", got)
	}
	if got := Quantile(single, 1); got != 2 {
		t.Errorf("single-bucket p100 = %v, want the bound 2", got)
	}
	// Every sample beyond the finite buckets: clamp to the last bound.
	over := Cell{Count: 5, Buckets: []Bucket{{LE: 1, Count: 0}, {LE: 4, Count: 0}}}
	if got := Quantile(over, 0.5); got != 4 {
		t.Errorf("all-in-overflow p50 = %v, want last finite bound 4", got)
	}
	// Samples but no finite buckets at all: nothing to estimate with.
	if !math.IsNaN(Quantile(Cell{Count: 3}, 0.5)) {
		t.Error("no finite buckets: want NaN")
	}
	// Interpolation in an interior bucket: 4 samples <=1, 8 <=3; the
	// p75 rank 6 sits halfway through (1, 3].
	mid := Cell{Count: 8, Buckets: []Bucket{{LE: 1, Count: 4}, {LE: 3, Count: 8}}}
	if got := Quantile(mid, 0.75); got != 2 {
		t.Errorf("interior p75 = %v, want 2", got)
	}
}

// TestEvalSLOFleetFold models the coordinator's /slo: one histogram
// family split over worker-labelled cells folds into a single estimate,
// and the verdict is the conjunction over objectives. Metrics without
// samples pass vacuously with NoData — a fresh deployment is not in
// violation.
func TestEvalSLOFleetFold(t *testing.T) {
	mk := func(obs ...float64) Snapshot {
		r := NewRegistry()
		h := r.Histogram("unit_seconds", "u", []float64{1, 10})
		for _, v := range obs {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	fleet := Merge(
		mk(0.5, 0.5, 0.5).WithLabel("worker", "w-0001"),
		mk(0.5, 20).WithLabel("worker", "w-0002"), // one outlier past every bound
	)
	rep := EvalSLO(fleet, []Objective{
		{Metric: "unit_seconds", Quantile: 0.5, Max: 1},  // p50 well inside
		{Metric: "unit_seconds", Quantile: 0.99, Max: 1}, // p99 hits the outlier
		{Metric: "never_observed_seconds", Quantile: 0.95, Max: 1},
	})
	if len(rep.Results) != 3 {
		t.Fatalf("results: %+v", rep.Results)
	}
	p50, p99, missing := rep.Results[0], rep.Results[1], rep.Results[2]
	if !p50.Pass || p50.Count != 5 || p50.Estimate > 1 {
		t.Errorf("p50 over the folded 5 samples: %+v", p50)
	}
	if p99.Pass || p99.Estimate != 10 {
		t.Errorf("p99 must clamp to the last finite bound and fail: %+v", p99)
	}
	if !missing.Pass || !missing.NoData {
		t.Errorf("absent family must pass vacuously with NoData: %+v", missing)
	}
	if rep.Pass {
		t.Error("report passed despite a violated objective")
	}

	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{"unit_seconds p99 = 10s", "FAIL", "no data", "SLO: FAIL"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}
