package main

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestResultRoundTrip(t *testing.T) {
	want := &Result{Seed: 7, Rounds: 3, Seconds: 18, Workloads: map[string]*WorkloadResult{
		"serve_mixed": {Correct: true, Attempted: 1800, Failed: 0, Metrics: map[string]Metric{
			"op_ms_p50":  {Value: 2.71828, Unit: "ms", Rounds: []float64{2.7, 2.72, 2.75}},
			"op_ms_tail": {Value: 31.4, Unit: "ms", Rounds: []float64{30, 31, 33}, Percentile: 99, N: 1800},
		}},
		"campaign_matrix": {Correct: false, Attempted: 10, Failed: 1, Errors: []string{"digest"},
			Metrics: map[string]Metric{"setup_s": {Value: 0.00123456789, Unit: "s", Rounds: []float64{1, 2, 3}}}},
	}}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := writeResult(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the result:\n got %+v\nwant %+v", got, want)
	}
}

func TestResultLine(t *testing.T) {
	w := &WorkloadResult{Correct: true, Attempted: 5, Metrics: map[string]Metric{
		"op_ms_p50": {Value: 1.5, Unit: "ms", Rounds: []float64{1, 2}},
		"extra":     {Value: 9, Unit: "count"},
	}}
	l, err := resultLine(w, []specMetric{{Name: "op_ms_p50", Unit: "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Metrics) != 1 || l.Metrics["op_ms_p50"] != (lineMetric{1.5, "ms"}) || l.Attempted != 5 || !l.Correct {
		t.Errorf("line %+v", l)
	}
	if _, err := resultLine(w, []specMetric{{Name: "missing", Unit: "ms"}}); err == nil {
		t.Error("a metric the run did not measure must be an error")
	}
	if _, err := resultLine(w, []specMetric{{Name: "op_ms_p50", Unit: "s"}}); err == nil {
		t.Error("a unit mismatch must be an error")
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := specMetric{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1}
	m := func(v float64, rounds ...float64) Metric { return Metric{Value: v, Unit: "ms", Rounds: rounds} }
	for _, tc := range []struct {
		a, b Metric
		want string
	}{
		{m(10, 10, 10.1, 9.9), m(10.5, 10.5, 10.4, 10.6), "unchanged"},
		{m(10, 10, 10.1, 9.9), m(12, 12, 12.1, 11.9), "regressed"},
		{m(10, 10, 10.1, 9.9), m(8, 8, 8.1, 7.9), "improved"},
		{m(10, 8, 10, 12), m(10.5, 10.5, 10.4, 10.6), "unresolved"},
		{m(10, 9, 10, 11.5), m(6, 6, 5.9, 6.1), "improved"}, // wide spread, but every round better
	} {
		if _, got := verdict(tc.a, tc.b, bound); got != tc.want {
			t.Errorf("%v → %v: %s, want %s", tc.a.Rounds, tc.b.Rounds, got, tc.want)
		}
	}
	higher := specMetric{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}
	if _, got := verdict(m(100, 100, 100), m(80, 80, 80), higher); got != "regressed" {
		t.Errorf("fewer ops per second: %s, want regressed", got)
	}

	a := &Result{Workloads: map[string]*WorkloadResult{"w": {Metrics: map[string]Metric{"op_ms_p50": m(10, 10, 10)}}}}
	b := &Result{Workloads: map[string]*WorkloadResult{"w": {Metrics: map[string]Metric{"op_ms_p50": m(12, 12, 12)}}}}
	var out bytes.Buffer
	if !compare(&out, a, b, &spec{EndToEnd: []specMetric{bound}}) {
		t.Error("compare must report the regression")
	}
	if !strings.Contains(out.String(), "regressed") {
		t.Errorf("table:\n%s", out.String())
	}
}
