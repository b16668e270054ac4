package main

import (
	"context"
	"testing"
)

// TestSmokeEmitsEveryMetric runs every workload for a few operations,
// untraced and traced, and checks that the outputs pass their checks
// and that each round yields every metric BENCHMARK.json names.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{"campaign_matrix": 2, "mutation_matrix": 1, "explore_paper": 1, "serve_mixed": 20}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runRound(context.Background(),
				roundConfig{workload: w, seed: 1, ops: ops[w], trace: traced, reps: 1})
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w, traced, err)
			}
			res := aggregate([]*Round{r})
			if !res.Correct || res.Failed > 0 {
				t.Errorf("%s (traced %v): correct %v, %d failed: %v", w, traced, res.Correct, res.Failed, res.Errors)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if _, err := resultLine(res, want); err != nil {
				t.Errorf("%s (traced %v): %v", w, traced, err)
			}
		}
	}
}
