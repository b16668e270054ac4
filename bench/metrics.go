package main

import "math"

// Metric is one reported number: its value over the whole run, its
// value in each round (so its spread is visible) and, for a tail
// latency, the percentile used and the sample count behind it.
type Metric struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Rounds     []float64 `json:"rounds,omitempty"`
	Percentile float64   `json:"percentile,omitempty"`
	N          int       `json:"n,omitempty"`
}

// WorkloadResult is one workload's outcome over all its rounds.
type WorkloadResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

// aggregate pools the rounds of one workload. Latency percentiles come
// from the samples of all rounds pooled; rates and per-operation costs
// are sums over sums; set-up time, peak memory and the layer values are
// medians of the rounds.
func aggregate(rounds []*Round) *WorkloadResult {
	res := &WorkloadResult{Correct: true, Metrics: map[string]Metric{}}
	put := func(name, unit string, v float64, per []float64) {
		if !finite(v) {
			return // no samples: the metric is missing, not zero
		}
		res.Metrics[name] = Metric{Value: v, Unit: unit, Rounds: per}
	}
	each := func(f func(*Round) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = f(r)
		}
		return out
	}
	pool := func(name string) []float64 {
		var all []float64
		for _, r := range rounds {
			all = append(all, r.Samples[name]...)
		}
		return all
	}
	var ops, failed int
	var window, cpu, allocs float64
	for _, r := range rounds {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		res.Errors = append(res.Errors, r.Errors...)
		if r.Incorrect > 0 {
			res.Correct = false
		}
		ops += r.Ops
		failed += r.Failed
		window += r.WindowS
		cpu += r.CPUS
		allocs += r.Allocs
	}
	if len(res.Errors) > 5 {
		res.Errors = res.Errors[:5]
	}

	setups := each(func(r *Round) float64 { return r.SetupS })
	put("setup_s", "s", median(setups), setups)
	for _, name := range []string{"op_ms", "ttfr_ms", kindCampaign + "_ms", kindMutate + "_ms",
		kindExplore + "_ms", kindVet + "_ms"} {
		put(name+"_p50", "ms", median(pool(name)),
			each(func(r *Round) float64 { return median(r.Samples[name]) }))
	}
	if v, pct, n := tail(pool("op_ms")); finite(v) {
		res.Metrics["op_ms_tail"] = Metric{Value: v, Unit: "ms", Percentile: pct, N: n,
			Rounds: each(func(r *Round) float64 { return percentile(r.Samples["op_ms"], pct) })}
	}
	put("ops_per_s", "1/s", float64(ops)/window,
		each(func(r *Round) float64 { return float64(r.Ops) / r.WindowS }))
	put("cpu_ms_per_op", "ms", cpu/float64(ops)*1e3,
		each(func(r *Round) float64 { return r.CPUS / float64(r.Ops) * 1e3 }))
	put("allocs_per_op", "count", allocs/float64(ops),
		each(func(r *Round) float64 { return r.Allocs / float64(r.Ops) }))
	rss := each(func(r *Round) float64 { return r.RSSMiB })
	put("rss_peak_mb", "MiB", median(rss), rss)
	put("failed_share", "ratio", float64(failed)/float64(res.Attempted),
		each(func(r *Round) float64 { return float64(r.Failed) / float64(r.Attempted) }))
	if rounds[0].Workload == "serve_mixed" {
		// A job that failed or was refused misses the latency limit.
		lat := pool("op_ms")
		for i := 0; i < failed; i++ {
			lat = append(lat, math.Inf(1))
		}
		p99 := percentile(lat, 99) // not finite when failures reach the 99th percentile
		met := 0.0
		if p99 <= ms(latencyLimit) {
			met = 1
		}
		put("op_ms_p99", "ms", p99, nil)
		put("latency_limit_met", "bool", met, nil)
	}

	units := map[string]string{}
	for _, r := range rounds {
		for name, m := range r.Values {
			units[name] = m.Unit
		}
	}
	for name, unit := range units {
		var per []float64
		for _, r := range rounds {
			if m, ok := r.Values[name]; ok {
				per = append(per, m.V)
			}
		}
		put(name, unit, median(per), per)
	}
	return res
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
