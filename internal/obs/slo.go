package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/comptest/api"
)

// Objective is one service-level objective: "the q-quantile of Metric
// must not exceed Max seconds". Objectives are evaluated against a
// snapshot's histogram families by bucket interpolation — the same
// estimate Prometheus's histogram_quantile computes — so a fleet
// snapshot (merged worker cells) answers for the whole deployment.
// The type (with its String rendering) is canonical in comptest/api,
// since objectives and their verdicts travel over the /slo endpoints;
// the parsing and evaluation machinery lives here.
type Objective = api.Objective

// ParseObjective reads "metric:p95<=0.5" (or "<" — both mean the same
// inclusive bound): the p-quantile of histogram `metric` must be at
// most 0.5 seconds. Fractional quantiles like p99.9 are accepted.
func ParseObjective(s string) (Objective, error) {
	name, rest, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return Objective{}, fmt.Errorf("obs: objective %q: want metric:pNN<=seconds", s)
	}
	q, bound, ok := strings.Cut(rest, "<")
	bound = strings.TrimPrefix(bound, "=")
	if !ok || !strings.HasPrefix(q, "p") {
		return Objective{}, fmt.Errorf("obs: objective %q: want metric:pNN<=seconds", s)
	}
	pct, err := strconv.ParseFloat(q[1:], 64)
	if err != nil || pct <= 0 || pct > 100 {
		return Objective{}, fmt.Errorf("obs: objective %q: bad quantile %q", s, q)
	}
	max, err := strconv.ParseFloat(bound, 64)
	if err != nil || max < 0 {
		return Objective{}, fmt.Errorf("obs: objective %q: bad bound %q", s, bound)
	}
	return Objective{Metric: name, Quantile: pct / 100, Max: max}, nil
}

// ParseObjectives reads a comma-separated objective list.
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		o, err := ParseObjective(part)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Quantile estimates the q-quantile of a histogram cell by linear
// interpolation inside the bucket the quantile falls in. The cell's
// Buckets are cumulative with finite bounds; the +Inf bucket is implied
// by Count. Following Prometheus's histogram_quantile conventions:
//
//   - an empty cell (Count == 0) has no quantiles — NaN;
//   - a quantile landing in the +Inf bucket clamps to the highest
//     finite bound (there is nothing to interpolate against);
//   - the first bucket interpolates from 0, the assumed lower bound of
//     a latency histogram.
func Quantile(c Cell, q float64) float64 {
	if c.Count <= 0 {
		return math.NaN()
	}
	rank := q * float64(c.Count)
	prevBound, prevCum := 0.0, int64(0)
	for _, b := range c.Buckets {
		if float64(b.Count) >= rank {
			in := b.Count - prevCum
			if in <= 0 {
				return b.LE
			}
			return prevBound + (b.LE-prevBound)*(rank-float64(prevCum))/float64(in)
		}
		prevBound, prevCum = b.LE, b.Count
	}
	// Beyond every finite bucket: all that is known is "more than the
	// last bound". With no finite buckets at all there is no estimate.
	if len(c.Buckets) == 0 {
		return math.NaN()
	}
	return c.Buckets[len(c.Buckets)-1].LE
}

// familyCell folds every cell of the named histogram family into one:
// counts, sums and per-bound bucket counts add up. This is what turns a
// fleet snapshot's per-worker cells into one deployment-wide histogram
// (all cells of a family share bounds — they come from the same build).
func familyCell(s Snapshot, name string) (Cell, bool) {
	var out Cell
	found := false
	byLE := map[float64]int64{}
	var order []float64
	for _, f := range s.Families {
		if f.Name != name || f.Type != TypeHistogram {
			continue
		}
		for _, c := range f.Cells {
			found = true
			out.Count += c.Count
			out.Sum += c.Sum
			for _, b := range c.Buckets {
				if _, ok := byLE[b.LE]; !ok {
					order = append(order, b.LE)
				}
				byLE[b.LE] += b.Count
			}
		}
	}
	if !found {
		return Cell{}, false
	}
	for _, le := range order {
		out.Buckets = append(out.Buckets, Bucket{LE: le, Count: byLE[le]})
	}
	return out, true
}

// SLOResult is one objective's verdict against a snapshot
// (api.SLOResult); SLOReport the full evaluation with the conjunction
// verdict (api.SLOReport, which carries the WriteText rendering).
type (
	SLOResult = api.SLOResult
	SLOReport = api.SLOReport
)

// EvalSLO evaluates the objectives against the snapshot. An objective
// whose metric has no samples yet passes vacuously (NoData marks it) —
// a fresh deployment is not in violation.
func EvalSLO(snap Snapshot, objs []Objective) SLOReport {
	rep := SLOReport{Pass: true}
	for _, o := range objs {
		res := SLOResult{Objective: o, Pass: true}
		cell, ok := familyCell(snap, o.Metric)
		if !ok || cell.Count == 0 {
			res.NoData = true
		} else {
			est := Quantile(cell, o.Quantile)
			res.Count = cell.Count
			if math.IsNaN(est) {
				res.NoData = true
			} else {
				res.Estimate = est
				res.Pass = est <= o.Max
			}
		}
		if !res.Pass {
			rep.Pass = false
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}
