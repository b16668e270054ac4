package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// Result is the detailed output of one invocation (-out): every metric
// of every workload run, with per-round values.
type Result struct {
	Seed      int64                      `json:"seed"`
	Traced    bool                       `json:"traced"`
	Rounds    int                        `json:"rounds"`
	Seconds   float64                    `json:"seconds"` // timed seconds per workload
	Workloads map[string]*WorkloadResult `json:"workloads"`
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func writeResult(path string, r *Result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json the benchmark reads: which metrics
// the result line carries and how far each end-to-end metric may worsen.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// line is the one-line result: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine selects the listed metrics; a listed metric the run did not
// produce, or produced in another unit, is an error.
func resultLine(w *WorkloadResult, metrics []specMetric) (*line, error) {
	l := &line{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]lineMetric{}}
	for _, sm := range metrics {
		m, ok := w.Metrics[sm.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", sm.Name)
		}
		if m.Unit != sm.Unit {
			return nil, fmt.Errorf("metric %s is in %s, BENCHMARK.json says %s", sm.Name, m.Unit, sm.Unit)
		}
		l.Metrics[sm.Name] = lineMetric{m.Value, m.Unit}
	}
	return l, nil
}

// printResult writes one table per workload: every metric with its
// value, unit and per-round values.
func printResult(w io.Writer, r *Result) {
	for _, name := range sortedKeys(r.Workloads) {
		wr := r.Workloads[name]
		fmt.Fprintf(w, "== %s  correct=%v attempted=%d failed=%d\n", name, wr.Correct, wr.Attempted, wr.Failed)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "   error: %s\n", e)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		for _, m := range sortedKeys(wr.Metrics) {
			mt := wr.Metrics[m]
			note := ""
			if mt.N > 0 {
				note = fmt.Sprintf("p%g of %d", mt.Percentile, mt.N)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t\n", m, num(mt.Value), mt.Unit, roundList(mt.Rounds), note)
		}
		tw.Flush()
	}
}

func num(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func roundList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = num(x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// verdict compares one metric of two runs against its bound. A metric
// whose own rounds spread wider than the bound cannot tell a change
// from noise and is unresolved — unless every round of b beats every
// round of a, or the reverse.
func verdict(a, b Metric, sm specMetric) (delta float64, v string) {
	sign := 1.0 // positive delta = worse
	if sm.Better == "higher" {
		sign = -1
	}
	delta = sign * (b.Value - a.Value) / math.Abs(a.Value)
	if spread(a.Rounds) > sm.Bound || spread(b.Rounds) > sm.Bound {
		switch {
		case separated(a.Rounds, b.Rounds, sign):
			return delta, "improved"
		case separated(b.Rounds, a.Rounds, sign):
			return delta, "regressed"
		}
		return delta, "unresolved"
	}
	switch {
	case delta > sm.Bound:
		return delta, "regressed"
	case delta < -sm.Bound:
		return delta, "improved"
	}
	return delta, "unchanged"
}

// separated reports whether every value of to is better than every
// value of from (sign +1: lower is better).
func separated(from, to []float64, sign float64) bool {
	if len(from) == 0 || len(to) == 0 {
		return false
	}
	for _, f := range from {
		for _, t := range to {
			if sign*(t-f) >= 0 {
				return false
			}
		}
	}
	return true
}

// compare prints the workload × metric table of two results and reports
// whether a gated (end-to-end) metric regressed beyond its bound. The
// per-layer metrics have no bound, so any difference their rounds do
// not separate is unresolved.
func compare(w io.Writer, a, b *Result, s *spec) bool {
	regressed := false
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tbound\tverdict\t")
	for _, name := range sortedKeys(a.Workloads) {
		wb, ok := b.Workloads[name]
		if !ok {
			continue
		}
		wa := a.Workloads[name]
		for i, sm := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
			ma, okA := wa.Metrics[sm.Name]
			mb, okB := wb.Metrics[sm.Name]
			if !okA || !okB {
				continue
			}
			d, v := verdict(ma, mb, sm)
			bound := "-"
			if gated := i < len(s.EndToEnd); gated {
				bound = fmt.Sprintf("%.0f%%", sm.Bound*100)
				regressed = regressed || v == "regressed"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\t\n",
				name, sm.Name, num(ma.Value), num(mb.Value), d*100, bound, v)
		}
	}
	tw.Flush()
	return regressed
}
