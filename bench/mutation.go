package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/comptest"
	"repro/comptest/mutation"
	"repro/internal/lint"
	"repro/internal/report"
)

// mutationMatrix is the mutation_matrix workload: the kill matrix of
// every built-in DUT (155 mutants) with kill statistics primed in setup,
// as `comptest mutate` runs it with its .kills.json sidecar. It uses the
// stand layer differently from campaign_matrix: many short StopOnFail
// runs, fault inject/clear and reuse through AlignForReuse.
type mutationMatrix struct {
	golden   *goldens
	plans    []*mutation.Plan
	kills    map[*mutation.Plan]*lint.KillMatrix
	books    []string
	baseline []anatomyUnit

	enumerateMS []float64 // per set-up
	units       []float64 // stand executions per traced operation
}

func (w *mutationMatrix) setup(ctx context.Context) error {
	t0 := time.Now()
	plans, err := mutation.EnumerateBuiltin()
	if err != nil {
		return err
	}
	w.enumerateMS = append(w.enumerateMS, ms(time.Since(t0)))
	w.plans, w.books, w.baseline = plans, nil, nil
	w.kills = make(map[*mutation.Plan]*lint.KillMatrix, len(plans))
	for _, p := range plans {
		compiled, err := comptest.Compile(p.Suite)
		if err != nil {
			return err
		}
		w.baseline = append(w.baseline, planUnits(compiled, []string{p.Stand}, p.DUT)...)
		m, err := mutation.Run(ctx, p, mutation.Options{Parallelism: parallelism})
		if err != nil {
			return err
		}
		s := report.Strength{DUTs: []report.DUTStrength{m.Strength(nil)}}
		w.kills[p] = lint.KillMatrixFromStrength(&s)
		wb, err := comptest.BuiltinWorkbook(p.DUT)
		if err != nil {
			return err
		}
		w.books = append(w.books, wb)
	}
	return nil
}

func (w *mutationMatrix) reference(context.Context) error {
	var err error
	w.golden, err = loadGoldens()
	return err
}

func (w *mutationMatrix) cycle() int { return 1 }

// firstSink counts results and notes when the first one arrived. The
// runner serialises Emit calls.
type firstSink struct {
	n     int
	first time.Time
}

func (s *firstSink) Emit(comptest.Result) {
	if s.n == 0 {
		s.first = time.Now()
	}
	s.n++
}

// runPlan runs one kill matrix; sink may be nil.
func (w *mutationMatrix) runPlan(ctx context.Context, p *mutation.Plan, sink comptest.Sink) (*mutation.Matrix, error) {
	return mutation.Run(ctx, p, mutation.Options{Parallelism: parallelism, KillStats: w.kills[p], Sink: sink})
}

func (w *mutationMatrix) op(ctx context.Context, i int, tr *tracer) (time.Duration, time.Duration, error) {
	sink := &firstSink{}
	t0 := time.Now()
	mats := make([]*mutation.Matrix, len(w.plans))
	for k, p := range w.plans {
		_, end := tr.begin("mutation.plan."+p.DUT, i, 0)
		m, err := w.runPlan(ctx, p, sink)
		end()
		if err != nil {
			return 0, 0, err
		}
		mats[k] = m
	}
	lat := time.Since(t0)
	for _, m := range mats {
		if s := m.Score(); s != w.golden.Mutation[m.DUT] {
			return 0, 0, fmt.Errorf("%s kill score %s, golden %s", m.DUT, s, w.golden.Mutation[m.DUT])
		}
		if e := m.Errored(); len(e) > 0 {
			return 0, 0, fmt.Errorf("%s: %d errored mutants (first: %v)", m.DUT, len(e), e[0].Err)
		}
	}
	if tr != nil {
		w.units = append(w.units, float64(sink.n))
	}
	return lat, sink.first.Sub(t0), nil
}

// anatomy sweeps each plan's baseline on its stand: the units every
// mutant re-runs.
func (w *mutationMatrix) anatomy() ([]string, []anatomyUnit) { return w.books, w.baseline }

func (w *mutationMatrix) layers(r *Round, spans []span, _ []unitCost) {
	r.set("mutation.enumerate_ms", "ms", median(w.enumerateMS))
	for name, st := range summarise(spans) {
		if dut, ok := strings.CutPrefix(name, "mutation.plan."); ok {
			r.set("mutation.plan_ms."+dut, "ms", st.dur/1e6)
		}
	}
	baseline, mutants := 0, 0
	for _, p := range w.plans {
		baseline += len(p.Baseline)
		mutants += len(p.Mutants)
	}
	units := median(w.units)
	r.set("mutation.units_executed", "count", units)
	r.set("mutation.units_per_mutant", "ratio", (units-float64(baseline))/float64(mutants))
}
