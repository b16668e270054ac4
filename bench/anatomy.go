package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/comptest"
	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
)

// anatomyUnit is one distinct unit of a workload: a compiled script on
// a registered stand profile with a registered DUT model.
type anatomyUnit struct {
	Stand, DUT string
	Compiled   *script.Compiled
}

// unitCost holds one unit's median costs in µs from the anatomy sweep:
// what a unit on a pooled stand spends outside the runner.
type unitCost struct {
	pooled, align, encode float64
}

// noopObserver is attached to measure what observation alone costs: the
// stand samples outputs every stand.TracePeriod and gives up
// fast-forward for any attached observer.
type noopObserver struct{}

func (noopObserver) RunStarted(*script.Script, float64)                            {}
func (noopObserver) OutputsSampled(time.Duration, int, []stand.OutputState)        {}
func (noopObserver) StepFinished(*script.Step, time.Duration, []stand.OutputState) {}
func (noopObserver) RunFinished(*report.Report)                                    {}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sweep is the unit anatomy: it times each layer's public functions on
// the workload's own workbooks and units, reps times each, and sets the
// layer metrics every workload reports. Each unit runs on a freshly
// built stand, then again on the same stand after AlignForReuse (what a
// pooled stand does), and once more on a fresh stand with an observer
// attached; the three reports must be byte-identical.
func sweep(ctx context.Context, r *Round, books []string, units []anatomyUnit, reps int) ([]unitCost, error) {
	reps = max(reps, 1)
	var load, compile []float64
	for _, wb := range books {
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			suite, err := comptest.LoadSuiteString(wb)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			if _, err := comptest.Compile(suite); err != nil {
				return nil, err
			}
			load = append(load, ms(t1.Sub(t0)))
			compile = append(compile, ms(time.Since(t1)))
		}
	}

	reg := method.Builtin()
	var (
		all                [6][]float64 // build, run, pooled, align, observed, encode
		costs              []unitCost
		sim, host          time.Duration
		lineBytes, lines   int
		obsTotal, runTotal float64
	)
	for _, u := range units {
		var per [6][]float64
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			st, err := buildStand(u, reg)
			if err != nil {
				return nil, err
			}
			build := time.Since(t0)

			sim0, t1 := st.Scheduler().Now(), time.Now()
			fresh := st.RunCompiled(ctx, u.Compiled, stand.RunOptions{})
			run := time.Since(t1)
			sim += st.Scheduler().Now() - sim0
			host += run

			t2 := time.Now()
			line, err := encode(fresh)
			if err != nil {
				return nil, err
			}
			enc := time.Since(t2)
			lineBytes += len(line)
			lines++

			t3 := time.Now()
			st.AlignForReuse()
			align := time.Since(t3)
			t4 := time.Now()
			again := st.RunCompiled(ctx, u.Compiled, stand.RunOptions{})
			pooled := time.Since(t4)

			ost, err := buildStand(u, reg)
			if err != nil {
				return nil, err
			}
			ost.SetObserver(noopObserver{})
			t5 := time.Now()
			watched := ost.RunCompiled(ctx, u.Compiled, stand.RunOptions{})
			observed := time.Since(t5)

			for _, other := range []*report.Report{again, watched} {
				b, err := encode(other)
				if err != nil {
					return nil, err
				}
				if !bytes.Equal(b, line) {
					r.wrong(fmt.Errorf("anatomy: %s on %s: pooled or observed report differs from the fresh one",
						u.Compiled.Script.Name, u.Stand))
				}
			}
			for i, d := range []time.Duration{build, run, pooled, align, observed, enc} {
				per[i] = append(per[i], us(d))
				all[i] = append(all[i], us(d))
			}
		}
		costs = append(costs, unitCost{pooled: median(per[2]), align: median(per[3]), encode: median(per[5])})
		runTotal += median(per[1])
		obsTotal += median(per[4])
	}

	r.set("sheet.load_ms", "ms", median(load))
	r.set("plan.compile_ms", "ms", median(compile))
	r.set("stand.build_us", "us", median(all[0]))
	r.set("stand.run_us", "us", median(all[1]))
	r.set("stand.run_pooled_us", "us", median(all[2]))
	r.set("stand.align_us", "us", median(all[3]))
	r.set("stand.run_observed_us", "us", median(all[4]))
	r.set("report.encode_us", "us", median(all[5]))
	r.set("stand.observed_slowdown", "ratio", obsTotal/runTotal)
	r.set("stand.sim_s_per_host_s", "s/s", sim.Seconds()/host.Seconds())
	r.set("report.line_bytes", "B", float64(lineBytes)/float64(lines))
	return costs, nil
}

// buildStand builds a unit's stand the way the campaign runner does:
// profile → configuration → stand → DUT attached.
func buildStand(u anatomyUnit, reg *method.Registry) (*stand.Stand, error) {
	cfg, err := comptest.BuildStand(u.Stand, reg, stand.HarnessFromScript(u.Compiled.Script))
	if err != nil {
		return nil, err
	}
	st, err := stand.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	dut, err := comptest.NewDUT(u.DUT)
	if err != nil {
		return nil, err
	}
	if err := st.AttachDUT(dut); err != nil {
		return nil, err
	}
	return st, nil
}

// encode renders a report through the NDJSON sink, as campaigns stream
// it.
func encode(rep *report.Report) ([]byte, error) {
	var b bytes.Buffer
	sink := comptest.NDJSON(&b)
	sink.Emit(comptest.Result{Report: rep})
	return b.Bytes(), sink.Err()
}

// planUnits lists a plan's units on the given stands as anatomy units.
func planUnits(p *comptest.Plan, stands []string, dut string) []anatomyUnit {
	var out []anatomyUnit
	for _, u := range p.Units(stands, dut) {
		out = append(out, anatomyUnit{Stand: u.Stand, DUT: dut, Compiled: u.Compiled})
	}
	return out
}
