package stand

import (
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/canbus"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/unit"
)

// SamplePeriod is the sampling rate of timing measurements (get_t/get_f).
const SamplePeriod = 2 * time.Millisecond

// sampler tracks one pin's waveform during a step for timing methods.
type sampler struct {
	stand    *Stand
	inst     *instrument
	stopFn   func()
	prevHigh bool
	seeded   bool
	highTime time.Duration
	edges    int
	firstAt  time.Duration
	lastAt   time.Duration
	err      error
}

func (sm *sampler) sample() {
	sol, err := sm.stand.net.Solve()
	if err != nil {
		if sm.err == nil {
			sm.err = err
		}
		return
	}
	sm.stand.Solves++
	now := sm.stand.sched.Now()
	v := sol.VoltageBetween(sm.inst.nodes[0], sm.inst.nodes[1])
	high := v > 0.5*sm.stand.prof.cfg.UbattVolts
	if sm.seeded {
		if sm.prevHigh {
			sm.highTime += now - sm.lastAt
		}
		if high && !sm.prevHigh {
			sm.edges++
		}
	} else {
		sm.firstAt = now
	}
	sm.prevHigh, sm.seeded, sm.lastAt = high, true, now
}

func (sm *sampler) stop() {
	if sm.stopFn != nil {
		sm.stopFn()
		sm.stopFn = nil
	}
}

// startSamplers arms a sampler for every timing measurement of the step.
func (s *Stand) startSamplers(measures []*script.SignalStmt, plan *alloc.Plan) map[*script.SignalStmt]*sampler {
	out := map[*script.SignalStmt]*sampler{}
	for _, st := range measures {
		if st.Call.Method != "get_t" && st.Call.Method != "get_f" {
			continue
		}
		a, ok := plan.BySignal(st.Name)
		if !ok || a.Resource == nil {
			continue // measure() will report the missing assignment
		}
		inst := s.instruments[a.Resource]
		sm := &sampler{stand: s, inst: inst}
		sm.stopFn = s.sched.Every(SamplePeriod, sm.sample)
		out[st] = sm
	}
	return out
}

// measure evaluates one measurement statement at the end of a step.
func (s *Stand) measure(sc *script.Script, st *script.SignalStmt,
	plan *alloc.Plan, samplers map[*script.SignalStmt]*sampler) report.Check {

	check := report.Check{
		Signal:   st.Name,
		Method:   st.Call.Method,
		Expected: s.expectation(st),
		Measured: "-",
	}
	fail := func(format string, args ...any) report.Check {
		check.Verdict = report.Error
		check.Detail = fmt.Sprintf(format, args...)
		return check
	}

	a, ok := plan.BySignal(st.Name)
	if !ok {
		return fail("no allocation for measurement")
	}

	switch st.Call.Method {
	case "get_u":
		inst := s.instruments[a.Resource]
		sol, err := s.net.Solve()
		if err != nil {
			return fail("solver: %v", err)
		}
		s.Solves++
		v := sol.VoltageBetween(inst.nodes[0], inst.nodes[1])
		return s.judgeRange(check, v, st, "u", unit.Volt.String())

	case "get_r":
		inst := s.instruments[a.Resource]
		r, err := s.net.MeasureResistance(inst.nodes[0], inst.nodes[1])
		if err != nil {
			return fail("solver: %v", err)
		}
		s.Solves++
		return s.judgeRange(check, r, st, "r", unit.Ohm.String())

	case "get_can":
		decl := sc.Decl(st.Name)
		if decl == nil {
			return fail("undeclared signal")
		}
		order, err := canbus.ParseByteOrder(decl.ByteOrder)
		if err != nil {
			return fail("%v", err)
		}
		got, err := s.monitor.SignalOrder(order, s.db, decl.Message, decl.StartBit, decl.Length)
		if err != nil {
			return fail("%v", err)
		}
		want, width, err := unit.ParseBits(st.Call.Attrs["data"])
		if err != nil {
			return fail("%v", err)
		}
		check.Measured = unit.FormatBits(got, width)
		check.Expected = unit.FormatBits(want, width)
		if got == want {
			check.Verdict = report.Pass
		} else {
			check.Verdict = report.Fail
			check.Detail = "payload mismatch"
		}
		return check

	case "get_t":
		sm, ok := samplers[st]
		if !ok {
			return fail("no sampler armed")
		}
		if sm.err != nil {
			return fail("sampler: %v", sm.err)
		}
		return s.judgeRange(check, sm.highTime.Seconds(), st, "t", unit.Second.String())

	case "get_f":
		sm, ok := samplers[st]
		if !ok {
			return fail("no sampler armed")
		}
		if sm.err != nil {
			return fail("sampler: %v", sm.err)
		}
		span := sm.lastAt - sm.firstAt
		if !sm.seeded || span <= 0 {
			return fail("no samples taken")
		}
		// Frequency = rising edges over the sampled window.
		freq := float64(sm.edges) / span.Seconds()
		return s.judgeRange(check, freq, st, "f", unit.Hertz.String())

	case "get_i":
		// A series ammeter would require breaking the circuit, which the
		// quasi-static network model does not support (DESIGN.md).
		return fail("get_i is not supported by the simulated stand")
	}
	return fail("unknown measurement method")
}

// judgeRange compares a measured value against <attr>_min/<attr>_max.
func (s *Stand) judgeRange(check report.Check, v float64, st *script.SignalStmt, attr, unitSym string) report.Check {
	lo, err := s.evalAttr(st.Call.Attrs[attr+"_min"])
	if err != nil {
		check.Verdict = report.Error
		check.Detail = fmt.Sprintf("%s_min: %v", attr, err)
		return check
	}
	hi, err := s.evalAttr(st.Call.Attrs[attr+"_max"])
	if err != nil {
		check.Verdict = report.Error
		check.Detail = fmt.Sprintf("%s_max: %v", attr, err)
		return check
	}
	check.Measured = unit.FormatNumber(round6(v)) + " " + unitSym
	if v >= lo && v <= hi {
		check.Verdict = report.Pass
		return check
	}
	check.Verdict = report.Fail
	if v < lo {
		check.Detail = "below limit"
	} else {
		check.Detail = "above limit"
	}
	return check
}

// round6 rounds to 6 significant-ish decimals for stable report output.
func round6(v float64) float64 {
	if math.IsInf(v, 0) || v == 0 {
		return v
	}
	scale := math.Pow(10, 6-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*scale) / scale
}
