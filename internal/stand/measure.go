package stand

import (
	"fmt"
	"math"
	"time"

	"repro/internal/alloc"
	"repro/internal/canbus"
	"repro/internal/event"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/unit"
)

// SamplePeriod is the sampling rate of timing measurements (get_t/get_f).
const SamplePeriod = 2 * time.Millisecond

// sampler tracks one instrument's waveform during a step for timing
// methods. Each instrument keeps one for the stand's lifetime: its
// series is suspended between steps, and startSamplers restarts it.
type sampler struct {
	stand    *Stand
	inst     *instrument
	series   *event.Periodic
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

// startSamplers arms the sampler of every instrument a timing
// measurement of the step reads, first sampling one SamplePeriod from
// now, and lists them in s.samplers, replacing the previous step's
// list. Most steps have none. A nil plan (the step did not allocate)
// arms nothing.
func (s *Stand) startSamplers(measures []script.Stmt, plan *alloc.Plan) {
	s.samplers = s.samplers[:0]
	if plan == nil {
		return
	}
	for i := range measures {
		st := &measures[i]
		if st.Call.Method != "get_t" && st.Call.Method != "get_f" {
			continue
		}
		a, ok := plan.BySignal(st.Name)
		if !ok || a.Resource == nil {
			continue // measure() will report the missing assignment
		}
		inst := s.instruments[a.Resource]
		sm := inst.sampler
		if sm == nil {
			sm = &sampler{stand: s, inst: inst}
			sm.series = s.sched.Periodic(SamplePeriod, sm.sample)
			inst.sampler = sm
		} else {
			*sm = sampler{stand: s, inst: inst, series: sm.series}
			sm.series.Restart()
		}
		s.samplers = append(s.samplers, sm)
	}
}

// stopSamplers parks the samplers startSamplers armed at the end of the
// step's dt. They stay listed, holding what they sampled, for the step's
// measurements.
func (s *Stand) stopSamplers() {
	for _, sm := range s.samplers {
		sm.series.Suspend()
	}
}

// armedSampler returns the sampler armed this step for a timing
// measurement's assignment, or nil.
func (s *Stand) armedSampler(a *alloc.Assignment) *sampler {
	for _, sm := range s.samplers {
		if sm.inst.res == a.Resource {
			return sm
		}
	}
	return nil
}

// measure evaluates one measurement statement at the end of a step.
func (s *Stand) measure(st *script.Stmt, plan *alloc.Plan) report.Check {
	check := report.Check{
		Signal:   st.Name,
		Method:   st.Call.Method,
		Expected: s.expectation(st.SignalStmt),
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
		order, err := canbus.ParseByteOrder(st.Decl.ByteOrder)
		if err != nil {
			return fail("%v", err)
		}
		got, err := s.monitor.SignalOrder(order, s.db, st.Decl.Message, st.Decl.StartBit, st.Decl.Length)
		if err != nil {
			return fail("%v", err)
		}
		want, width, err := unit.ParseBits(st.Call.Attrs["data"])
		if err != nil {
			return fail("%v", err)
		}
		check.Measured = s.bitsText(got, width)
		check.Expected = s.bitsText(want, width)
		if got == want {
			check.Verdict = report.Pass
		} else {
			check.Verdict = report.Fail
			check.Detail = "payload mismatch"
		}
		return check

	case "get_t":
		sm := s.armedSampler(a)
		if sm == nil {
			return fail("no sampler armed")
		}
		if sm.err != nil {
			return fail("sampler: %v", sm.err)
		}
		return s.judgeRange(check, sm.highTime.Seconds(), st, "t", unit.Second.String())

	case "get_f":
		sm := s.armedSampler(a)
		if sm == nil {
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
func (s *Stand) judgeRange(check report.Check, v float64, st *script.Stmt, attr, unitSym string) report.Check {
	lo, err := s.prof.evalAttr(st.Call.Attrs[attr+"_min"])
	if err != nil {
		check.Verdict = report.Error
		check.Detail = fmt.Sprintf("%s_min: %v", attr, err)
		return check
	}
	hi, err := s.prof.evalAttr(st.Call.Attrs[attr+"_max"])
	if err != nil {
		check.Verdict = report.Error
		check.Detail = fmt.Sprintf("%s_max: %v", attr, err)
		return check
	}
	check.Measured = s.measuredText(v, unitSym)
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

// measuredKey identifies one rendered measurement: the value's bits and
// its unit symbol for a number, or the payload and its width for a
// binary literal. Numbers have width 0, so the two never collide.
type measuredKey struct {
	bits  uint64
	unit  string
	width int
}

// maxMeasured bounds the measured-text intern of one stand; a full
// intern starts over.
const maxMeasured = 1 << 10

// measuredText renders a measured value with its unit, "11.9976 V",
// interned per stand: most measurements repeat a few values (0 V, the
// supply), so each rendering is built once.
func (s *Stand) measuredText(v float64, unitSym string) string {
	k := measuredKey{bits: math.Float64bits(v), unit: unitSym}
	if text, ok := s.measured[k]; ok {
		return text
	}
	return s.intern(k, unit.FormatNumber(round6(v))+" "+unitSym)
}

// bitsText renders a CAN payload of width bits as a binary literal,
// "0001B", interned with the measured text.
func (s *Stand) bitsText(v uint64, width int) string {
	k := measuredKey{bits: v, width: width}
	if text, ok := s.measured[k]; ok {
		return text
	}
	return s.intern(k, unit.FormatBits(v, width))
}

// intern stores a rendering in the measured-text intern.
func (s *Stand) intern(k measuredKey, text string) string {
	if s.measured == nil {
		s.measured = make(map[measuredKey]string)
	} else if len(s.measured) >= maxMeasured {
		clear(s.measured)
	}
	s.measured[k] = text
	return text
}

// round6 rounds to 6 significant-ish decimals for stable report output.
func round6(v float64) float64 {
	if math.IsInf(v, 0) || v == 0 {
		return v
	}
	scale := math.Pow(10, 6-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*scale) / scale
}
