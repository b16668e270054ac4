package stand

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/canbus"
	"repro/internal/ecu"
	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/script"
	"repro/internal/unit"
)

// voltageScript builds a hand-written script that drives the door pin
// DS_FL with put_u (voltage source instead of decade) and checks the
// lamp: 0 V on the pin reads as "door open", so at night the lamp lights.
func voltageScript() *script.Script {
	sc := &script.Script{Name: "VoltageStimulus", Version: script.Version,
		Decls: []*script.SignalDecl{
			{Name: "ds_fl", Direction: "in", Class: "digital", Pin: "DS_FL"},
			{Name: "night", Direction: "in", Class: "can", Message: "BCM_STAT", StartBit: 4, Length: 1},
			{Name: "int_ill", Direction: "out", Class: "analog", Pin: "INT_ILL_F", PinRet: "INT_ILL_R"},
		},
	}
	stmt := func(name, m string, attrs map[string]string) *script.SignalStmt {
		return &script.SignalStmt{Name: name, Call: script.MethodCall{Method: m, Attrs: attrs}}
	}
	sc.Steps = []*script.Step{
		{Nr: 0, Dt: 1, Signals: []*script.SignalStmt{
			stmt("night", "put_can", map[string]string{"data": "1B"}),
			stmt("ds_fl", "put_u", map[string]string{"u": "12"}), // door closed
			stmt("int_ill", "get_u", map[string]string{"u_min": "0", "u_max": "(0.3*ubatt)"}),
		}},
		{Nr: 1, Dt: 1, Signals: []*script.SignalStmt{
			stmt("ds_fl", "put_u", map[string]string{"u": "0"}), // door open
			stmt("int_ill", "get_u", map[string]string{"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"}),
		}},
	}
	return sc
}

func TestPutUStimulus(t *testing.T) {
	// The HIL rack routes its power supply through the per-pin muxes; a
	// put_u of 0 V must read as an open door.
	reg := method.Builtin()
	sc := voltageScript()
	cfg, err := HILRack(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st := MustNew(cfg, reg)
	if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	rep := st.RunContext(context.Background(), sc)
	if !rep.Passed() {
		t.Fatalf("put_u script failed:\n%s", report.TextString(rep))
	}
}

func TestGetIUnsupported(t *testing.T) {
	// get_i has no series-shunt realisation in the quasi-static model:
	// the stand must report a diagnostic ERROR verdict, not a wrong value.
	reg := method.Builtin()
	sc := voltageScript()
	// Add a current check on the lamp.
	sc.Steps[1].Signals = append(sc.Steps[1].Signals, &script.SignalStmt{
		Name: "int_ill2", Call: script.MethodCall{Method: "get_i",
			Attrs: map[string]string{"i_min": "0", "i_max": "1"}},
	})
	sc.Decls = append(sc.Decls, &script.SignalDecl{
		Name: "int_ill2", Direction: "out", Class: "analog", Pin: "INT_ILL_F"})
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	// FullLab's DVMs do not advertise get_i, so allocation itself refuses;
	// grant DVM2 the capability to reach the measurement code path (DVM1
	// is busy with the concurrent get_u on int_ill).
	dvm, _ := cfg.Catalog.Lookup("DVM2")
	dvm.Caps = append(dvm.Caps, resource.Capability{
		Method: "get_i", Range: resource.Unbounded(unit.Ampere)})
	st := MustNew(cfg, reg)
	if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	rep := st.RunContext(context.Background(), sc)
	found := false
	for _, step := range rep.Steps {
		for _, c := range step.Checks {
			if c.Method == "get_i" {
				found = true
				if c.Verdict != report.Error || !strings.Contains(c.Detail, "not supported") {
					t.Errorf("get_i check = %+v, want diagnostic ERROR", c)
				}
			}
		}
	}
	if !found {
		t.Fatal("get_i check missing from report")
	}
}

func TestWaitExtendsStep(t *testing.T) {
	// A wait statement adds settle time to the step: the lamp timeout
	// elapses during the wait even though dt alone would not reach it.
	s := paperStand(t)
	sc := paperScript(t)
	// Replace the 280 s soak with 1 s + a 310 s wait; the following
	// steps still see the timeout expired.
	for _, step := range sc.Steps {
		if step.Nr == 7 {
			step.Dt = 1
			step.Signals = append(step.Signals, &script.SignalStmt{
				Name: "ds_fl", // any declared signal may carry the wait
				Call: script.MethodCall{Method: "wait", Attrs: map[string]string{"t": "310"}},
			})
			// The lamp is now OFF at the end of this step (timeout passed
			// during the wait), so expect Lo instead of Ho. Generated
			// statements are shared with other steps, so the check is
			// replaced rather than edited.
			for i, st := range step.Signals {
				if st.Call.Method == "get_u" {
					step.Signals[i] = &script.SignalStmt{Name: st.Name, Call: script.MethodCall{
						Method: "get_u", Attrs: map[string]string{"u_min": "0", "u_max": "(0.3*ubatt)"}}}
				}
			}
		}
	}
	rep := s.RunContext(context.Background(), sc)
	if !rep.Passed() {
		t.Fatalf("wait-modified script failed:\n%s", report.TextString(rep))
	}
}

func TestStatsCounters(t *testing.T) {
	s := paperStand(t)
	_ = s.RunContext(context.Background(), paperScript(t))
	if s.Profile().Allocations() == 0 {
		t.Error("Allocations counter not incremented")
	}
	if s.Solves == 0 {
		t.Error("Solves counter not incremented")
	}
}

// pwmScript stimulates pin FAN_PWM with put_pwm and measures the
// frequency on the same pin through a second signal — closing the loop
// between the PWM generator and the counter without a DUT.
func pwmScript(freq, duty string, fmin, fmax string) *script.Script {
	return &script.Script{Name: "PWMLoop", Version: script.Version,
		Decls: []*script.SignalDecl{
			{Name: "fan_cmd", Direction: "in", Class: "digital", Pin: "FAN_PWM"},
			{Name: "fan_sense", Direction: "out", Class: "analog", Pin: "FAN_PWM"},
		},
		Steps: []*script.Step{
			{Nr: 0, Dt: 2, Signals: []*script.SignalStmt{
				{Name: "fan_cmd", Call: script.MethodCall{Method: "put_pwm",
					Attrs: map[string]string{"f": freq, "duty": duty}}},
				{Name: "fan_sense", Call: script.MethodCall{Method: "get_f",
					Attrs: map[string]string{"f_min": fmin, "f_max": fmax}}},
			}},
		},
	}
}

func TestPutPWMMeasuredWithGetF(t *testing.T) {
	reg := method.Builtin()
	sc := pwmScript("50", "50", "45", "55")
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st := MustNew(cfg, reg)
	rep := st.RunContext(context.Background(), sc)
	if !rep.Passed() {
		t.Fatalf("PWM loop failed:\n%s", report.TextString(rep))
	}
}

func TestPutPWMWrongFrequencyFails(t *testing.T) {
	reg := method.Builtin()
	// Generate 20 Hz but expect ~50 Hz: the counter must catch it.
	sc := pwmScript("20", "50", "45", "55")
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st := MustNew(cfg, reg)
	rep := st.RunContext(context.Background(), sc)
	if rep.Passed() {
		t.Fatal("wrong PWM frequency passed the get_f check")
	}
}

func TestPutPWMDutyExtremes(t *testing.T) {
	reg := method.Builtin()
	// 0 % duty produces no edges: frequency ~0.
	sc := pwmScript("50", "0", "0", "1")
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	st := MustNew(cfg, reg)
	rep := st.RunContext(context.Background(), sc)
	if !rep.Passed() {
		t.Fatalf("0%% duty loop failed:\n%s", report.TextString(rep))
	}
}

func TestPutPWMBadParams(t *testing.T) {
	reg := method.Builtin()
	sc := pwmScript("0", "50", "0", "1") // 0 Hz is implausible
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	// The capability range starts at 0 Hz, so allocation accepts it; the
	// instrument itself refuses, aborting the step with ERROR verdicts.
	st := MustNew(cfg, reg)
	rep := st.RunContext(context.Background(), sc)
	if rep.Passed() {
		t.Fatal("0 Hz PWM passed")
	}
}

func TestPaperTestPassesWithGreedyAllocator(t *testing.T) {
	// The paper's table never creates the decade trap, so first-fit
	// allocation also executes it — the baseline configuration works for
	// the published example even though the backtracking default is safer.
	reg := method.Builtin()
	cfg, err := PaperConfig(reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Strategy = alloc.Greedy
	st := MustNew(cfg, reg)
	if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	if rep := st.RunContext(context.Background(), paperScript(t)); !rep.Passed() {
		t.Fatalf("greedy stand failed:\n%s", report.TextString(rep))
	}
}

func TestCustomSettleTime(t *testing.T) {
	reg := method.Builtin()
	cfg, err := PaperConfig(reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SettleTime = time.Second
	st := MustNew(cfg, reg)
	if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
		t.Fatal(err)
	}
	before := st.Scheduler().Now()
	if rep := st.RunContext(context.Background(), paperScript(t)); !rep.Passed() {
		t.Fatal("run with long settle failed")
	}
	elapsed := st.Scheduler().Now() - before
	// 1 s settle + 309 s steps.
	if elapsed < 309*time.Second || elapsed > 311*time.Second {
		t.Errorf("elapsed simulated time = %v", elapsed)
	}
}

func TestMotorolaSignalEndToEnd(t *testing.T) {
	// A script declaring a Motorola-packed CAN signal: the stand must put
	// the bits on the wire in DBC big-endian order.
	reg := method.Builtin()
	sc := &script.Script{Name: "MotorolaTx", Version: script.Version,
		Decls: []*script.SignalDecl{
			{Name: "torque_rq", Direction: "in", Class: "can",
				Message: "ENG_CMD", StartBit: 7, Length: 12, ByteOrder: "motorola"},
		},
		Steps: []*script.Step{
			{Nr: 0, Dt: 1, Signals: []*script.SignalStmt{
				{Name: "torque_rq", Call: script.MethodCall{Method: "put_can",
					Attrs: map[string]string{"data": "101010111100B"}}}, // 0xABC
			}},
		},
	}
	if err := script.Validate(sc, reg); err != nil {
		t.Fatal(err)
	}
	cfg, err := FullLab(reg, Harness{Forward: []string{"UNUSED"}})
	if err != nil {
		t.Fatal(err)
	}
	st := MustNew(cfg, reg)
	mon := canbus.NewMonitor()
	st.Bus().Attach("listener", mon.Rx)
	rep := st.RunContext(context.Background(), sc)
	if rep.FatalErr != "" {
		t.Fatalf("run aborted: %s", rep.FatalErr)
	}
	// The DBC reference layout: 0xABC at Motorola start bit 7, length 12
	// occupies byte 0 = 0xAB and the high nibble of byte 1.
	v, err := mon.SignalOrder(canbus.Motorola, st.db, "ENG_CMD", 7, 12)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABC {
		t.Errorf("wire value = %#x, want 0xABC", v)
	}
	def, _ := st.db.Lookup("ENG_CMD")
	f, ok := mon.Last(def.ID)
	if !ok || f.Data[0] != 0xAB || f.Data[1] != 0xC0 {
		t.Errorf("wire bytes = % X, want AB C0", f.Data[:2])
	}
}

// TestNonFiniteTimingRejected: script XML carrying a step duration or
// a wait the stand's clock cannot advance by is rejected with a
// FatalErr before any step runs, instead of panicking the scheduler.
func TestNonFiniteTimingRejected(t *testing.T) {
	base, err := script.EncodeString(paperScript(t))
	if err != nil {
		t.Fatal(err)
	}
	wait := `<signal name="ds_fl"><wait t="%s"></wait></signal></step>`
	cases := map[string]string{
		"dt NaN":   strings.Replace(base, `dt="0.5"`, `dt="NaN"`, 1),
		"dt INF":   strings.Replace(base, `dt="0.5"`, `dt="+Inf"`, 1),
		"wait -5":  strings.Replace(base, "</step>", fmt.Sprintf(wait, "-5"), 1),
		"wait INF": strings.Replace(base, "</step>", fmt.Sprintf(wait, "INF"), 1),
		"wait NaN": strings.Replace(base, "</step>", fmt.Sprintf(wait, "NaN"), 1),
		// Finite, but beyond the nanosecond clock.
		"dt 1e300":  strings.Replace(base, `dt="0.5"`, `dt="1e300"`, 1),
		"wait 1e10": strings.Replace(base, "</step>", fmt.Sprintf(wait, "1e10"), 1),
	}
	for name, xml := range cases {
		if xml == base {
			t.Fatalf("%s: edit did not apply", name)
		}
		sc, err := script.DecodeString(xml)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := paperStand(t).RunContext(context.Background(), sc)
		if rep.FatalErr == "" || len(rep.Steps) != 0 {
			t.Errorf("%s: FatalErr %q, %d steps; want a rejection", name, rep.FatalErr, len(rep.Steps))
		}
	}
}
