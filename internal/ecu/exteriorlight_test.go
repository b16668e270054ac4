package ecu

import (
	"math"
	"testing"
	"time"
)

// extRig wires an exterior light model onto the shared test rig.
func extRig(t *testing.T) (*rig, *ExteriorLight, *Ticker) {
	r := newRig(t)
	m := NewExteriorLight()
	tick := r.attach(m)
	return r, m, tick
}

// setExt drives the packed EXT_CMD word: LIGHT_SW, IGN, NIGHT, FOG_SW.
func setExt(r *rig, sw, ign, night, fog uint64) {
	r.putCAN("EXT_CMD", 0, 2, sw)
	r.putCAN("EXT_CMD", 2, 1, ign)
	r.putCAN("EXT_CMD", 3, 1, night)
	r.putCAN("EXT_CMD", 4, 1, fog)
}

func TestExteriorLowBeam(t *testing.T) {
	r, _, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 0, 1, 0, 0)
	r.run(time.Second)
	if r.motorHigh("LB_OUT") {
		t.Fatal("beam on with switch off")
	}
	setExt(r, 2, 1, 0, 0)
	r.run(time.Second)
	if !r.motorHigh("LB_OUT") {
		t.Fatal("beam off with switch on (R1)")
	}
	// No beam without ignition (at day: no follow-me-home).
	setExt(r, 2, 0, 0, 0)
	r.run(time.Second)
	if r.motorHigh("LB_OUT") {
		t.Error("beam on without ignition at day")
	}
}

func TestExteriorDRLPWM(t *testing.T) {
	r, _, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 0, 1, 0, 0)
	// Sample DRL_OUT over one second and count rising edges.
	edges := 0
	prev := false
	stop := r.sched.Periodic(2*time.Millisecond, func() {
		high := r.voltage("DRL_OUT") > 6
		if high && !prev {
			edges++
		}
		prev = high
	}).Stop
	r.run(time.Second)
	stop()
	if edges < 20 || edges > 30 {
		t.Errorf("DRL edges in 1 s = %d, want ~25 (R2)", edges)
	}
}

func TestExteriorDRLOffAtNight(t *testing.T) {
	r, _, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 0, 1, 1, 0)
	r.run(time.Second)
	if r.voltage("DRL_OUT") > 1 {
		t.Error("DRL running at night (R2)")
	}
}

func TestExteriorFollowMeHome(t *testing.T) {
	r, _, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 2, 1, 1, 0) // driving at night
	r.run(time.Second)
	if !r.motorHigh("LB_OUT") {
		t.Fatal("beam off while driving")
	}
	setExt(r, 0, 0, 1, 0) // park: switch off, ignition off
	r.run(time.Second)
	if !r.motorHigh("LB_OUT") {
		t.Fatal("follow-me-home did not hold the beam (R3)")
	}
	r.run(25 * time.Second)
	if !r.motorHigh("LB_OUT") {
		t.Error("beam off before the 30 s follow-me-home time")
	}
	r.run(10 * time.Second)
	if r.motorHigh("LB_OUT") {
		t.Error("beam still on after 30 s")
	}
}

func TestExteriorNoFMHAtDay(t *testing.T) {
	r, _, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 2, 1, 0, 0)
	r.run(time.Second)
	setExt(r, 0, 0, 0, 0)
	r.run(time.Second)
	if r.motorHigh("LB_OUT") {
		t.Error("follow-me-home armed at day")
	}
}

func TestExteriorRearFog(t *testing.T) {
	r, m, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 2, 1, 0, 1) // beam + fog
	r.run(time.Second)
	if got := m.fogRel.Ohms(); got != FogContactOhms {
		t.Errorf("fog contact = %v Ω, want %v (R4)", got, FogContactOhms)
	}
	setExt(r, 2, 1, 0, 0)
	r.run(time.Second)
	if !math.IsInf(m.fogRel.Ohms(), 1) {
		t.Error("fog contact closed with switch off")
	}
	// No fog without low beam.
	setExt(r, 0, 1, 0, 1)
	r.run(time.Second)
	if !math.IsInf(m.fogRel.Ohms(), 1) {
		t.Error("fog contact closed without low beam")
	}
}

func TestExteriorFaults(t *testing.T) {
	t.Run("no_fmh", func(t *testing.T) {
		r, m, tick := extRig(t)
		defer tick.Stop()
		if err := m.InjectFault("no_fmh"); err != nil {
			t.Fatal(err)
		}
		setExt(r, 2, 1, 1, 0)
		r.run(time.Second)
		setExt(r, 0, 0, 1, 0)
		r.run(time.Second)
		if r.motorHigh("LB_OUT") {
			t.Error("no_fmh fault not observable")
		}
	})
	t.Run("fmh_10s", func(t *testing.T) {
		r, m, tick := extRig(t)
		defer tick.Stop()
		if err := m.InjectFault("fmh_10s"); err != nil {
			t.Fatal(err)
		}
		setExt(r, 2, 1, 1, 0)
		r.run(time.Second)
		setExt(r, 0, 0, 1, 0)
		r.run(15 * time.Second) // healthy unit still lit at 15 s
		if r.motorHigh("LB_OUT") {
			t.Error("fmh_10s fault not observable at 15 s")
		}
	})
	t.Run("fog_stuck_open", func(t *testing.T) {
		r, m, tick := extRig(t)
		defer tick.Stop()
		if err := m.InjectFault("fog_stuck_open"); err != nil {
			t.Fatal(err)
		}
		setExt(r, 2, 1, 0, 1)
		r.run(time.Second)
		if !math.IsInf(m.fogRel.Ohms(), 1) {
			t.Error("fog_stuck_open fault not observable")
		}
	})
	t.Run("drl_at_night", func(t *testing.T) {
		r, m, tick := extRig(t)
		defer tick.Stop()
		if err := m.InjectFault("drl_at_night"); err != nil {
			t.Fatal(err)
		}
		setExt(r, 0, 1, 1, 0)
		r.run(65 * time.Millisecond)
		// Somewhere within a PWM period the output is high.
		seen := false
		for i := 0; i < 25; i++ {
			r.run(2 * time.Millisecond)
			if r.voltage("DRL_OUT") > 6 {
				seen = true
			}
		}
		if !seen {
			t.Error("drl_at_night fault not observable")
		}
	})
}

func TestExteriorReset(t *testing.T) {
	r, m, tick := extRig(t)
	defer tick.Stop()
	setExt(r, 2, 1, 0, 1)
	r.run(time.Second)
	m.Reset()
	if m.lb.On() || m.drl.On() || !math.IsInf(m.fogRel.Ohms(), 1) {
		t.Error("Reset did not restore power-on state")
	}
}
