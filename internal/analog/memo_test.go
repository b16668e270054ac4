package analog

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// pwmNet is a supply feeding a divider, plus a PWM-driven source on the
// divider's midpoint: the shape of a stand pin a PWM output toggles.
func pwmNet() (n *Network, pwm *VSource, load *Resistor) {
	n = NewNetwork()
	top, mid := n.Node("top"), n.Node("mid")
	n.AddVSource("bat", top, Ground, 12)
	n.AddResistor("r1", top, mid, 1000)
	load = n.AddResistor("r2", mid, Ground, 1000)
	pwm = n.AddVSource("pwm", mid, Ground, 5)
	return n, pwm, load
}

// fresh solves the network's current configuration from scratch,
// bypassing the memo.
func fresh(n *Network) *Solution {
	sol, err := n.solve(nil)
	if err != nil {
		panic(err)
	}
	return sol
}

// snapshot copies a Solution, which is valid only until the next Solve.
func snapshot(s *Solution) *Solution {
	c := *s
	c.v, c.srcAmps = slices.Clone(s.v), slices.Clone(s.srcAmps)
	return &c
}

func sameBits(a, b *Solution) bool {
	eq := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
	}
	return eq(a.v, b.v) && eq(a.srcAmps, b.srcAmps)
}

// TestRecentSolveAllocs pins the memo's point: once both phases of a
// PWM toggle are solved, toggling and solving allocates nothing.
func TestRecentSolveAllocs(t *testing.T) {
	n, pwm, _ := pwmNet()
	on := n.MustSolve()
	pwm.SetEnabled(false)
	off := n.MustSolve()
	if got := testing.AllocsPerRun(100, func() {
		pwm.SetEnabled(true)
		if n.MustSolve() != on {
			t.Fatal("enabled phase re-solved")
		}
		pwm.SetEnabled(false)
		if n.MustSolve() != off {
			t.Fatal("disabled phase re-solved")
		}
	}); got != 0 {
		t.Errorf("steady PWM toggle allocates %v times, want 0", got)
	}
}

// TestRecentSolveByteIdentical walks a network through random
// configurations, more than the memo holds, and checks every solution
// bit for bit against a fresh solve of the same configuration.
func TestRecentSolveByteIdentical(t *testing.T) {
	n, pwm, load := pwmNet()
	rng := rand.New(rand.NewSource(1))
	ohms := []float64{500, 1000, 2200, math.Inf(1), 0}
	for i := range 400 {
		switch rng.Intn(3) {
		case 0:
			pwm.SetEnabled(!pwm.Enabled())
		case 1:
			load.SetOhms(ohms[rng.Intn(len(ohms))])
		default:
			pwm.SetVolts(float64(rng.Intn(3)))
		}
		got := n.MustSolve()
		if want := fresh(n); !sameBits(got, want) {
			t.Fatalf("step %d: memoised %v %v, fresh %v %v", i, got.v, got.srcAmps, want.v, want.srcAmps)
		}
	}
}

// TestRecentSolveReshape checks that adding a node or an element after
// a solve retires every remembered solution: the next Solution has the
// new dimension and the new circuit's voltages.
func TestRecentSolveReshape(t *testing.T) {
	n, pwm, _ := pwmNet()
	pwm.SetEnabled(false)
	n.MustSolve()
	extra := n.Node("extra")
	sol := n.MustSolve()
	if len(sol.v) != 4 || sol.Voltage(extra) != 0 || !approx(sol.Voltage(n.Node("mid")), 6) {
		t.Fatalf("after Node: %d voltages %v, want 4 with mid at 6 V", len(sol.v), sol.v)
	}
	n.AddResistor("r3", n.Node("mid"), Ground, 1000)
	if got := n.MustSolve().Voltage(n.Node("mid")); !approx(got, 4) {
		t.Fatalf("after AddResistor: mid = %v, want 4", got)
	}
	// An ohmmeter probe adds and removes a source; the configuration
	// after it matches the one before, and so must the solution.
	before := snapshot(n.MustSolve())
	if _, err := n.MeasureResistance(n.Node("mid"), Ground); err != nil {
		t.Fatal(err)
	}
	if after := n.MustSolve(); !sameBits(after, before) {
		t.Fatalf("after MeasureResistance: %v, want %v", after.v, before.v)
	}
}

// TestRecentSolveSignedZero checks that −0 V and +0 V are different
// configurations: each gets the solution a fresh solve gives it.
func TestRecentSolveSignedZero(t *testing.T) {
	n, pwm, _ := pwmNet()
	pwm.SetVolts(0)
	pos := n.MustSolve()
	// SetVolts compares with ==, so −0 V is reached from a nonzero value.
	pwm.SetVolts(1)
	n.MustSolve()
	pwm.SetVolts(math.Copysign(0, -1))
	neg := n.MustSolve()
	if neg == pos {
		t.Fatal("−0 V reused the +0 V solution")
	}
	if !sameBits(neg, fresh(n)) {
		t.Errorf("−0 V solution differs from a fresh solve")
	}
	pwm.SetVolts(1)
	pwm.SetVolts(0)
	if got := n.MustSolve(); got != pos {
		t.Errorf("+0 V did not reuse its own solution")
	}
}
