package analog

import (
	"math"
	"testing"
	"testing/quick"
)

const tol = 1e-6

func approx(a, b float64) bool {
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestVoltageDivider(t *testing.T) {
	n := NewNetwork()
	top := n.Node("top")
	mid := n.Node("mid")
	n.AddVSource("bat", top, Ground, 12)
	n.AddResistor("r1", top, mid, 1000)
	n.AddResistor("r2", mid, Ground, 1000)
	sol := n.MustSolve()
	if !approx(sol.Voltage(mid), 6) {
		t.Errorf("divider mid = %v, want 6", sol.Voltage(mid))
	}
	if !approx(sol.Voltage(top), 12) {
		t.Errorf("top = %v, want 12", sol.Voltage(top))
	}
}

func TestDividerProperty(t *testing.T) {
	// V(mid) = V * r2/(r1+r2) for arbitrary positive resistances.
	f := func(r1i, r2i uint16) bool {
		r1 := float64(r1i)/10 + 1 // 1 … ~6554 Ω
		r2 := float64(r2i)/10 + 1
		n := NewNetwork()
		top, mid := n.Node("t"), n.Node("m")
		n.AddVSource("v", top, Ground, 10)
		n.AddResistor("r1", top, mid, r1)
		n.AddResistor("r2", mid, Ground, r2)
		sol, err := n.Solve()
		if err != nil {
			return false
		}
		want := 10 * r2 / (r1 + r2)
		return math.Abs(sol.Voltage(mid)-want) < 1e-6*want+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPullUpWithDecade(t *testing.T) {
	// The paper's door-switch circuit: ECU pull-up from Ubatt to the pin,
	// resistor decade from pin to ground.
	//   decade 0 Ω   ("Open" status)  -> pin near 0 V
	//   decade INF   ("Closed")       -> pin at Ubatt
	//   decade 5 kΩ  (Closed minimum) -> pin well above half Ubatt
	n := NewNetwork()
	ubatt := n.Node("ubatt")
	pin := n.Node("DS_FL")
	n.AddVSource("bat", ubatt, Ground, 12)
	n.AddResistor("pullup", ubatt, pin, 1000)
	dec := n.AddResistor("decade", pin, Ground, math.Inf(1))

	sol := n.MustSolve()
	if !approx(sol.Voltage(pin), 12) {
		t.Errorf("closed (INF): pin = %v, want 12", sol.Voltage(pin))
	}
	dec.SetOhms(0)
	sol = n.MustSolve()
	if sol.Voltage(pin) > 0.01 {
		t.Errorf("open (0): pin = %v, want ~0", sol.Voltage(pin))
	}
	dec.SetOhms(5000)
	sol = n.MustSolve()
	want := 12 * 5000.0 / 6000.0
	if !approx(sol.Voltage(pin), want) {
		t.Errorf("5k: pin = %v, want %v", sol.Voltage(pin), want)
	}
}

func TestSwitch(t *testing.T) {
	n := NewNetwork()
	a, b := n.Node("a"), n.Node("b")
	n.AddVSource("v", a, Ground, 5)
	sw := n.AddSwitch("Sw1.1", a, b)
	n.AddResistor("load", b, Ground, 1000)
	sol := n.MustSolve()
	if sol.Voltage(b) > 1e-3 {
		t.Errorf("open switch: b = %v, want ~0", sol.Voltage(b))
	}
	if sw.Closed() {
		t.Error("fresh switch reports closed")
	}
	sw.SetClosed(true)
	sol = n.MustSolve()
	if !approx(sol.Voltage(b), 5) {
		t.Errorf("closed switch: b = %v, want 5", sol.Voltage(b))
	}
	if !sw.Closed() || sw.Name() != "Sw1.1" {
		t.Error("switch state/name wrong")
	}
}

func TestFloatingNodeReadsZero(t *testing.T) {
	// A node isolated by open switches must read ~0 V (gmin bleed), not
	// produce a singular matrix.
	n := NewNetwork()
	x := n.Node("floating")
	n.AddVSource("v", n.Node("a"), Ground, 5)
	sol, err := n.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if math.Abs(sol.Voltage(x)) > 1e-6 {
		t.Errorf("floating node = %v", sol.Voltage(x))
	}
}

func TestSourceCurrent(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	v := n.AddVSource("v", a, Ground, 10)
	n.AddResistor("r", a, Ground, 100)
	sol := n.MustSolve()
	if !approx(sol.SourceCurrent(v), 0.1) {
		t.Errorf("source current = %v, want 0.1", sol.SourceCurrent(v))
	}

	// A disabled source delivers nothing, even one that did last solve.
	b := n.Node("b")
	spare := n.AddVSource("spare", b, Ground, 10)
	n.AddResistor("rb", b, Ground, 100)
	n.MustSolve()
	spare.SetEnabled(false)
	if got := n.MustSolve().SourceCurrent(spare); got != 0 {
		t.Errorf("disabled source current = %v, want 0", got)
	}
	// So does a source of another network, even at the same position.
	other := NewNetwork()
	ob := other.Node("b")
	foreign := other.AddVSource("v", ob, Ground, 5)
	other.AddResistor("r", ob, Ground, 1)
	if got := other.MustSolve().SourceCurrent(foreign); !approx(got, 5) {
		t.Fatalf("foreign network's own current = %v, want 5", got)
	}
	if got := n.MustSolve().SourceCurrent(foreign); got != 0 {
		t.Errorf("source of another network: current = %v, want 0", got)
	}
}

// TestSolveAllocs pins the Solve scratch: a dirty solve allocates only
// the Solution and its one buffer, and reusing the scratch leaves every
// earlier Solution intact.
func TestSolveAllocs(t *testing.T) {
	n := NewNetwork()
	top, mid := n.Node("top"), n.Node("mid")
	v := n.AddVSource("bat", top, Ground, 12)
	n.AddResistor("r1", top, mid, 1000)
	r2 := n.AddResistor("r2", mid, Ground, 1000)
	first := n.MustSolve()
	ohms := 1000.0
	if got := testing.AllocsPerRun(100, func() {
		ohms++
		r2.SetOhms(ohms)
		n.MustSolve()
	}); got != 2 {
		t.Errorf("dirty Solve allocates %v times, want 2 (Solution + buffer)", got)
	}
	if !approx(first.Voltage(mid), 6) || !approx(first.SourceCurrent(v), 0.006) {
		t.Errorf("earlier solution changed: mid = %v, I = %v", first.Voltage(mid), first.SourceCurrent(v))
	}
}

func TestResistorCurrent(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	n.AddVSource("v", a, Ground, 10)
	r := n.AddResistor("r", a, Ground, 100)
	rInf := n.AddResistor("open", a, Ground, math.Inf(1))
	sol := n.MustSolve()
	if !approx(sol.ResistorCurrent(r), 0.1) {
		t.Errorf("resistor current = %v", sol.ResistorCurrent(r))
	}
	if sol.ResistorCurrent(rInf) != 0 {
		t.Errorf("open resistor current = %v", sol.ResistorCurrent(rInf))
	}
}

func TestDisabledSourceIsOpen(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	v := n.AddVSource("v", a, Ground, 10)
	n.AddResistor("pulldown", a, Ground, 1000)
	v.SetEnabled(false)
	sol := n.MustSolve()
	if math.Abs(sol.Voltage(a)) > 1e-6 {
		t.Errorf("node with disabled source = %v, want 0", sol.Voltage(a))
	}
	if !v.Enabled() {
		v.SetEnabled(true)
	}
	sol = n.MustSolve()
	if !approx(sol.Voltage(a), 10) {
		t.Errorf("re-enabled source: %v", sol.Voltage(a))
	}
}

func TestCurrentSource(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	n.AddISource("i", a, Ground, 0.01)
	n.AddResistor("r", a, Ground, 100)
	sol := n.MustSolve()
	if !approx(sol.Voltage(a), 1) {
		t.Errorf("V = %v, want 1 (10mA through 100R)", sol.Voltage(a))
	}
}

func TestMeasureResistanceSimple(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	n.AddResistor("r", a, Ground, 470)
	got, err := n.MeasureResistance(a, Ground)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 470) {
		t.Errorf("measured = %v, want 470", got)
	}
}

func TestMeasureResistanceParallel(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	n.AddResistor("r1", a, Ground, 100)
	n.AddResistor("r2", a, Ground, 100)
	got, err := n.MeasureResistance(a, Ground)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(got, 50) {
		t.Errorf("measured = %v, want 50", got)
	}
}

func TestMeasureResistanceIgnoresSources(t *testing.T) {
	// Ohmmeter measurements must zero out the battery.
	n := NewNetwork()
	a := n.Node("a")
	n.AddVSource("bat", a, Ground, 12)
	n.AddResistor("r", a, Ground, 330)
	got, err := n.MeasureResistance(a, Ground)
	if err != nil {
		t.Fatal(err)
	}
	// With the ideal source disconnected only the resistor remains.
	if !approx(got, 330) {
		t.Errorf("measured = %v, want 330", got)
	}
	// Afterwards the source is back.
	sol := n.MustSolve()
	if !approx(sol.Voltage(a), 12) {
		t.Errorf("source not restored: %v", sol.Voltage(a))
	}
}

func TestMeasureResistanceOpen(t *testing.T) {
	n := NewNetwork()
	a, b := n.Node("a"), n.Node("b")
	got, err := n.MeasureResistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("open measurement = %v, want +Inf", got)
	}
}

func TestSeriesResistanceProperty(t *testing.T) {
	f := func(r1i, r2i uint16) bool {
		r1 := float64(r1i) + 1
		r2 := float64(r2i) + 1
		n := NewNetwork()
		a, m, b := n.Node("a"), n.Node("m"), n.Node("b")
		n.AddResistor("r1", a, m, r1)
		n.AddResistor("r2", m, b, r2)
		got, err := n.MeasureResistance(a, b)
		if err != nil {
			return false
		}
		want := r1 + r2
		return math.Abs(got-want) < 1e-6*want+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolutionCache(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	n.AddVSource("v", a, Ground, 10)
	r := n.AddResistor("r", a, Ground, 100)
	s1 := n.MustSolve()
	s2 := n.MustSolve()
	if s1 != s2 {
		t.Error("unchanged network re-solved")
	}
	r.SetOhms(200)
	s3 := n.MustSolve()
	if s3 == s1 {
		t.Error("changed network returned cached solution")
	}
	// Setting the same value again keeps the cache.
	r.SetOhms(200)
	if n.MustSolve() != s3 {
		t.Error("no-op SetOhms invalidated cache")
	}
}

func TestNodeNaming(t *testing.T) {
	n := NewNetwork()
	if n.Node("gnd") != Ground || n.Node("0") != Ground {
		t.Error("ground aliases broken")
	}
	a := n.Node("a")
	if n.Node("a") != a {
		t.Error("Node not idempotent")
	}
	if n.NodeName(a) != "a" || n.NodeName(Ground) != "gnd" {
		t.Error("NodeName wrong")
	}
	if n.NodeName(NodeID(99)) == "" {
		t.Error("NodeName out of range should be descriptive")
	}
	if n.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", n.NumNodes())
	}
}

func TestTwoSources(t *testing.T) {
	// Two ideal sources with a resistor bridge between them.
	n := NewNetwork()
	a, b := n.Node("a"), n.Node("b")
	n.AddVSource("v1", a, Ground, 10)
	n.AddVSource("v2", b, Ground, 4)
	r := n.AddResistor("bridge", a, b, 600)
	sol := n.MustSolve()
	if !approx(sol.VoltageBetween(a, b), 6) {
		t.Errorf("bridge voltage = %v, want 6", sol.VoltageBetween(a, b))
	}
	if !approx(sol.ResistorCurrent(r), 0.01) {
		t.Errorf("bridge current = %v, want 10mA", sol.ResistorCurrent(r))
	}
}

func TestEmptyNetwork(t *testing.T) {
	n := NewNetwork()
	sol, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Voltage(Ground) != 0 {
		t.Error("ground not 0")
	}
}

func TestZeroOhmsClamped(t *testing.T) {
	n := NewNetwork()
	a := n.Node("a")
	n.AddVSource("v", a, Ground, 5)
	short := n.AddResistor("short", a, Ground, 0)
	sol, err := n.Solve()
	if err != nil {
		t.Fatalf("0 Ω resistor made the system singular: %v", err)
	}
	// Current through the "short" is bounded by the clamp, voltage stays 5
	// (ideal source wins).
	if !approx(sol.Voltage(a), 5) {
		t.Errorf("V = %v", sol.Voltage(a))
	}
	if sol.ResistorCurrent(short) <= 0 {
		t.Error("short carries no current")
	}
}

func TestVoltageOutOfRange(t *testing.T) {
	n := NewNetwork()
	n.AddVSource("v", n.Node("a"), Ground, 5)
	sol := n.MustSolve()
	if sol.Voltage(NodeID(-1)) != 0 || sol.Voltage(NodeID(99)) != 0 {
		t.Error("out-of-range Voltage() must be 0")
	}
}

func TestLadderNetworkScales(t *testing.T) {
	// A 100-section R-2R-style ladder has a known closed form when built
	// as equal series/shunt resistors: validate the solver on a network
	// an order of magnitude larger than any stand circuit.
	const sections = 100
	n := NewNetwork()
	src := n.Node("src")
	n.AddVSource("v", src, Ground, 10)
	prev := src
	for i := 0; i < sections; i++ {
		next := n.Node(nodeName(i))
		n.AddResistor("s", prev, next, 100) // series
		n.AddResistor("p", next, Ground, 100_000)
		prev = next
	}
	sol, err := n.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// A uniform RC-less ladder attenuates roughly exponentially with
	// sqrt(Rseries/Rshunt) per section: 100 sections at sqrt(1e-3) give
	// e^(-100·0.0316) ≈ 0.04…0.1 of the input. The exact solver value
	// (≈0.83 V) lies in that band; the strict monotonic decay below is
	// the structural validation.
	vEnd := sol.Voltage(prev)
	if vEnd <= 0.1 || vEnd >= 2 {
		t.Errorf("ladder end voltage = %v, want exponential droop into (0.1, 2)", vEnd)
	}
	last := 10.0
	for i := 0; i < sections; i++ {
		v := sol.Voltage(n.Node(nodeName(i)))
		if v >= last {
			t.Fatalf("ladder voltage not monotonic at %d: %v >= %v", i, v, last)
		}
		last = v
	}
}

func nodeName(i int) string { return "L" + string(rune('A'+i/26)) + string(rune('A'+i%26)) }

func TestKirchhoffCurrentLaw(t *testing.T) {
	// The source current must equal the sum of branch currents.
	n := NewNetwork()
	a := n.Node("a")
	v := n.AddVSource("v", a, Ground, 9)
	r1 := n.AddResistor("r1", a, Ground, 90)
	r2 := n.AddResistor("r2", a, Ground, 180)
	sol := n.MustSolve()
	sum := sol.ResistorCurrent(r1) + sol.ResistorCurrent(r2)
	if math.Abs(sol.SourceCurrent(v)-sum) > 1e-9 {
		t.Errorf("KCL violated: source %v, branches %v", sol.SourceCurrent(v), sum)
	}
}
