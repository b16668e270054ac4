// Package analog is the DC electrical substrate of the simulated test
// stand. The paper's stand hardware — DVM, resistor decades, switches and
// multiplexers wired to the DUT's pins — is reproduced as a resistive
// network solved by modified nodal analysis (MNA). ECU models drive and
// sense pin voltages through this network, so methods such as put_r and
// get_u exercise the same code paths they would against real hardware.
//
// The network is deliberately quasi-static: component tests of this class
// change stimuli per step and check settled outputs, so a DC solve per
// change is the right fidelity (see DESIGN.md, ablation 4).
package analog

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a network node. Ground is node 0.
type NodeID int

// Ground is the reference node of every network.
const Ground NodeID = 0

// gmin is a tiny leak conductance from every node to ground, the standard
// SPICE trick that keeps the matrix non-singular when switches isolate
// part of the circuit (a floating DVM input then reads 0 V, like a real
// high-impedance meter with a bleed path). It is chosen small enough that
// even megohm-range decade measurements see a relative error below 1e-6.
const gmin = 1e-12

// minOhms clamps applied resistances: a put_r of 0 Ω (the paper's "Open"
// door-switch status) becomes a 1 µΩ short instead of a singular stamp.
const minOhms = 1e-6

// closedSwitchOhms is the on-resistance of relays/mux contacts.
const closedSwitchOhms = 1e-3

// recentSolves is how many configurations a Network remembers solutions
// for. PWM phases and ECU outputs flip a stand's network among a few
// configurations, so a handful of slots catches most dirty solves.
const recentSolves = 4

// Network is a mutable DC circuit. Create nodes with Node, add elements,
// then call Solve after every change of element state.
type Network struct {
	names  map[string]NodeID
	nodes  []string // index = NodeID
	rs     []*Resistor
	vs     []*VSource
	is     []*ISource
	dirty  bool
	lastOK *Solution

	// Solve scratch, reused on every dirty solve: the augmented matrix
	// [A|b] as one backing array, its row headers (re-pointed each
	// solve, since gauss swaps them) and the enabled voltage sources.
	cells  []float64
	rows   [][]float64
	active []*VSource

	// recent remembers the last few solutions by configuration: slot i's
	// key is keys[(i+1)*k:(i+2)*k] for key length k, and keys[:k] is the
	// scratch the current configuration is encoded into. Slots below
	// held are remembered; next is the slot the next miss solves into,
	// reusing that slot's Solution. A reshape forgets every slot but
	// keeps their storage.
	recent [recentSolves]*Solution
	keys   []uint64
	held   int
	next   int

	// Ohmmeter scratch: the saved enabled bits of every source and the
	// one probe current source, appended only for the measuring solve.
	saved []bool
	probe *ISource
}

// NewNetwork returns a network containing only the ground node.
func NewNetwork() *Network {
	return &Network{
		names: map[string]NodeID{"gnd": Ground, "0": Ground},
		nodes: []string{"gnd"},
	}
}

// Node returns the node with the given name, creating it on first use.
// The names "gnd" and "0" are the ground node.
func (n *Network) Node(name string) NodeID {
	if id, ok := n.names[name]; ok {
		return id
	}
	id := NodeID(len(n.nodes))
	n.names[name] = id
	n.nodes = append(n.nodes, name)
	n.reshape()
	return id
}

// NodeName returns the name of a node.
func (n *Network) NodeName(id NodeID) string {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		return fmt.Sprintf("node(%d)", int(id))
	}
	return n.nodes[id]
}

// NumNodes returns the number of nodes including ground.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Resistor is a two-terminal resistance. Ohms may be +Inf (open circuit).
type Resistor struct {
	net  *Network
	Name string
	A, B NodeID
	ohms float64
}

// AddResistor adds a resistor between a and b.
func (n *Network) AddResistor(name string, a, b NodeID, ohms float64) *Resistor {
	r := &Resistor{net: n, Name: name, A: a, B: b, ohms: ohms}
	n.rs = append(n.rs, r)
	n.reshape()
	return r
}

// SetOhms changes the resistance; +Inf opens the element.
func (r *Resistor) SetOhms(ohms float64) {
	if r.ohms != ohms {
		r.ohms = ohms
		r.net.dirty = true
	}
}

// Ohms returns the current resistance.
func (r *Resistor) Ohms() float64 { return r.ohms }

// Switch is an ideal switch built on a Resistor: open = +Inf, closed =
// closedSwitchOhms.
type Switch struct {
	r      *Resistor
	closed bool
}

// AddSwitch adds an open switch between a and b.
func (n *Network) AddSwitch(name string, a, b NodeID) *Switch {
	return &Switch{r: n.AddResistor(name, a, b, math.Inf(1))}
}

// SetClosed opens or closes the switch.
func (s *Switch) SetClosed(closed bool) {
	s.closed = closed
	if closed {
		s.r.SetOhms(closedSwitchOhms)
	} else {
		s.r.SetOhms(math.Inf(1))
	}
}

// Closed reports the switch state.
func (s *Switch) Closed() bool { return s.closed }

// Name returns the switch's element name.
func (s *Switch) Name() string { return s.r.Name }

// VSource is an ideal voltage source from neg to pos. Give it a series
// Resistor if an internal resistance is needed.
type VSource struct {
	net      *Network
	idx      int // position in net.vs, indexing Solution.srcAmps
	Name     string
	Pos, Neg NodeID
	volts    float64
	enabled  bool
}

// AddVSource adds an enabled ideal voltage source.
func (n *Network) AddVSource(name string, pos, neg NodeID, volts float64) *VSource {
	v := &VSource{net: n, idx: len(n.vs), Name: name, Pos: pos, Neg: neg, volts: volts, enabled: true}
	n.vs = append(n.vs, v)
	n.reshape()
	return v
}

// SetVolts changes the source voltage.
func (v *VSource) SetVolts(volts float64) {
	if v.volts != volts {
		v.volts = volts
		v.net.dirty = true
	}
}

// Volts returns the source voltage.
func (v *VSource) Volts() float64 { return v.volts }

// SetEnabled connects or disconnects the source. A disabled source is an
// open circuit (not a short!), like unplugging a lab supply.
func (v *VSource) SetEnabled(on bool) {
	if v.enabled != on {
		v.enabled = on
		v.net.dirty = true
	}
}

// Enabled reports whether the source is connected.
func (v *VSource) Enabled() bool { return v.enabled }

// ISource is an ideal current source pushing amps from neg into pos.
type ISource struct {
	net      *Network
	Name     string
	Pos, Neg NodeID
	amps     float64
	enabled  bool
}

// AddISource adds an enabled ideal current source.
func (n *Network) AddISource(name string, pos, neg NodeID, amps float64) *ISource {
	i := &ISource{net: n, Name: name, Pos: pos, Neg: neg, amps: amps, enabled: true}
	n.is = append(n.is, i)
	n.reshape()
	return i
}

// SetAmps changes the source current.
func (i *ISource) SetAmps(amps float64) {
	if i.amps != amps {
		i.amps = amps
		i.net.dirty = true
	}
}

// SetEnabled connects or disconnects the source.
func (i *ISource) SetEnabled(on bool) {
	if i.enabled != on {
		i.enabled = on
		i.net.dirty = true
	}
}

// Solution holds node voltages and source currents of one solve. It is
// valid until the network's next Solve, which may overwrite it in place:
// the network keeps a few Solutions and solves into the oldest, so a
// warm network solves without allocating. Every caller reads a Solution
// right after solving (an ECU tick, a sampler, a measurement, a trace
// sample) and keeps nothing across the next Solve.
type Solution struct {
	net     *Network
	buf     []float64 // backs v and srcAmps
	v       []float64 // per node
	srcAmps []float64 // per voltage source, by position in net.vs
}

// Voltage returns the solved potential of node id against ground.
func (s *Solution) Voltage(id NodeID) float64 {
	if int(id) < 0 || int(id) >= len(s.v) {
		return 0
	}
	return s.v[id]
}

// VoltageBetween returns V(a) − V(b).
func (s *Solution) VoltageBetween(a, b NodeID) float64 {
	return s.Voltage(a) - s.Voltage(b)
}

// SourceCurrent returns the current delivered by a voltage source
// (positive out of its positive terminal), or 0 for a disabled source.
func (s *Solution) SourceCurrent(v *VSource) float64 {
	if v.net != s.net || v.idx >= len(s.srcAmps) {
		return 0
	}
	return s.srcAmps[v.idx]
}

// ResistorCurrent returns the current through a resistor from A to B.
func (s *Solution) ResistorCurrent(r *Resistor) float64 {
	ohms := r.ohms
	if math.IsInf(ohms, 1) {
		return 0
	}
	if ohms < minOhms {
		ohms = minOhms
	}
	return (s.Voltage(r.A) - s.Voltage(r.B)) / ohms
}

// reshape records a change of topology: the next Solve cannot reuse the
// last solution, nor any remembered one. The slots' storage stays for
// the next solves.
func (n *Network) reshape() {
	n.dirty = true
	n.held, n.next = 0, 0
}

// config encodes every element value a solve reads into the key scratch
// and returns it. Values are compared by bit pattern, so a source at −0 V
// and one at +0 V are different configurations, as they are to gauss.
func (n *Network) config() []uint64 {
	k := len(n.rs) + 2*len(n.vs) + 2*len(n.is)
	// Only a reshape changes k, and it forgot every slot.
	n.keys = slices.Grow(n.keys[:0], (recentSolves+1)*k)[:(recentSolves+1)*k]
	key := n.keys[:k]
	i := 0
	for _, r := range n.rs {
		key[i] = math.Float64bits(r.ohms)
		i++
	}
	for _, v := range n.vs {
		key[i], key[i+1] = math.Float64bits(v.volts), bit(v.enabled)
		i += 2
	}
	for _, s := range n.is {
		key[i], key[i+1] = math.Float64bits(s.amps), bit(s.enabled)
		i += 2
	}
	return key
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Solve computes the DC operating point by modified nodal analysis with
// partial-pivot Gaussian elimination. While no element changes, Solve
// returns the last solution. After a change, it first looks the new
// configuration up among the last few it solved: a PWM source toggling
// back, or an ECU output flipping back, finds its earlier Solution there.
// A remembered Solution is exactly what a fresh solve would return,
// since the same inputs run the same floating-point operations. A miss
// solves into the storage of the slot it replaces.
func (n *Network) Solve() (*Solution, error) {
	if !n.dirty && n.lastOK != nil {
		return n.lastOK, nil
	}
	key := n.config()
	k := len(key)
	for i := range n.held {
		if slices.Equal(n.keys[(i+1)*k:(i+2)*k], key) {
			n.lastOK, n.dirty = n.recent[i], false
			return n.lastOK, nil
		}
	}
	slot := n.next
	sol, err := n.solve(n.recent[slot])
	if err != nil {
		return nil, err
	}
	copy(n.keys[(slot+1)*k:], key)
	n.recent[slot] = sol
	n.held = max(n.held, slot+1)
	n.next = (slot + 1) % recentSolves
	n.lastOK, n.dirty = sol, false
	return sol, nil
}

// solve builds and eliminates the MNA system of the current configuration
// and writes the result into sol's storage, or into a new Solution when
// sol is nil. A failed solve leaves sol untouched.
func (n *Network) solve(sol *Solution) (*Solution, error) {
	nn := len(n.nodes) - 1 // unknown node voltages (ground excluded)
	active := n.active[:0]
	for _, v := range n.vs {
		if v.enabled {
			active = append(active, v)
		}
	}
	n.active = active
	m := len(active)
	dim := nn + m
	if dim == 0 {
		return n.cleared(sol), nil
	}
	a := n.matrix(dim)
	idx := func(id NodeID) int { return int(id) - 1 } // row/col of node
	// gmin leak on every non-ground node.
	for i := 0; i < nn; i++ {
		a[i][i] += gmin
	}
	// Resistor stamps.
	for _, r := range n.rs {
		if math.IsInf(r.ohms, 1) {
			continue
		}
		ohms := r.ohms
		if ohms < minOhms {
			ohms = minOhms
		}
		g := 1 / ohms
		ai, bi := idx(r.A), idx(r.B)
		if ai >= 0 {
			a[ai][ai] += g
		}
		if bi >= 0 {
			a[bi][bi] += g
		}
		if ai >= 0 && bi >= 0 {
			a[ai][bi] -= g
			a[bi][ai] -= g
		}
	}
	// Current source stamps.
	for _, src := range n.is {
		if !src.enabled {
			continue
		}
		if pi := idx(src.Pos); pi >= 0 {
			a[pi][dim] += src.amps
		}
		if ni := idx(src.Neg); ni >= 0 {
			a[ni][dim] -= src.amps
		}
	}
	// Voltage source stamps (extra current unknowns).
	for k, src := range active {
		row := nn + k
		if pi := idx(src.Pos); pi >= 0 {
			a[pi][row] += 1
			a[row][pi] += 1
		}
		if ni := idx(src.Neg); ni >= 0 {
			a[ni][row] -= 1
			a[row][ni] -= 1
		}
		a[row][dim] = src.volts
	}
	if err := gauss(a); err != nil {
		return nil, fmt.Errorf("analog: %v", err)
	}
	sol = n.cleared(sol)
	for i := 0; i < nn; i++ {
		sol.v[i+1] = a[i][dim]
	}
	for k, src := range active {
		// MNA convention: the extra unknown is the current flowing from
		// the positive terminal through the source to the negative
		// terminal (i.e. into the + node from the source's perspective);
		// current delivered to the circuit is its negative.
		sol.srcAmps[src.idx] = -a[nn+k][dim]
	}
	return sol, nil
}

// cleared returns sol zeroed and shaped for the current network, or a new
// Solution when sol is nil. Node voltages and source currents share one
// buffer, grown only when the network has.
func (n *Network) cleared(sol *Solution) *Solution {
	if sol == nil {
		sol = &Solution{net: n}
	}
	size := len(n.nodes) + len(n.vs)
	if cap(sol.buf) < size {
		sol.buf = make([]float64, size)
	}
	buf := sol.buf[:size]
	clear(buf)
	sol.v, sol.srcAmps = buf[:len(n.nodes):len(n.nodes)], buf[len(n.nodes):]
	return sol
}

// matrix returns the zeroed dim×(dim+1) augmented matrix, carved out of
// the network's scratch and grown only when the network has.
func (n *Network) matrix(dim int) [][]float64 {
	size := dim * (dim + 1)
	if cap(n.cells) < size {
		n.cells = make([]float64, size)
	}
	cells := n.cells[:size]
	clear(cells)
	if cap(n.rows) < dim {
		n.rows = make([][]float64, dim)
	}
	rows := n.rows[:dim]
	for i := range rows {
		rows[i] = cells[i*(dim+1) : (i+1)*(dim+1) : (i+1)*(dim+1)]
	}
	return rows
}

// MustSolve is Solve that panics on error, for tests and examples.
func (n *Network) MustSolve() *Solution {
	s, err := n.Solve()
	if err != nil {
		panic(err)
	}
	return s
}

// MeasureResistance performs an ohmmeter measurement between a and b:
// independent sources are temporarily disconnected, a 1 mA test current
// is injected, and R = ΔV / I. Resistances above ~1 GΩ report +Inf (open
// circuit), matching how a real ohmmeter overranges.
func (n *Network) MeasureResistance(a, b NodeID) (float64, error) {
	n.saved = n.saved[:0]
	for _, v := range n.vs {
		n.saved = append(n.saved, v.enabled)
		v.SetEnabled(false)
	}
	for _, s := range n.is {
		n.saved = append(n.saved, s.enabled)
		s.SetEnabled(false)
	}
	const testAmps = 1e-3
	if n.probe == nil {
		n.probe = &ISource{net: n, Name: "__ohmmeter", amps: testAmps}
	}
	n.probe.Pos, n.probe.Neg, n.probe.enabled = a, b, true
	n.is = append(n.is, n.probe)
	n.reshape()
	sol, err := n.Solve()
	// Restore before inspecting the result.
	n.probe.SetEnabled(false)
	n.is = n.is[:len(n.is)-1]
	n.reshape()
	for i, v := range n.vs {
		v.SetEnabled(n.saved[i])
	}
	for i, s := range n.is {
		s.SetEnabled(n.saved[len(n.vs)+i])
	}
	if err != nil {
		return 0, err
	}
	r := sol.VoltageBetween(a, b) / testAmps
	if r > 1e9 {
		return math.Inf(1), nil
	}
	if r < 0 {
		r = 0
	}
	return r, nil
}

// gauss solves the augmented system in place by Gaussian elimination with
// partial pivoting.
func gauss(a [][]float64) error {
	nDim := len(a)
	for col := 0; col < nDim; col++ {
		// Partial pivot.
		best, bestAbs := col, math.Abs(a[col][col])
		for r := col + 1; r < nDim; r++ {
			if abs := math.Abs(a[r][col]); abs > bestAbs {
				best, bestAbs = r, abs
			}
		}
		if bestAbs < 1e-18 {
			return fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[best] = a[best], a[col]
		piv := a[col][col]
		for r := 0; r < nDim; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col] / piv
			for c := col; c <= nDim; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for i := 0; i < nDim; i++ {
		a[i][nDim] /= a[i][i]
	}
	return nil
}
