// Package canbus is the CAN substrate of the simulated test stand. The
// paper's example DUT receives the ignition status IGN_ST and the NIGHT
// bit "coming from a light sensor" over the vehicle bus; the stand's CAN
// adapter realises put_can/get_can. This package provides frames, a
// message database, Intel-format signal packing (start bit + length, as
// in the signal definition sheet) and an in-memory broadcast bus driven
// by the discrete-event kernel.
package canbus

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/event"
)

// MaxDataBytes is the classic CAN payload limit.
const MaxDataBytes = 8

// Latency is the simulated transmission latency of one frame. It is the
// dominant contribution of arbitration + 8 data bytes at 500 kbit/s.
const Latency = 250 * time.Microsecond

// Frame is one CAN data frame.
type Frame struct {
	ID   uint32
	DLC  int
	Data [MaxDataBytes]byte
}

// String renders the frame as "id#deadbeef" (candump style).
func (f Frame) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%03X#", f.ID)
	for i := 0; i < f.DLC; i++ {
		fmt.Fprintf(&b, "%02X", f.Data[i])
	}
	return b.String()
}

// InsertSignal writes a value into the frame's payload at the given Intel
// (little-endian) start bit. Bit k lives in byte k/8, bit position k%8.
func (f *Frame) InsertSignal(start, length int, value uint64) error {
	if err := checkBits(start, length); err != nil {
		return err
	}
	if length < 64 && value >= 1<<uint(length) {
		return fmt.Errorf("canbus: value %d does not fit in %d bits", value, length)
	}
	for i := 0; i < length; i++ {
		bit := start + i
		mask := byte(1) << uint(bit%8)
		if value>>uint(i)&1 == 1 {
			f.Data[bit/8] |= mask
		} else {
			f.Data[bit/8] &^= mask
		}
	}
	if need := (start + length + 7) / 8; f.DLC < need {
		f.DLC = need
	}
	return nil
}

// ExtractSignal reads a value from the frame's payload.
func (f *Frame) ExtractSignal(start, length int) (uint64, error) {
	if err := checkBits(start, length); err != nil {
		return 0, err
	}
	var v uint64
	for i := length - 1; i >= 0; i-- {
		bit := start + i
		v <<= 1
		if f.Data[bit/8]>>uint(bit%8)&1 == 1 {
			v |= 1
		}
	}
	return v, nil
}

func checkBits(start, length int) error {
	if length <= 0 || length > 64 || start < 0 || start+length > MaxDataBytes*8 {
		return fmt.Errorf("canbus: invalid bit range start=%d length=%d", start, length)
	}
	return nil
}

// ByteOrder selects the signal packing convention.
type ByteOrder int

const (
	// Intel is little-endian packing (the default of this tool chain):
	// the start bit is the LSB, successive bits ascend.
	Intel ByteOrder = iota
	// Motorola is big-endian packing as in DBC files: the start bit is
	// the MSB; successive bits descend within a byte and continue at bit
	// 7 of the following byte (the "sawtooth").
	Motorola
)

// String implements fmt.Stringer.
func (o ByteOrder) String() string {
	if o == Motorola {
		return "motorola"
	}
	return "intel"
}

// ParseByteOrder parses a byte-order column value; empty means Intel.
func ParseByteOrder(s string) (ByteOrder, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "intel", "little", "le", "0":
		return Intel, nil
	case "motorola", "big", "be", "1":
		return Motorola, nil
	}
	return Intel, fmt.Errorf("canbus: unknown byte order %q", s)
}

// CheckSignalRange validates that a signal with the given packing fits a
// classic CAN frame.
func CheckSignalRange(order ByteOrder, start, length int) error {
	if order == Motorola {
		_, err := motorolaWalk(start, length)
		return err
	}
	return checkBits(start, length)
}

// motorolaWalk enumerates the absolute bit positions of a Motorola signal
// from MSB to LSB, or errors when the sawtooth leaves the frame.
func motorolaWalk(start, length int) ([]int, error) {
	if length <= 0 || length > 64 || start < 0 || start >= MaxDataBytes*8 {
		return nil, fmt.Errorf("canbus: invalid bit range start=%d length=%d", start, length)
	}
	out := make([]int, length)
	pos := start
	for i := 0; i < length; i++ {
		if pos < 0 || pos >= MaxDataBytes*8 {
			return nil, fmt.Errorf("canbus: motorola signal start=%d length=%d leaves the frame", start, length)
		}
		out[i] = pos
		if pos%8 == 0 {
			pos += 15 // wrap to bit 7 of the next byte
		} else {
			pos--
		}
	}
	return out, nil
}

// InsertSignalOrder writes a value using the given byte order.
func (f *Frame) InsertSignalOrder(order ByteOrder, start, length int, value uint64) error {
	if order == Intel {
		return f.InsertSignal(start, length, value)
	}
	if length < 64 && value >= 1<<uint(length) {
		return fmt.Errorf("canbus: value %d does not fit in %d bits", value, length)
	}
	walk, err := motorolaWalk(start, length)
	if err != nil {
		return err
	}
	for i, bit := range walk { // walk[0] carries the MSB
		mask := byte(1) << uint(bit%8)
		if value>>uint(length-1-i)&1 == 1 {
			f.Data[bit/8] |= mask
		} else {
			f.Data[bit/8] &^= mask
		}
		if need := bit/8 + 1; f.DLC < need {
			f.DLC = need
		}
	}
	return nil
}

// ExtractSignalOrder reads a value using the given byte order.
func (f *Frame) ExtractSignalOrder(order ByteOrder, start, length int) (uint64, error) {
	if order == Intel {
		return f.ExtractSignal(start, length)
	}
	walk, err := motorolaWalk(start, length)
	if err != nil {
		return 0, err
	}
	var v uint64
	for _, bit := range walk {
		v <<= 1
		if f.Data[bit/8]>>uint(bit%8)&1 == 1 {
			v |= 1
		}
	}
	return v, nil
}

// ------------------------------------------------------------ message DB --

// MessageDef describes one frame type in the database.
type MessageDef struct {
	Name string
	ID   uint32
	DLC  int
}

// DB maps message names (as used in signal definition sheets) to CAN IDs.
// Stand and DUT share one DB so both sides agree on the identifiers.
// Names match case-insensitively. A DB is not safe for concurrent use:
// Ensure defines messages, and Ensure and Lookup record every spelling
// they resolve, so one DB belongs to one goroutine (a stand and its DUT
// run on one).
type DB struct {
	byName map[string]*MessageDef // by lower, trimmed name
	// spelled maps exact spellings already resolved, so a repeated
	// lookup does not fold the name again.
	spelled map[string]*MessageDef
	byID    map[uint32]*MessageDef
	nextID  uint32
}

// NewDB returns an empty database. Auto-assigned IDs start at 0x100.
func NewDB() *DB {
	return &DB{
		byName:  map[string]*MessageDef{},
		spelled: map[string]*MessageDef{},
		byID:    map[uint32]*MessageDef{},
		nextID:  0x100,
	}
}

// Define registers a message with an explicit ID.
func (db *DB) Define(name string, id uint32, dlc int) (*MessageDef, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		return nil, fmt.Errorf("canbus: message without name")
	}
	if dlc < 0 || dlc > MaxDataBytes {
		return nil, fmt.Errorf("canbus: message %q: invalid DLC %d", name, dlc)
	}
	if _, dup := db.byName[key]; dup {
		return nil, fmt.Errorf("canbus: duplicate message %q", name)
	}
	if _, dup := db.byID[id]; dup {
		return nil, fmt.Errorf("canbus: duplicate CAN id 0x%X", id)
	}
	m := &MessageDef{Name: strings.TrimSpace(name), ID: id, DLC: dlc}
	db.byName[key] = m
	db.byID[id] = m
	return m, nil
}

// Ensure returns the message with the given name, auto-assigning the next
// free ID (from 0x100) if it does not exist yet.
func (db *DB) Ensure(name string) (*MessageDef, error) {
	if m, ok := db.Lookup(name); ok {
		return m, nil
	}
	for {
		if _, taken := db.byID[db.nextID]; !taken {
			break
		}
		db.nextID++
	}
	m, err := db.Define(name, db.nextID, MaxDataBytes)
	if err != nil {
		return nil, err
	}
	db.nextID++
	return m, nil
}

// Lookup finds a message by name.
func (db *DB) Lookup(name string) (*MessageDef, bool) {
	if m, ok := db.spelled[name]; ok {
		return m, true
	}
	m, ok := db.byName[strings.ToLower(strings.TrimSpace(name))]
	if ok {
		db.spelled[name] = m
	}
	return m, ok
}

// LookupID finds a message by CAN id.
func (db *DB) LookupID(id uint32) (*MessageDef, bool) {
	m, ok := db.byID[id]
	return m, ok
}

// Names returns all message names, sorted.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.byName))
	for _, m := range db.byName {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// ------------------------------------------------------------------ bus --

// Bus is an in-memory broadcast CAN bus. Frames transmitted by one node
// are delivered to every other node after Latency, in simulated time.
type Bus struct {
	sched *event.Scheduler
	nodes []*Node
	txCnt uint64
	// epoch invalidates in-flight deliveries: each delivery carries the
	// epoch of its transmission and drops its frames when Purge has been
	// called in between. Frames are copied at transmit time, so clearing
	// a TxGroup or resetting a DUT cannot retract a frame already on the
	// wire — only Purge can.
	epoch uint64
	free  []*delivery // fired deliveries, reused by the next transmission
}

// delivery is one scheduled bus event: frames copied at transmit time,
// delivered in order after Latency. Fired records are reused.
type delivery struct {
	from   *Node
	epoch  uint64
	frames []Frame
	ev     event.Event
	fire   func() // deliver, bound once
}

// Purge drops every in-flight frame delivery: frames transmitted before
// the call never reach any node. A stand reset uses this so a reused
// bus starts from the same silence as a power-cycled one — without it,
// a delivery scheduled just before the reset would fire just after it
// and latch a pre-reset payload into the freshly cleared monitors.
func (b *Bus) Purge() { b.epoch++ }

// NewBus creates a bus on the given scheduler.
func NewBus(sched *event.Scheduler) *Bus {
	if sched == nil {
		panic("canbus: nil scheduler")
	}
	return &Bus{sched: sched}
}

// FramesSent returns the number of frames transmitted since creation.
func (b *Bus) FramesSent() uint64 { return b.txCnt }

// Node is one bus participant.
type Node struct {
	bus  *Bus
	name string
	rx   func(Frame)
}

// Attach adds a node. The rx callback (may be nil) runs for every frame
// transmitted by any OTHER node, in simulated time order.
func (b *Bus) Attach(name string, rx func(Frame)) *Node {
	n := &Node{bus: b, name: name, rx: rx}
	b.nodes = append(b.nodes, n)
	return n
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Transmit broadcasts a frame from this node.
func (n *Node) Transmit(f Frame) {
	d := n.send(1)
	d.frames = append(d.frames, f)
}

// send schedules a delivery of k frames from n, stamped with the current
// Purge epoch; the caller appends the frames to the returned record.
func (n *Node) send(k int) *delivery {
	b := n.bus
	var d *delivery
	if i := len(b.free) - 1; i >= 0 {
		d, b.free = b.free[i], b.free[:i]
	} else {
		d = &delivery{}
		d.fire = d.deliver
	}
	d.from, d.epoch, d.frames = n, b.epoch, d.frames[:0]
	b.txCnt += uint64(k)
	b.sched.Reschedule(&d.ev, b.sched.Now()+Latency, d.fire)
	return d
}

// deliver hands each frame to every other node exactly as back-to-back
// transmissions would, then frees the record; an rx callback that
// transmits meanwhile therefore gets a record of its own.
func (d *delivery) deliver() {
	b := d.from.bus
	for i := range d.frames {
		if b.epoch != d.epoch {
			break
		}
		for _, other := range b.nodes {
			if other != d.from && other.rx != nil {
				other.rx(d.frames[i])
			}
		}
	}
	b.free = append(b.free, d)
}

// ------------------------------------------------------------- tx groups --

// TxGroup maintains the current payload of a set of messages and
// retransmits them periodically, the way a real ECU or restbus simulation
// keeps its frames alive. Signal updates change the payload and trigger
// an immediate transmission.
type TxGroup struct {
	node   *Node
	db     *DB
	frames map[uint32]*Frame
	// spare holds the frames Clear dropped, for SetSignalOrder to reuse;
	// frames are copied at transmit time, so none is still in flight.
	spare []*Frame
	// sorted caches the id-ordered frame pointers while sortedOK; a new
	// id or Clear invalidates it, and the next sort reuses its buffer.
	sorted   []*Frame
	sortedOK bool
	periodic *event.Periodic
}

// NewTxGroup creates a periodic transmitter on the node. A period of 0
// disables periodic retransmission (frames go out only on change).
func NewTxGroup(node *Node, db *DB, period time.Duration, sched *event.Scheduler) *TxGroup {
	g := &TxGroup{node: node, db: db, frames: map[uint32]*Frame{}}
	if period > 0 {
		g.periodic = sched.Periodic(period, g.retransmit)
	}
	return g
}

// retransmit sends every frame in one delivery, on a single bus event.
func (g *TxGroup) retransmit() {
	frames := g.sortedFrames()
	if len(frames) == 0 {
		return
	}
	d := g.node.send(len(frames))
	for _, f := range frames {
		d.frames = append(d.frames, *f)
	}
}

func (g *TxGroup) sortedFrames() []*Frame {
	if g.sortedOK {
		return g.sorted
	}
	g.sorted = g.sorted[:0]
	for _, f := range g.frames {
		g.sorted = append(g.sorted, f)
	}
	slices.SortFunc(g.sorted, func(a, b *Frame) int { return cmp.Compare(a.ID, b.ID) })
	g.sortedOK = true
	return g.sorted
}

// Suspend parks the periodic retransmission (idle fast-forward support);
// explicit SetSignal transmissions keep working.
func (g *TxGroup) Suspend() {
	if g.periodic != nil {
		g.periodic.Suspend()
	}
}

// Resume re-arms periodic retransmission on its original phase grid.
func (g *TxGroup) Resume() {
	if g.periodic != nil {
		g.periodic.Resume()
	}
}

// Clear drops all frame payloads, returning the group to its power-on
// state. The next retransmission sends nothing until signals are set
// again.
func (g *TxGroup) Clear() {
	for _, f := range g.frames {
		g.spare = append(g.spare, f)
	}
	clear(g.frames)
	g.sortedOK = false
}

// SetSignal updates an Intel-packed signal inside the named message and
// transmits the frame immediately.
func (g *TxGroup) SetSignal(message string, start, length int, value uint64) error {
	return g.SetSignalOrder(Intel, message, start, length, value)
}

// SetSignalOrder is SetSignal with an explicit byte order.
func (g *TxGroup) SetSignalOrder(order ByteOrder, message string, start, length int, value uint64) error {
	m, err := g.db.Ensure(message)
	if err != nil {
		return err
	}
	f, ok := g.frames[m.ID]
	if !ok {
		if i := len(g.spare) - 1; i >= 0 {
			f, g.spare = g.spare[i], g.spare[:i]
		} else {
			f = new(Frame)
		}
		*f = Frame{ID: m.ID, DLC: m.DLC}
		g.frames[m.ID] = f
		g.sortedOK = false
	}
	if err := f.InsertSignalOrder(order, start, length, value); err != nil {
		return err
	}
	g.node.Transmit(*f)
	return nil
}

// Stop cancels periodic retransmission.
func (g *TxGroup) Stop() {
	if g.periodic != nil {
		g.periodic.Stop()
		g.periodic = nil
	}
}

// -------------------------------------------------------------- monitor --

// Monitor caches the most recent frame per CAN id, like a latching
// receive buffer — the get_can side of the stand's CAN adapter.
type Monitor struct {
	last map[uint32]Frame
	seen map[uint32]uint64
}

// NewMonitor creates an empty monitor; attach its Rx to a bus node.
func NewMonitor() *Monitor {
	return &Monitor{last: map[uint32]Frame{}, seen: map[uint32]uint64{}}
}

// Rx is the bus receive callback.
func (m *Monitor) Rx(f Frame) {
	m.last[f.ID] = f
	m.seen[f.ID]++
}

// Last returns the most recent frame with the given id.
func (m *Monitor) Last(id uint32) (Frame, bool) {
	f, ok := m.last[id]
	return f, ok
}

// Count returns how many frames with the id have been received.
func (m *Monitor) Count(id uint32) uint64 { return m.seen[id] }

// Clear drops all latched frames and counts, returning the monitor to
// its power-on state (nothing received yet).
func (m *Monitor) Clear() {
	clear(m.last)
	clear(m.seen)
}

// Signal extracts an Intel-packed signal from the latest frame of the
// named message.
func (m *Monitor) Signal(db *DB, message string, start, length int) (uint64, error) {
	return m.SignalOrder(Intel, db, message, start, length)
}

// SignalOrder is Signal with an explicit byte order.
func (m *Monitor) SignalOrder(order ByteOrder, db *DB, message string, start, length int) (uint64, error) {
	def, ok := db.Lookup(message)
	if !ok {
		return 0, fmt.Errorf("canbus: unknown message %q", message)
	}
	f, ok := m.last[def.ID]
	if !ok {
		return 0, fmt.Errorf("canbus: no frame of %q received yet", message)
	}
	return f.ExtractSignalOrder(order, start, length)
}
