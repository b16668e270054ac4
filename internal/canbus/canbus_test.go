package canbus

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/event"
)

func TestInsertExtract(t *testing.T) {
	var f Frame
	if err := f.InsertSignal(0, 4, 0b0001); err != nil {
		t.Fatal(err)
	}
	if err := f.InsertSignal(4, 1, 1); err != nil {
		t.Fatal(err)
	}
	v, err := f.ExtractSignal(0, 4)
	if err != nil || v != 1 {
		t.Errorf("IGN_ST = %v, %v", v, err)
	}
	v, err = f.ExtractSignal(4, 1)
	if err != nil || v != 1 {
		t.Errorf("NIGHT = %v, %v", v, err)
	}
	if f.DLC != 1 {
		t.Errorf("DLC = %d, want 1", f.DLC)
	}
}

func TestInsertDoesNotClobberNeighbours(t *testing.T) {
	var f Frame
	if err := f.InsertSignal(0, 8, 0xFF); err != nil {
		t.Fatal(err)
	}
	if err := f.InsertSignal(2, 3, 0); err != nil {
		t.Fatal(err)
	}
	v, _ := f.ExtractSignal(0, 8)
	if v != 0b11100011 {
		t.Errorf("payload = %08b", v)
	}
}

func TestCrossByteSignal(t *testing.T) {
	var f Frame
	if err := f.InsertSignal(6, 10, 0x2AB); err != nil {
		t.Fatal(err)
	}
	v, err := f.ExtractSignal(6, 10)
	if err != nil || v != 0x2AB {
		t.Errorf("cross-byte = %#x, %v", v, err)
	}
	if f.DLC != 2 {
		t.Errorf("DLC = %d, want 2", f.DLC)
	}
}

func TestInsertExtractProperty(t *testing.T) {
	f := func(start8 uint8, len6 uint8, val uint64) bool {
		length := int(len6%64) + 1
		start := int(start8) % (64 - length + 1)
		if length < 64 {
			val &= 1<<uint(length) - 1
		}
		var fr Frame
		// Pre-fill with noise; the signal must still round-trip and the
		// noise outside the field must survive.
		for i := range fr.Data {
			fr.Data[i] = 0xA5
		}
		if err := fr.InsertSignal(start, length, val); err != nil {
			return false
		}
		got, err := fr.ExtractSignal(start, length)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBitRangeErrors(t *testing.T) {
	var f Frame
	bad := [][2]int{{-1, 4}, {0, 0}, {0, 65}, {60, 8}, {64, 1}}
	for _, c := range bad {
		if err := f.InsertSignal(c[0], c[1], 0); err == nil {
			t.Errorf("InsertSignal(%d,%d) succeeded", c[0], c[1])
		}
		if _, err := f.ExtractSignal(c[0], c[1]); err == nil {
			t.Errorf("ExtractSignal(%d,%d) succeeded", c[0], c[1])
		}
	}
	if err := f.InsertSignal(0, 2, 5); err == nil {
		t.Error("oversized value accepted")
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{ID: 0x100, DLC: 2, Data: [8]byte{0xDE, 0xAD}}
	if got := f.String(); got != "100#DEAD" {
		t.Errorf("String = %q", got)
	}
}

func TestDBDefineLookup(t *testing.T) {
	db := NewDB()
	m, err := db.Define("BCM_STAT", 0x2A0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x2A0 {
		t.Errorf("ID = %#x", m.ID)
	}
	got, ok := db.Lookup("bcm_stat")
	if !ok || got != m {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := db.LookupID(0x2A0); !ok {
		t.Error("LookupID failed")
	}
	if _, err := db.Define("BCM_STAT", 0x2A1, 8); err == nil {
		t.Error("duplicate name accepted")
	}
	if _, err := db.Define("OTHER", 0x2A0, 8); err == nil {
		t.Error("duplicate id accepted")
	}
	if _, err := db.Define("", 1, 8); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := db.Define("X", 1, 9); err == nil {
		t.Error("DLC 9 accepted")
	}
}

func TestDBEnsure(t *testing.T) {
	db := NewDB()
	a, err := db.Ensure("A")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := db.Ensure("B")
	if a.ID == b.ID {
		t.Error("auto ids collide")
	}
	a2, _ := db.Ensure("a")
	if a2 != a {
		t.Error("Ensure not idempotent")
	}
	// Ensure skips explicitly taken ids.
	db2 := NewDB()
	if _, err := db2.Define("X", 0x100, 8); err != nil {
		t.Fatal(err)
	}
	y, _ := db2.Ensure("Y")
	if y.ID == 0x100 {
		t.Error("Ensure reused a taken id")
	}
}

// TestDBSpelledLookup: a spelling resolved once is found again without
// folding the name, so warm lookups of upper-case names allocate
// nothing; every spelling still resolves to the one definition.
func TestDBSpelledLookup(t *testing.T) {
	db := NewDB()
	m, err := db.Ensure("ENG_CMD")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ENG_CMD", "eng_cmd", " Eng_Cmd "} {
		if got, _ := db.Ensure(name); got != m {
			t.Errorf("Ensure(%q) = %v, want %v", name, got, m)
		}
		if got, ok := db.Lookup(name); !ok || got != m {
			t.Errorf("Lookup(%q) = %v, %v, want %v", name, got, ok, m)
		}
	}
	if _, ok := db.Lookup("ENG_CMD2"); ok {
		t.Error("Lookup found an undefined message")
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = db.Ensure("ENG_CMD") }); got != 0 {
		t.Errorf("warm Ensure allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = db.Lookup("Eng_Cmd") }); got != 0 {
		t.Errorf("warm Lookup allocates %v times, want 0", got)
	}
}

func TestDBNames(t *testing.T) {
	db := NewDB()
	_, _ = db.Ensure("Zeta")
	_, _ = db.Ensure("Alpha")
	names := db.Names()
	if len(names) != 2 || names[0] != "Alpha" || names[1] != "Zeta" {
		t.Errorf("Names = %v", names)
	}
}

func TestBusBroadcast(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	var gotB, gotC []Frame
	nodeA := bus.Attach("a", nil)
	bus.Attach("b", func(f Frame) { gotB = append(gotB, f) })
	bus.Attach("c", func(f Frame) { gotC = append(gotC, f) })

	f := Frame{ID: 1, DLC: 1, Data: [8]byte{42}}
	nodeA.Transmit(f)
	if len(gotB) != 0 {
		t.Error("frame delivered before latency elapsed")
	}
	sched.Advance(Latency)
	if len(gotB) != 1 || len(gotC) != 1 || gotB[0].Data[0] != 42 {
		t.Errorf("delivery failed: %v %v", gotB, gotC)
	}
	if bus.FramesSent() != 1 {
		t.Errorf("FramesSent = %d", bus.FramesSent())
	}
	if nodeA.Name() != "a" {
		t.Errorf("Name = %q", nodeA.Name())
	}
}

func TestNoLoopback(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	var got []Frame
	n := bus.Attach("self", func(f Frame) { got = append(got, f) })
	n.Transmit(Frame{ID: 7})
	sched.Advance(time.Millisecond)
	if len(got) != 0 {
		t.Error("node received its own frame")
	}
}

func TestTxGroupImmediateAndPeriodic(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	db := NewDB()
	mon := NewMonitor()
	bus.Attach("dut", mon.Rx)
	stand := bus.Attach("stand", nil)
	g := NewTxGroup(stand, db, 20*time.Millisecond, &sched)
	defer g.Stop()

	if err := g.SetSignal("BCM_STAT", 0, 4, 1); err != nil {
		t.Fatal(err)
	}
	sched.Advance(time.Millisecond)
	def, _ := db.Lookup("BCM_STAT")
	if _, ok := mon.Last(def.ID); !ok {
		t.Fatal("immediate transmission missing")
	}
	v, err := mon.Signal(db, "BCM_STAT", 0, 4)
	if err != nil || v != 1 {
		t.Errorf("signal = %v, %v", v, err)
	}
	// Periodic keepalive retransmits.
	before := mon.Count(def.ID)
	sched.Advance(100 * time.Millisecond)
	if after := mon.Count(def.ID); after < before+4 {
		t.Errorf("periodic frames: %d -> %d", before, after)
	}
	// Updating a second signal must keep the first one's bits.
	if err := g.SetSignal("BCM_STAT", 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	sched.Advance(time.Millisecond)
	v, _ = mon.Signal(db, "BCM_STAT", 0, 4)
	if v != 1 {
		t.Errorf("first signal clobbered: %v", v)
	}
	v, _ = mon.Signal(db, "BCM_STAT", 4, 1)
	if v != 1 {
		t.Errorf("second signal = %v", v)
	}
}

func TestTxGroupStop(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	db := NewDB()
	mon := NewMonitor()
	bus.Attach("dut", mon.Rx)
	stand := bus.Attach("stand", nil)
	g := NewTxGroup(stand, db, 10*time.Millisecond, &sched)
	if err := g.SetSignal("M", 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g.Stop()
	def, _ := db.Lookup("M")
	sched.Advance(50 * time.Millisecond)
	if mon.Count(def.ID) != 1 {
		t.Errorf("frames after Stop = %d, want 1", mon.Count(def.ID))
	}
	g.Stop() // double Stop is a no-op
}

func TestMonitorErrors(t *testing.T) {
	db := NewDB()
	mon := NewMonitor()
	if _, err := mon.Signal(db, "GHOST", 0, 1); err == nil {
		t.Error("unknown message accepted")
	}
	if _, err := db.Ensure("M"); err != nil {
		t.Fatal("Ensure failed")
	}
	if _, err := mon.Signal(db, "M", 0, 1); err == nil {
		t.Error("signal from never-received message accepted")
	}
}

func TestMultipleMessagesKeepApart(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	db := NewDB()
	mon := NewMonitor()
	bus.Attach("dut", mon.Rx)
	stand := bus.Attach("stand", nil)
	g := NewTxGroup(stand, db, 0, &sched)
	_ = g.SetSignal("M1", 0, 8, 0x11)
	_ = g.SetSignal("M2", 0, 8, 0x22)
	sched.Advance(time.Millisecond)
	v1, _ := mon.Signal(db, "M1", 0, 8)
	v2, _ := mon.Signal(db, "M2", 0, 8)
	if v1 != 0x11 || v2 != 0x22 {
		t.Errorf("messages mixed: %#x %#x", v1, v2)
	}
}

func TestMotorolaKnownPattern(t *testing.T) {
	// The canonical DBC example: a 12-bit Motorola signal starting at bit
	// 7 (MSB of byte 0) occupies byte 0 entirely plus the top nibble of
	// byte 1.
	var f Frame
	if err := f.InsertSignalOrder(Motorola, 7, 12, 0xABC); err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 0xAB || f.Data[1] != 0xC0 {
		t.Errorf("payload = % X, want AB C0", f.Data[:2])
	}
	v, err := f.ExtractSignalOrder(Motorola, 7, 12)
	if err != nil || v != 0xABC {
		t.Errorf("extract = %#x, %v", v, err)
	}
	if f.DLC != 2 {
		t.Errorf("DLC = %d, want 2", f.DLC)
	}
}

func TestMotorolaSingleBit(t *testing.T) {
	var f Frame
	if err := f.InsertSignalOrder(Motorola, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if f.Data[0] != 0x01 {
		t.Errorf("payload = %02X", f.Data[0])
	}
}

func TestMotorolaSawtoothBounds(t *testing.T) {
	var f Frame
	// Starting at bit 0 (LSB of byte 0) a 2-bit Motorola signal must wrap
	// to bit 15 — legal. Starting at bit 56 with 64 bits leaves the frame.
	if err := f.InsertSignalOrder(Motorola, 0, 2, 3); err != nil {
		t.Fatal(err)
	}
	v, _ := f.ExtractSignalOrder(Motorola, 0, 2)
	if v != 3 {
		t.Errorf("wrap extract = %v", v)
	}
	if err := f.InsertSignalOrder(Motorola, 56, 64, 0); err == nil {
		t.Error("out-of-frame sawtooth accepted")
	}
	if _, err := f.ExtractSignalOrder(Motorola, -1, 4); err == nil {
		t.Error("negative start accepted")
	}
	if err := f.InsertSignalOrder(Motorola, 7, 2, 4); err == nil {
		t.Error("oversized value accepted")
	}
}

func TestMotorolaRoundTripProperty(t *testing.T) {
	f := func(start8 uint8, len6 uint8, val uint64) bool {
		length := int(len6%32) + 1
		start := int(start8) % 64
		if length < 64 {
			val &= 1<<uint(length) - 1
		}
		var fr Frame
		for i := range fr.Data {
			fr.Data[i] = 0x5A
		}
		err := fr.InsertSignalOrder(Motorola, start, length, val)
		if err != nil {
			return true // sawtooth left the frame: rejection is correct
		}
		got, err := fr.ExtractSignalOrder(Motorola, start, length)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOrderHelpersIntelDelegate(t *testing.T) {
	var a, b Frame
	if err := a.InsertSignal(4, 8, 0x7E); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertSignalOrder(Intel, 4, 8, 0x7E); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Intel order helper differs from InsertSignal")
	}
}

func TestParseByteOrder(t *testing.T) {
	cases := map[string]ByteOrder{
		"": Intel, "intel": Intel, "LE": Intel, "0": Intel,
		"motorola": Motorola, "BIG": Motorola, "be": Motorola, "1": Motorola,
	}
	for in, want := range cases {
		got, err := ParseByteOrder(in)
		if err != nil || got != want {
			t.Errorf("ParseByteOrder(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseByteOrder("middle"); err == nil {
		t.Error("bad byte order accepted")
	}
	if Intel.String() != "intel" || Motorola.String() != "motorola" {
		t.Error("ByteOrder.String() wrong")
	}
}

func TestTxGroupAndMonitorMotorola(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	db := NewDB()
	mon := NewMonitor()
	bus.Attach("dut", mon.Rx)
	stand := bus.Attach("stand", nil)
	g := NewTxGroup(stand, db, 0, &sched)
	if err := g.SetSignalOrder(Motorola, "M", 7, 12, 0x123); err != nil {
		t.Fatal(err)
	}
	sched.Advance(time.Millisecond)
	v, err := mon.SignalOrder(Motorola, db, "M", 7, 12)
	if err != nil || v != 0x123 {
		t.Errorf("motorola bus round trip = %#x, %v", v, err)
	}
}
