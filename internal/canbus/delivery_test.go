package canbus

import (
	"slices"
	"testing"
	"time"

	"repro/internal/event"
)

// TestRxTransmitGetsOwnRecord: a receiver that answers from inside its
// rx callback transmits while the delivery is still running. The reply
// must take a record of its own, so the rest of the batch is delivered
// intact and the reply arrives one Latency later.
func TestRxTransmitGetsOwnRecord(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	var atA []Frame
	a := bus.Attach("a", func(f Frame) { atA = append(atA, f) })
	var atB []uint32
	var b *Node
	b = bus.Attach("b", func(f Frame) {
		atB = append(atB, f.ID)
		if f.ID == 1 {
			b.Transmit(Frame{ID: 0x10})
		}
	})
	d := a.send(2)
	d.frames = append(d.frames, Frame{ID: 1}, Frame{ID: 2})

	sched.RunUntil(Latency)
	if !slices.Equal(atB, []uint32{1, 2}) {
		t.Fatalf("b received %v, want [1 2]: the batch was clobbered", atB)
	}
	if len(atA) != 0 {
		t.Fatalf("reply delivered before its own latency: %v", atA)
	}
	sched.RunUntil(2 * Latency)
	if len(atA) != 1 || atA[0].ID != 0x10 {
		t.Fatalf("a received %v, want the reply 0x10", atA)
	}
	if len(bus.free) != 2 {
		t.Errorf("%d free records, want 2 (batch + reply)", len(bus.free))
	}
	if bus.FramesSent() != 3 {
		t.Errorf("FramesSent = %d, want 3", bus.FramesSent())
	}
}

// TestPurgedDeliveryRecycled: a delivery in flight across a Purge
// reaches no node, and its record serves the next transmission.
func TestPurgedDeliveryRecycled(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	mon := NewMonitor()
	bus.Attach("rx", mon.Rx)
	tx := bus.Attach("tx", nil)

	tx.Transmit(Frame{ID: 7, DLC: 1, Data: [8]byte{1}})
	bus.Purge()
	sched.Advance(Latency)
	if mon.Count(7) != 0 {
		t.Fatal("purged frame delivered")
	}
	if len(bus.free) != 1 {
		t.Fatalf("%d free records after the dropped delivery, want 1", len(bus.free))
	}
	rec := bus.free[0]
	tx.Transmit(Frame{ID: 7, DLC: 1, Data: [8]byte{2}})
	if len(bus.free) != 0 {
		t.Fatal("next transmission did not take the free record")
	}
	sched.Advance(Latency)
	if f, _ := mon.Last(7); mon.Count(7) != 1 || f.Data[0] != 2 {
		t.Errorf("after reuse: count %d, last %v", mon.Count(7), f)
	}
	if len(bus.free) != 1 || bus.free[0] != rec {
		t.Error("the recycled record was not returned to the free list")
	}
}

// TestRetransmitMatchesBackToBack: a TxGroup retransmits all its frames
// in one delivery. Receive times and order must equal those of sending
// each frame with Transmit, for a period above the bus latency and for
// one below it (where batches overlap in flight).
func TestRetransmitMatchesBackToBack(t *testing.T) {
	type rx struct {
		at time.Duration
		id uint32
		b0 byte
	}
	run := func(period time.Duration, batched bool) []rx {
		var sched event.Scheduler
		bus := NewBus(&sched)
		var got []rx
		bus.Attach("rx", func(f Frame) { got = append(got, rx{sched.Now(), f.ID, f.Data[0]}) })
		node := bus.Attach("tx", nil)
		db := NewDB()
		if batched {
			g := NewTxGroup(node, db, period, &sched)
			for i, m := range []string{"M3", "M1", "M2"} {
				if err := g.SetSignal(m, 0, 8, uint64(i+1)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			var frames []Frame
			for i, m := range []string{"M3", "M1", "M2"} {
				def, _ := db.Ensure(m)
				f := Frame{ID: def.ID, DLC: def.DLC}
				_ = f.InsertSignal(0, 8, uint64(i+1))
				node.Transmit(f)
				frames = append(frames, f)
			}
			slices.SortFunc(frames, func(a, b Frame) int { return int(a.ID) - int(b.ID) })
			sched.Periodic(period, func() {
				for _, f := range frames {
					node.Transmit(f)
				}
			})
		}
		sched.RunUntil(3*period + Latency)
		return got
	}
	for _, period := range []time.Duration{100 * time.Microsecond, 20 * time.Millisecond} {
		want, got := run(period, false), run(period, true)
		if len(want) < 12 || !slices.Equal(got, want) {
			t.Errorf("period %v: batched %v\nback to back %v", period, got, want)
		}
	}
}

// TestTxGroupRetransmitAllocs: a warm TxGroup retransmission, delivery
// included, allocates nothing — the delivery record is recycled.
func TestTxGroupRetransmitAllocs(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	mon := NewMonitor()
	bus.Attach("dut", mon.Rx)
	g := NewTxGroup(bus.Attach("stand", nil), NewDB(), 20*time.Millisecond, &sched)
	for _, m := range []string{"A", "B", "C"} {
		if err := g.SetSignal(m, 0, 4, 1); err != nil {
			t.Fatal(err)
		}
	}
	sched.Advance(40 * time.Millisecond)
	if got := testing.AllocsPerRun(100, func() { sched.Advance(20 * time.Millisecond) }); got != 0 {
		t.Errorf("retransmission allocates %v times, want 0", got)
	}
}

// TestTransmitAllocs: a warm Node.Transmit plus its delivery allocates
// nothing.
func TestTransmitAllocs(t *testing.T) {
	var sched event.Scheduler
	bus := NewBus(&sched)
	mon := NewMonitor()
	bus.Attach("rx", mon.Rx)
	tx := bus.Attach("tx", nil)
	f := Frame{ID: 0x100, DLC: 1}
	tx.Transmit(f)
	sched.Advance(Latency)
	if got := testing.AllocsPerRun(100, func() {
		tx.Transmit(f)
		sched.Advance(Latency)
	}); got != 0 {
		t.Errorf("Transmit allocates %v times, want 0", got)
	}
}

// TestTxGroupClearRefill: Clear keeps the group's map, frames and sort
// buffer, so a warm Clear and refill allocates nothing, and the next
// retransmission equals that of a fresh group filled the same way,
// frame for frame.
func TestTxGroupClearRefill(t *testing.T) {
	const period = 20 * time.Millisecond
	type group struct {
		sched event.Scheduler
		g     *TxGroup
		got   []Frame
	}
	newGroup := func() *group {
		gr := &group{}
		bus := NewBus(&gr.sched)
		bus.Attach("dut", func(f Frame) { gr.got = append(gr.got, f) })
		db := NewDB()
		for _, m := range []string{"A", "B", "C"} { // the same ids in both
			if _, err := db.Ensure(m); err != nil {
				t.Fatal(err)
			}
		}
		gr.g = NewTxGroup(bus.Attach("stand", nil), db, period, &gr.sched)
		return gr
	}
	fill := func(g *TxGroup, msgs []string, v uint64) {
		for i, m := range msgs {
			if err := g.SetSignal(m, 4*i, 4, v+uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// nextRetransmission delivers what is in flight, then returns the
	// frames of the group's next periodic retransmission.
	nextRetransmission := func(gr *group) []Frame {
		gr.sched.Advance(Latency)
		gr.got = gr.got[:0]
		gr.sched.Advance(period)
		return slices.Clone(gr.got)
	}

	warm := newGroup()
	fill(warm.g, []string{"A", "B", "C"}, 1)
	warm.sched.Advance(period)
	refill := func() {
		warm.g.Clear()
		fill(warm.g, []string{"C", "A", "B"}, 7)
		warm.sched.Advance(Latency)
		warm.got = warm.got[:0]
	}
	refill()
	if got := testing.AllocsPerRun(100, refill); got != 0 {
		t.Errorf("Clear and refill allocates %v times, want 0", got)
	}

	warm.g.Clear()
	fill(warm.g, []string{"C", "A"}, 3)
	fresh := newGroup()
	fill(fresh.g, []string{"C", "A"}, 3)
	got, want := nextRetransmission(warm), nextRetransmission(fresh)
	if len(want) != 2 || !slices.Equal(got, want) {
		t.Errorf("after Clear and refill: retransmitted %v, fresh group %v", got, want)
	}
}
