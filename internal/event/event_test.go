package event

import (
	"slices"
	"testing"
	"time"
)

func TestBasicOrdering(t *testing.T) {
	var s Scheduler
	var order []int
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.RunUntil(10 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if s.Now() != 10*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	var s Scheduler
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.RunUntil(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfter(t *testing.T) {
	var s Scheduler
	s.RunUntil(5 * time.Second)
	fired := time.Duration(-1)
	s.After(2*time.Second, func() { fired = s.Now() })
	s.RunUntil(10 * time.Second)
	if fired != 7*time.Second {
		t.Errorf("After fired at %v, want 7s", fired)
	}
}

func TestCancel(t *testing.T) {
	var s Scheduler
	fired := false
	e := s.At(time.Second, func() { fired = true })
	if !e.Scheduled() {
		t.Error("event not scheduled")
	}
	e.Cancel()
	s.RunUntil(2 * time.Second)
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Scheduled() {
		t.Error("cancelled event still Scheduled")
	}
	// Cancelling nil and double-cancel are no-ops.
	var nilEv *Event
	nilEv.Cancel()
	e.Cancel()
}

func TestStep(t *testing.T) {
	var s Scheduler
	count := 0
	s.At(time.Second, func() { count++ })
	s.At(2*time.Second, func() { count++ })
	if !s.Step() {
		t.Fatal("Step returned false with pending events")
	}
	if count != 1 || s.Now() != time.Second {
		t.Errorf("after one step: count=%d now=%v", count, s.Now())
	}
	if !s.Step() || s.Step() {
		t.Error("Step count wrong")
	}
	if count != 2 {
		t.Errorf("count = %d", count)
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	var s Scheduler
	e := s.At(time.Second, func() {})
	e.Cancel()
	if s.Step() {
		t.Error("Step fired a cancelled event")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	var s Scheduler
	var times []time.Duration
	s.At(time.Second, func() {
		times = append(times, s.Now())
		s.After(time.Second, func() { times = append(times, s.Now()) })
	})
	s.RunUntil(5 * time.Second)
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Errorf("times = %v", times)
	}
}

func TestEvery(t *testing.T) {
	var s Scheduler
	count := 0
	stop := s.Periodic(100*time.Millisecond, func() { count++ }).Stop
	s.RunUntil(time.Second)
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	stop()
	s.RunUntil(2 * time.Second)
	if count != 10 {
		t.Errorf("count after stop = %d, want 10", count)
	}
}

func TestEveryStopFromCallback(t *testing.T) {
	var s Scheduler
	count := 0
	var stop func()
	stop = s.Periodic(time.Second, func() {
		count++
		if count == 3 {
			stop()
		}
	}).Stop
	s.RunUntil(10 * time.Second)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

// TestPeriodicNextAcrossSuspend: the grid times Next reports after a
// suspended jump, followed by the occurrences fired after Resume, are
// exactly the fire times of an uninterrupted series — the contract the
// stand relies on to replay trace samples it skipped.
func TestPeriodicNextAcrossSuspend(t *testing.T) {
	const period = 50 * time.Millisecond
	const end = 2 * time.Second
	var ref Scheduler
	var want []time.Duration
	ref.RunUntil(7 * time.Millisecond)
	ref.Periodic(period, func() { want = append(want, ref.Now()) })
	ref.RunUntil(end)

	var s Scheduler
	var got []time.Duration
	s.RunUntil(7 * time.Millisecond)
	p := s.Periodic(period, func() { got = append(got, s.Now()) })
	if p.Next() != 7*time.Millisecond+period {
		t.Fatalf("fresh Next = %v, want %v", p.Next(), 7*time.Millisecond+period)
	}
	// Jumps ending off the grid, exactly on it (557 ms), of zero length
	// (577 ms, where the previous resume left the clock) and crossing no
	// grid point (600 ms).
	for _, jump := range []time.Duration{310 * time.Millisecond, 557 * time.Millisecond,
		577 * time.Millisecond, 600 * time.Millisecond, 1337 * time.Millisecond} {
		p.Suspend()
		s.RunUntil(jump)
		for g := p.Next(); g <= s.Now(); g += p.Period() {
			got = append(got, g)
		}
		p.Resume()
		if p.Next() <= s.Now() {
			t.Fatalf("after Resume at %v: Next = %v, not in the future", s.Now(), p.Next())
		}
		s.RunUntil(s.Now() + 20*time.Millisecond)
	}
	s.RunUntil(end)

	if len(got) != len(want) {
		t.Fatalf("got %d occurrences, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("occurrence %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	var s Scheduler
	s.RunUntil(time.Second)
	expectPanic("past At", func() { s.At(0, func() {}) })
	expectPanic("nil fn", func() { s.At(2*time.Second, nil) })
	expectPanic("past RunUntil", func() { s.RunUntil(0) })
	expectPanic("bad period", func() { s.Periodic(0, func() {}) })
}

func TestPending(t *testing.T) {
	var s Scheduler
	if s.Pending() != 0 {
		t.Error("fresh scheduler has pending events")
	}
	s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.RunUntil(time.Second)
	if s.Pending() != 1 {
		t.Errorf("Pending after partial run = %d", s.Pending())
	}
}

func TestAdvance(t *testing.T) {
	var s Scheduler
	s.Advance(3 * time.Second)
	if s.Now() != 3*time.Second {
		t.Errorf("Now = %v", s.Now())
	}
}

func TestLongHorizon(t *testing.T) {
	// The paper's step 7 lasts 280 s; make sure long horizons with many
	// periodic events stay exact.
	var s Scheduler
	count := 0
	stop := s.Periodic(10*time.Millisecond, func() { count++ }).Stop
	defer stop()
	s.RunUntil(280 * time.Second)
	if count != 28000 {
		t.Errorf("count = %d, want 28000", count)
	}
}

func TestWhen(t *testing.T) {
	var s Scheduler
	e := s.At(7*time.Second, func() {})
	if e.When() != 7*time.Second {
		t.Errorf("When = %v", e.When())
	}
}

// TestRescheduleReusesEventOffQueue: a caller-owned event — zero value
// included, even while other events are queued — is queued again in
// place once it has fired.
func TestRescheduleReusesEventOffQueue(t *testing.T) {
	var s Scheduler
	s.At(time.Hour, func() {}) // a non-empty queue: index 0 is taken
	var e Event
	var fired []time.Duration
	fn := func() { fired = append(fired, s.Now()) }
	for i, at := range []time.Duration{time.Second, 2 * time.Second, 2 * time.Second} {
		if got := s.Reschedule(&e, at, fn); got != &e {
			t.Fatalf("reschedule %d: got a fresh event, want the caller's", i)
		}
		if !e.Scheduled() || e.When() != at {
			t.Fatalf("reschedule %d: Scheduled=%v When=%v", i, e.Scheduled(), e.When())
		}
		s.RunUntil(at)
	}
	want := []time.Duration{time.Second, 2 * time.Second, 2 * time.Second}
	if !slices.Equal(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}
}

// TestRescheduleFallsBackWhileQueued: an event that is still queued —
// here cancelled but not yet drained — cannot be reused; Reschedule
// returns a fresh event and the cancelled one never fires.
func TestRescheduleFallsBackWhileQueued(t *testing.T) {
	var s Scheduler
	var e Event
	var got []string
	first := s.Reschedule(&e, time.Second, func() { got = append(got, "cancelled") })
	first.Cancel()
	second := s.Reschedule(&e, 2*time.Second, func() { got = append(got, "fresh") })
	if second == &e {
		t.Fatal("a queued event was reused")
	}
	s.RunUntil(3 * time.Second)
	if !slices.Equal(got, []string{"fresh"}) {
		t.Errorf("fired %v, want [fresh]", got)
	}
	// Drained, the caller's event is reusable again.
	if s.Reschedule(&e, 4*time.Second, func() {}) != &e {
		t.Error("drained event not reused")
	}
}

// TestRescheduleKeepsOrder: a rescheduled event takes a new sequence
// number, so it sorts by (time, scheduling order) among At events
// exactly as a fresh At would.
func TestRescheduleKeepsOrder(t *testing.T) {
	var s Scheduler
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	var e Event
	s.At(time.Second, rec("a"))
	s.Reschedule(&e, time.Second, rec("e1"))
	s.At(time.Second, rec("b"))
	s.At(500*time.Millisecond, rec("early"))
	s.RunUntil(time.Second)
	s.At(2*time.Second, rec("c"))
	s.Reschedule(&e, 2*time.Second, rec("e2"))
	s.At(2*time.Second, rec("d"))
	s.RunUntil(2 * time.Second)
	want := []string{"early", "a", "e1", "b", "c", "e2", "d"}
	if !slices.Equal(got, want) {
		t.Errorf("order %v, want %v", got, want)
	}
}

// TestPeriodicSteadyStateAllocs: once armed, a Periodic series fires and
// re-arms on its own event without allocating.
func TestPeriodicSteadyStateAllocs(t *testing.T) {
	var s Scheduler
	n := 0
	s.Periodic(time.Millisecond, func() { n++ })
	s.Advance(time.Millisecond)
	if got := testing.AllocsPerRun(100, func() { s.Advance(time.Millisecond) }); got != 0 {
		t.Errorf("fire + re-arm allocates %v times, want 0", got)
	}
	if n != 102 {
		t.Errorf("fired %d times, want 102", n)
	}
}

// TestPeriodicSuspendStopAllocs: Suspend and Stop take the series' event
// off the queue, so a warm Suspend/Resume cycle re-arms that same event
// and a Stop leaves nothing queued, all without allocating.
func TestPeriodicSuspendStopAllocs(t *testing.T) {
	var s Scheduler
	n := 0
	p := s.Periodic(time.Millisecond, func() { n++ })
	cycle := func() {
		// Resumed at once, as the stand does when a one-shot event
		// lies inside the window it meant to jump.
		p.Suspend()
		p.Resume()
		s.Advance(time.Millisecond)
		// Resumed after a jump.
		p.Suspend()
		s.Advance(3 * time.Millisecond)
		p.Resume()
		s.Advance(time.Millisecond)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Suspend/Resume cycle allocates %v times, want 0", got)
	}
	if n != 204 || s.Pending() != 1 {
		t.Errorf("fired %d times with %d queued, want 204 with 1", n, s.Pending())
	}

	series := make([]*Periodic, 101)
	for i := range series {
		series[i] = s.Periodic(time.Duration(i+1)*time.Millisecond, func() {})
	}
	i := 0
	if got := testing.AllocsPerRun(100, func() { series[i].Stop(); i++ }); got != 0 {
		t.Errorf("Stop allocates %v times, want 0", got)
	}
	if s.Pending() != 1 {
		t.Errorf("%d events queued after stopping every new series, want 1", s.Pending())
	}
}

// TestPeriodicRestartInsideCallback: a series that suspends itself and
// then restarts inside its own callback fires again one period after
// that callback, on the new grid, and keeps firing there; the callback
// returns with the series armed exactly once.
func TestPeriodicRestartInsideCallback(t *testing.T) {
	var s Scheduler
	var got []time.Duration
	var p *Periodic
	p = s.Periodic(10*time.Millisecond, func() {
		got = append(got, s.Now())
		if len(got) == 2 {
			p.Suspend()
			s.RunUntil(s.Now()) // nothing may fire while suspended
			p.Restart()
		}
	})
	s.RunUntil(3 * time.Millisecond)
	p.Restart() // running series: new grid from 3 ms
	s.RunUntil(60 * time.Millisecond)
	want := []time.Duration{13, 23, 33, 43, 53}
	if len(got) != len(want) {
		t.Fatalf("fired at %v, want %v ms", got, want)
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("fired at %v, want %v ms", got, want)
		}
	}
	if s.Pending() != 1 || p.Next() != 63*time.Millisecond {
		t.Errorf("%d events queued, Next %v; want 1 and 63ms", s.Pending(), p.Next())
	}

	// Resume after Suspend keeps the old grid; Restart after Suspend
	// moves it; Restart of a stopped series does nothing.
	p.Suspend()
	s.RunUntil(75 * time.Millisecond)
	p.Resume()
	if p.Next() != 83*time.Millisecond {
		t.Errorf("Resume: Next %v, want 83ms", p.Next())
	}
	p.Suspend()
	p.Restart()
	if p.Next() != 85*time.Millisecond {
		t.Errorf("Restart: Next %v, want 85ms", p.Next())
	}
	p.Stop()
	p.Restart()
	if s.Pending() != 0 {
		t.Errorf("Restart re-armed a stopped series: %d events queued", s.Pending())
	}
}

// TestPeriodicRestartAllocs: restarting a suspended series re-arms its
// own event without allocating.
func TestPeriodicRestartAllocs(t *testing.T) {
	var s Scheduler
	n := 0
	p := s.Periodic(time.Millisecond, func() { n++ })
	cycle := func() {
		p.Suspend()
		s.Advance(500 * time.Microsecond)
		p.Restart()
		s.Advance(time.Millisecond)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("Suspend/Restart cycle allocates %v times, want 0", got)
	}
	if n != 102 {
		t.Errorf("fired %d times, want 102", n)
	}
}
