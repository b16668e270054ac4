// Package event provides the discrete-event simulation kernel shared by
// the simulated test stand, the CAN bus and the ECU models. It keeps a
// virtual clock — test steps of 280 s (paper, step 7) execute in
// microseconds of wall time — and dispatches scheduled callbacks in
// deterministic order: primary key simulated time, secondary key
// scheduling sequence.
package event

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. It can be cancelled until it has fired.
type Event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	index  int // heap index, -1 when not queued
	cancel bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.cancel = true
	}
}

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e != nil && e.index >= 0 && !e.cancel }

// When returns the simulated time the event fires at.
func (e *Event) When() time.Duration { return e.at }

// Scheduler owns the virtual clock and the pending event queue.
// The zero value is ready to use, starting at time 0.
type Scheduler struct {
	now time.Duration
	q   eventQueue
	seq uint64
}

// Now returns the current simulated time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.q) }

// At schedules fn at absolute simulated time t. Scheduling in the past
// (t < Now) panics: it indicates a logic error in the simulation.
func (s *Scheduler) At(t time.Duration, fn func()) *Event {
	return s.push(&Event{}, t, fn)
}

// Reschedule is At on a caller-owned event: it queues e again for fn at
// time t and returns it, without allocating. A zero-value Event is valid.
// While e is still queued — pending, or cancelled and not yet drained —
// it cannot be reused, and Reschedule falls back to At. Callers must
// therefore keep the returned pointer (to Cancel it) rather than e, or
// take e off the queue with Unqueue first.
func (s *Scheduler) Reschedule(e *Event, t time.Duration, fn func()) *Event {
	if s.queued(e) {
		return s.At(t, fn)
	}
	return s.push(e, t, fn)
}

// Unqueue takes e off the queue, so it never fires and a following
// Reschedule reuses it. Unqueueing an event that is not queued on s is a
// no-op.
func (s *Scheduler) Unqueue(e *Event) {
	if s.queued(e) {
		s.q.remove(e.index)
	}
}

// queued reports whether e sits in s's queue, pending or cancelled.
func (s *Scheduler) queued(e *Event) bool {
	i := e.index
	return i >= 0 && i < len(s.q) && s.q[i] == e
}

func (s *Scheduler) push(e *Event, t time.Duration, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("event: scheduling nil callback")
	}
	*e = Event{at: t, seq: s.seq, fn: fn}
	s.seq++
	s.q.push(e)
	return e
}

// After schedules fn after duration d from now.
func (s *Scheduler) After(d time.Duration, fn func()) *Event {
	return s.At(s.now+d, fn)
}

// Periodic schedules fn every period, first firing after one period,
// and returns a handle that can stop, suspend, resume and restart the
// series. A non-positive period panics. Suspension is the
// mechanism behind idle fast-forward: the stand parks its periodic
// drivers (task ticker, CAN retransmission), jumps the clock over a
// quiescent window in O(1), and resumes them on their original phase
// grid, so the tick times after the jump are exactly the tick times an
// uninterrupted run would have produced.
func (s *Scheduler) Periodic(period time.Duration, fn func()) *Periodic {
	if period <= 0 {
		panic("event: non-positive period")
	}
	p := &Periodic{s: s, period: period, fn: fn}
	p.run = func() {
		p.fn()
		// fn may stop or suspend the series, or resume or restart it,
		// which re-arms it already.
		if p.stopped || p.susp || s.queued(&p.ev) {
			return
		}
		p.next += p.period
		p.arm()
	}
	p.next = s.now + period
	p.arm()
	return p
}

// Periodic is a self-rescheduling periodic event series.
type Periodic struct {
	s       *Scheduler
	period  time.Duration
	fn      func()
	run     func()        // the rescheduling wrapper, allocated once
	ev      Event         // the series' one event, queued while armed
	next    time.Duration // absolute time of the next occurrence
	stopped bool
	susp    bool
}

// arm schedules the next occurrence on the series' own event. Stop and
// Suspend take that event off the queue, so it is never still queued
// here and Reschedule never allocates.
func (p *Periodic) arm() { p.s.Reschedule(&p.ev, p.next, p.run) }

// Period returns the series period.
func (p *Periodic) Period() time.Duration { return p.period }

// Next returns the grid time of the series' next occurrence. While the
// series is suspended it stays at the first occurrence the suspension
// held back, so after a jump the occurrences Resume will drop are
// exactly the grid times Next, Next+Period, … up to Now.
func (p *Periodic) Next() time.Duration { return p.next }

// Stop cancels the series permanently.
func (p *Periodic) Stop() {
	p.stopped = true
	p.s.Unqueue(&p.ev)
}

// Suspend parks the series: no occurrences fire until Resume. Suspending
// an already-suspended or stopped series is a no-op.
func (p *Periodic) Suspend() {
	if p.stopped || p.susp {
		return
	}
	p.susp = true
	p.s.Unqueue(&p.ev)
}

// Resume re-arms a suspended series on its original phase grid: the next
// occurrence fires at the first grid point strictly after Now, where the
// grid is the sequence of times the uninterrupted series would have
// fired at. Occurrences that fell inside the suspended window are
// dropped, not replayed.
func (p *Periodic) Resume() {
	if p.stopped || !p.susp {
		return
	}
	p.susp = false
	if p.next <= p.s.now {
		missed := (p.s.now-p.next)/p.period + 1
		p.next += missed * p.period
	}
	p.arm()
}

// Restart re-arms the series on a new phase grid: the next occurrence
// fires one period after Now, and the grid continues from there. It
// works on a running series (whose pending occurrence it drops) and on a
// suspended one, which it resumes on the new grid; Resume instead keeps
// the old grid. Restarting a stopped series is a no-op. A series kept
// suspended between uses and restarted for each re-arms its one event
// without allocating.
func (p *Periodic) Restart() {
	if p.stopped {
		return
	}
	p.susp = false
	p.s.Unqueue(&p.ev)
	p.next = p.s.now + p.period
	p.arm()
}

// NextAt returns the time of the earliest pending event, if any.
// Cancelled events at the head of the queue are discarded on the way.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	for len(s.q) > 0 && s.q[0].cancel {
		s.q.pop()
	}
	if len(s.q) == 0 {
		return 0, false
	}
	return s.q[0].at, true
}

// Step fires the next pending event (advancing the clock to its time) and
// reports whether one was fired.
func (s *Scheduler) Step() bool {
	for len(s.q) > 0 {
		e := s.q.pop()
		if e.cancel {
			continue
		}
		s.now = e.at
		e.fn()
		return true
	}
	return false
}

// RunUntil fires every event scheduled at or before t in order and then
// advances the clock to exactly t.
func (s *Scheduler) RunUntil(t time.Duration) {
	if t < s.now {
		panic(fmt.Sprintf("event: RunUntil(%v) before now %v", t, s.now))
	}
	for len(s.q) > 0 && s.q[0].at <= t {
		e := s.q.pop()
		if e.cancel {
			continue
		}
		s.now = e.at
		e.fn()
	}
	s.now = t
}

// Advance is RunUntil(Now()+d).
func (s *Scheduler) Advance(d time.Duration) { s.RunUntil(s.now + d) }

// ------------------------------------------------------------------ heap --

// eventQueue is a binary min-heap of events ordered by (time, seq). Each
// event keeps its own index, so a known event leaves the queue in
// O(log n). Sequence numbers are unique, so every valid heap pops the
// same order.
type eventQueue []*Event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) push(e *Event) {
	e.index = len(*q)
	*q = append(*q, e)
	q.up(e.index)
}

// pop removes and returns the earliest event.
func (q *eventQueue) pop() *Event {
	n := len(*q) - 1
	q.swap(0, n)
	q.down(0, n)
	return q.truncate()
}

// remove takes the event at index i off the queue.
func (q *eventQueue) remove(i int) {
	n := len(*q) - 1
	if i != n {
		q.swap(i, n)
		if !q.down(i, n) {
			q.up(i)
		}
	}
	q.truncate()
}

// truncate drops and returns the last slot's event.
func (q *eventQueue) truncate() *Event {
	old := *q
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	e.index = -1
	*q = old[:n]
	return e
}

func (q eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts the event at i0 down among the first n slots and reports
// whether it moved.
func (q eventQueue) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if r := j + 1; r < n && q.less(r, j) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}
