package event

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// FuzzScheduler decodes a byte string into a sequence of scheduler calls
// — At, After, Cancel, Periodic, Suspend, Resume, Stop, Restart,
// Reschedule, Step and RunUntil, the scheduling calls also from inside
// callbacks — and
// runs it on the Scheduler and on refScheduler, a naive model kept in
// this file. The fired (time, label) sequence, the clock, NextAt, every
// handle's Scheduled and every series' Next must agree after each call.
func FuzzScheduler(f *testing.F) {
	for _, seed := range [][]byte{
		{3, 4, 3, 9, 9, 40, 4, 0, 9, 30, 5, 0, 9, 30},
		{0, 5, 1, 5, 2, 0, 8, 8, 8},
		{7, 0, 3, 2, 0, 7, 0, 3, 9, 10, 7, 0, 0, 9, 10},
		{3, 0, 3, 1, 9, 5, 4, 1, 9, 7, 5, 1, 6, 0, 9, 20},
		// A series suspended and resumed inside its own callback.
		{3, 2, 9, 20, 0x84, 0, 0x85, 0},
		// Callbacks that reschedule, stop and schedule at Now.
		{3, 1, 0, 3, 9, 10, 0x87, 0, 0x80, 0, 0x86, 0},
		// Series suspended out of the middle of a full queue.
		{0, 9, 0, 8, 0, 7, 3, 5, 3, 6, 3, 7, 3, 8, 0, 30, 0, 31, 9, 4, 4, 4, 4, 2, 9, 20, 5, 4, 5, 2, 9, 40},
		// Restarts: of a running series off its grid, of a suspended
		// one, of a stopped one, and a Resume after Suspend for contrast.
		{3, 4, 3, 6, 9, 7, 10, 0, 9, 3, 4, 1, 9, 9, 10, 1, 6, 0, 10, 0, 4, 1, 9, 2, 5, 1, 9, 30},
		// A series suspending and restarting itself inside its callback.
		{3, 4, 9, 5, 0x84, 0, 0x8a, 0, 9, 30},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		got := drive(&realKernel{}, data)
		want := drive(&refKernel{}, data)
		if got != want {
			t.Fatalf("scheduler and reference disagree\nscheduler: %s\nreference: %s", got, want)
		}
	})
}

// kernel is the surface the driver exercises. Each call that schedules
// appends a handle, or a series, to the kernel's own list; the driver
// names them by index.
type kernel interface {
	now() time.Duration
	at(t time.Duration, fn func())
	after(d time.Duration, fn func())
	reschedule(slot int, t time.Duration, fn func())
	cancel(h int)
	scheduled(h int) bool
	periodic(period time.Duration, fn func())
	suspend(p int)
	resume(p int)
	stop(p int)
	restart(p int)
	next(p int) time.Duration
	step() bool
	runUntil(t time.Duration)
	nextAt() (time.Duration, bool)
}

// driver feeds a byte string to a kernel as calls. A byte's low seven
// bits modulo 11 pick the call; the following byte is its argument. When
// a callback fires and the next unread byte has its top bit set, the
// callback makes that call, and each following one so marked, itself.
type driver struct {
	k        kernel
	data     []byte
	pos      int
	log      []byte // the transcript compared between kernels
	handles  int
	series   int
	inside   bool
	nextName int
}

const maxSeries = 6

func drive(k kernel, data []byte) string {
	d := &driver{k: k, data: data}
	for d.pos < len(d.data) {
		d.call()
		d.snapshot()
	}
	d.k.runUntil(d.k.now() + 256*time.Millisecond)
	d.snapshot()
	return string(d.log)
}

func (d *driver) byte() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *driver) ms(b byte) time.Duration { return time.Duration(b) * time.Millisecond }

// callback returns a labelled callback that logs its firing and may make
// a nested call.
func (d *driver) callback() func() {
	name := d.nextName
	d.nextName++
	return func() {
		d.log = fmt.Appendf(d.log, "fire %d@%v;", name, d.k.now())
		if d.inside {
			return
		}
		d.inside = true
		for d.pos < len(d.data) && d.data[d.pos]&0x80 != 0 {
			d.call()
		}
		d.inside = false
	}
}

func (d *driver) call() {
	op := d.byte() & 0x7f % 11
	switch op {
	case 0:
		d.k.at(d.k.now()+d.ms(d.byte()%64), d.callback())
		d.handles++
	case 1:
		d.k.after(d.ms(d.byte()%64), d.callback())
		d.handles++
	case 2:
		if h := int(d.byte()); d.handles > 0 {
			d.k.cancel(h % d.handles)
		}
	case 3:
		period := d.ms(d.byte()%16 + 1)
		if d.series < maxSeries {
			d.k.periodic(period, d.callback())
			d.series++
		}
	case 4, 5, 6, 10:
		p := int(d.byte())
		if d.series == 0 {
			return
		}
		p %= d.series
		switch op {
		case 4:
			d.k.suspend(p)
		case 5:
			d.k.resume(p)
		case 10:
			d.k.restart(p)
		default:
			d.k.stop(p)
		}
	case 7:
		b := d.byte()
		d.k.reschedule(int(b>>6&1), d.k.now()+d.ms(b%64), d.callback())
		d.handles++
	case 8:
		if !d.inside { // the kernel is not re-entrant
			d.log = fmt.Appendf(d.log, "step %v;", d.k.step())
		}
	case 9:
		if b := d.byte(); !d.inside {
			d.k.runUntil(d.k.now() + d.ms(b))
		}
	}
}

func (d *driver) snapshot() {
	at, ok := d.k.nextAt()
	d.log = fmt.Appendf(d.log, "| now %v next %v %v;", d.k.now(), at, ok)
	for h := range d.handles {
		if d.k.scheduled(h) {
			d.log = fmt.Appendf(d.log, " h%d", h)
		}
	}
	for p := range d.series {
		d.log = fmt.Appendf(d.log, " p%d@%v", p, d.k.next(p))
	}
	d.log = append(d.log, '\n')
}

// ------------------------------------------------------------ scheduler --

type realKernel struct {
	s       Scheduler
	owned   [2]Event
	handles []*Event
	series  []*Periodic
}

func (k *realKernel) now() time.Duration            { return k.s.Now() }
func (k *realKernel) at(t time.Duration, fn func()) { k.handles = append(k.handles, k.s.At(t, fn)) }
func (k *realKernel) after(d time.Duration, fn func()) {
	k.handles = append(k.handles, k.s.After(d, fn))
}
func (k *realKernel) reschedule(slot int, t time.Duration, fn func()) {
	k.handles = append(k.handles, k.s.Reschedule(&k.owned[slot], t, fn))
}
func (k *realKernel) cancel(h int)         { k.handles[h].Cancel() }
func (k *realKernel) scheduled(h int) bool { return k.handles[h].Scheduled() }
func (k *realKernel) periodic(period time.Duration, fn func()) {
	k.series = append(k.series, k.s.Periodic(period, fn))
}
func (k *realKernel) suspend(p int)                 { k.series[p].Suspend() }
func (k *realKernel) resume(p int)                  { k.series[p].Resume() }
func (k *realKernel) stop(p int)                    { k.series[p].Stop() }
func (k *realKernel) restart(p int)                 { k.series[p].Restart() }
func (k *realKernel) next(p int) time.Duration      { return k.series[p].Next() }
func (k *realKernel) step() bool                    { return k.s.Step() }
func (k *realKernel) runUntil(t time.Duration)      { k.s.RunUntil(t) }
func (k *realKernel) nextAt() (time.Duration, bool) { return k.s.NextAt() }

// ------------------------------------------------------------ reference --

// refEvent is an event of the reference scheduler. queued is true from
// scheduling until the event leaves the front of the queue.
type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	queued    bool
}

// refScheduler keeps its queue as a slice sorted by (time, seq) and
// cancels lazily: a cancelled event leaves the queue when it reaches the
// front, as the Scheduler's does.
type refScheduler struct {
	now time.Duration
	seq uint64
	q   []*refEvent
}

func (r *refScheduler) push(e *refEvent, t time.Duration, fn func()) *refEvent {
	*e = refEvent{at: t, seq: r.seq, fn: fn, queued: true}
	r.seq++
	i, _ := slices.BinarySearchFunc(r.q, e, func(a, b *refEvent) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		return int(a.seq) - int(b.seq)
	})
	r.q = slices.Insert(r.q, i, e)
	return e
}

func (r *refScheduler) popFront() *refEvent {
	e := r.q[0]
	r.q = r.q[1:]
	e.queued = false
	return e
}

func (r *refScheduler) fire(e *refEvent) {
	r.now = e.at
	e.fn()
}

// refPeriodic arms a fresh event for every occurrence and cancels it to
// suspend or stop, leaving it in the queue.
type refPeriodic struct {
	r             *refScheduler
	period, next  time.Duration
	fn            func()
	ev            *refEvent
	stopped, susp bool
}

func (p *refPeriodic) arm() { p.ev = p.r.push(&refEvent{}, p.next, p.run) }

func (p *refPeriodic) run() {
	cur := p.ev
	p.fn()
	if p.stopped || p.susp || p.ev != cur { // re-armed by a Resume or Restart inside fn
		return
	}
	p.next += p.period
	p.arm()
}

type refKernel struct {
	r       refScheduler
	owned   [2]refEvent
	handles []*refEvent
	series  []*refPeriodic
}

func (k *refKernel) now() time.Duration { return k.r.now }
func (k *refKernel) at(t time.Duration, fn func()) {
	k.handles = append(k.handles, k.r.push(&refEvent{}, t, fn))
}
func (k *refKernel) after(d time.Duration, fn func()) { k.at(k.r.now+d, fn) }
func (k *refKernel) reschedule(slot int, t time.Duration, fn func()) {
	e := &k.owned[slot]
	if e.queued { // a queued event cannot be reused
		e = &refEvent{}
	}
	k.handles = append(k.handles, k.r.push(e, t, fn))
}
func (k *refKernel) cancel(h int) { k.handles[h].cancelled = true }
func (k *refKernel) scheduled(h int) bool {
	return k.handles[h].queued && !k.handles[h].cancelled
}
func (k *refKernel) periodic(period time.Duration, fn func()) {
	p := &refPeriodic{r: &k.r, period: period, next: k.r.now + period, fn: fn}
	p.arm()
	k.series = append(k.series, p)
}
func (k *refKernel) suspend(i int) {
	if p := k.series[i]; !p.stopped && !p.susp {
		p.susp = true
		p.ev.cancelled = true
	}
}
func (k *refKernel) resume(i int) {
	p := k.series[i]
	if p.stopped || !p.susp {
		return
	}
	p.susp = false
	for p.next <= k.r.now {
		p.next += p.period
	}
	p.arm()
}
func (k *refKernel) stop(i int) {
	p := k.series[i]
	p.stopped = true
	p.ev.cancelled = true
}

// restart arms a fresh event one period after now, cancelling a pending
// occurrence first; a stopped series stays stopped.
func (k *refKernel) restart(i int) {
	p := k.series[i]
	if p.stopped {
		return
	}
	if !p.susp {
		p.ev.cancelled = true
	}
	p.susp = false
	p.next = k.r.now + p.period
	p.arm()
}
func (k *refKernel) next(i int) time.Duration { return k.series[i].next }
func (k *refKernel) step() bool {
	for len(k.r.q) > 0 {
		if e := k.r.popFront(); !e.cancelled {
			k.r.fire(e)
			return true
		}
	}
	return false
}
func (k *refKernel) runUntil(t time.Duration) {
	for len(k.r.q) > 0 && k.r.q[0].at <= t {
		if e := k.r.popFront(); !e.cancelled {
			k.r.fire(e)
		}
	}
	k.r.now = t
}
func (k *refKernel) nextAt() (time.Duration, bool) {
	for len(k.r.q) > 0 && k.r.q[0].cancelled {
		k.r.popFront()
	}
	if len(k.r.q) == 0 {
		return 0, false
	}
	return k.r.q[0].at, true
}
