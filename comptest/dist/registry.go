package dist

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/comptest/api"
	"repro/internal/version"
)

// The registration wire types are canonical in comptest/api and
// aliased here: RegisterRequest is the coordinator↔worker handshake a
// worker POSTs to /v1/workers, RegisterResponse carries the assigned
// ID and heartbeat lease, WorkerInfo is the GET /v1/workers snapshot.
type (
	RegisterRequest  = api.RegisterRequest
	RegisterResponse = api.RegisterResponse
	WorkerInfo       = api.WorkerInfo
)

// ErrNoWorkers reports that no registered live worker can execute the
// requested work — the coordinator's cue to fall back to local
// execution rather than queue forever.
var ErrNoWorkers = errors.New("dist: no eligible live workers")

type workerRec struct {
	id       string
	name     string
	url      string
	version  string
	protocol int
	capacity int
	kinds    []string
	duts     []string
	stands   []string

	lastSeen time.Time
	lost     bool // marked after a failed dispatch or deregistration
	expired  bool // lease lapse already counted (reset by heartbeat)
	active   int  // shards currently leased
}

// need describes what a shard requires of a worker.
type need struct {
	kind, dut, stand string
}

func capable(list []string, want string) bool {
	if len(list) == 0 || want == "" {
		return true
	}
	for _, s := range list {
		if s == want {
			return true
		}
	}
	return false
}

// Registry tracks the worker fleet on the coordinator: registration
// with a protocol handshake, heartbeat leases, shard-slot accounting
// and the pick policy (least-loaded live worker matching the need).
type Registry struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ttl    time.Duration
	now    func() time.Time // injectable clock for lease tests
	seq    int
	recs   map[string]*workerRec
	order  []string // registration order, for stable snapshots
	closed bool

	// onExpire fires (under mu) the first time a worker's lease lapses,
	// once per lapse: the coordinator counts these for /metrics and logs
	// which worker went silent.
	onExpire func(id string)
}

func newRegistry(ttl time.Duration, now func() time.Time) *Registry {
	if now == nil {
		now = time.Now // lint:ignore nodeterminism lease expiry is wall-clock by design; tests inject a fake clock
	}
	r := &Registry{ttl: ttl, now: now, recs: map[string]*workerRec{}}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Register admits a worker after the protocol handshake. The same URL
// re-registering replaces the old record (a restarted worker must not
// leave a ghost twin behind).
func (r *Registry) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.URL == "" {
		return RegisterResponse{}, fmt.Errorf("dist: registration lacks a url")
	}
	if req.Protocol != version.Protocol {
		return RegisterResponse{}, fmt.Errorf(
			"dist: worker protocol %d (version %s) incompatible with coordinator protocol %d (version %s)",
			req.Protocol, req.Version, version.Protocol, version.String())
	}
	if req.Capacity < 1 {
		req.Capacity = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return RegisterResponse{}, fmt.Errorf("dist: coordinator is shutting down")
	}
	for id, rec := range r.recs {
		if rec.url == req.URL {
			delete(r.recs, id)
			r.order = remove(r.order, id)
		}
	}
	r.seq++
	rec := &workerRec{
		id:       fmt.Sprintf("w-%04d", r.seq),
		name:     req.Name,
		url:      req.URL,
		version:  req.Version,
		protocol: req.Protocol,
		capacity: req.Capacity,
		kinds:    req.Kinds,
		duts:     req.DUTs,
		stands:   req.Stands,
		lastSeen: r.now(),
	}
	r.recs[rec.id] = rec
	r.order = append(r.order, rec.id)
	r.cond.Broadcast()
	return RegisterResponse{ID: rec.id, LeaseMillis: r.ttl.Milliseconds(), Protocol: version.Protocol}, nil
}

func remove(ids []string, id string) []string {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// Heartbeat renews a worker's lease. It revives a worker marked lost —
// a transient network failure during dispatch should not banish a
// healthy node forever. Returns false for an unknown ID (the worker
// must re-register).
func (r *Registry) Heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.recs[id]
	if !ok {
		return false
	}
	rec.lastSeen = r.now()
	rec.lost = false
	rec.expired = false // the next lapse counts afresh
	r.cond.Broadcast()
	return true
}

// Deregister removes a worker (graceful shutdown).
func (r *Registry) Deregister(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.recs, id)
	r.order = remove(r.order, id)
	r.cond.Broadcast()
}

// MarkLost flags a worker after a failed dispatch so other shards stop
// picking it until its next successful heartbeat.
func (r *Registry) MarkLost(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.recs[id]; ok {
		rec.lost = true
	}
	r.cond.Broadcast()
}

func (r *Registry) live(rec *workerRec) bool {
	if rec.lost {
		return false
	}
	if r.now().Sub(rec.lastSeen) <= r.ttl {
		return true
	}
	// Count the lapse exactly once per silence: every liveness check
	// holds mu, so the first one past the deadline flips the latch.
	if !rec.expired {
		rec.expired = true
		if r.onExpire != nil {
			r.onExpire(rec.id)
		}
	}
	return false
}

// Snapshot lists every registered worker in registration order.
func (r *Registry) Snapshot() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.order))
	for _, id := range r.order {
		rec := r.recs[id]
		state := "lost"
		if r.live(rec) {
			state = "live"
		}
		out = append(out, WorkerInfo{
			ID: rec.id, Name: rec.name, URL: rec.url, Version: rec.version,
			Protocol: rec.protocol, Capacity: rec.capacity, Active: rec.active,
			State:  state,
			Kinds:  append([]string(nil), rec.kinds...),
			DUTs:   append([]string(nil), rec.duts...),
			Stands: append([]string(nil), rec.stands...),
		})
	}
	return out
}

// LiveCount returns the number of workers currently within lease.
func (r *Registry) LiveCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rec := range r.recs {
		if r.live(rec) {
			n++
		}
	}
	return n
}

// lease is one acquired shard slot on a worker.
type lease struct {
	id  string
	url string
}

// acquire blocks until a live, capability-matching, non-excluded
// worker has a free shard slot, then reserves one. It returns
// ErrNoWorkers as soon as NO eligible worker is live at all (free or
// busy) — waiting would then be waiting for nobody. With stealAfter >
// 0, a wait that outlives it while the fleet is saturated returns
// stolen=true instead of a lease: the caller runs the work locally
// (work-stealing). The deadline is checked on each wakeup, so its
// granularity is the coordinator's broadcast ticker, not exact.
// Callers must release the lease. Cancellation is honoured through
// ctx; the coordinator's ticker broadcasts periodically so silent
// lease expiry also wakes waiters.
func (r *Registry) acquire(ctx context.Context, n need, exclude map[string]bool,
	stealAfter time.Duration) (ls lease, stolen bool, err error) {
	// A blocked Wait has no channel to select on; broadcast on ctx
	// cancellation exactly like the serve result log does.
	stop := context.AfterFunc(ctx, r.broadcast)
	defer stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	var deadline time.Time
	if stealAfter > 0 {
		deadline = r.now().Add(stealAfter)
	}
	waited := false
	for {
		if err := ctx.Err(); err != nil {
			return lease{}, false, err
		}
		if r.closed {
			return lease{}, false, fmt.Errorf("dist: coordinator is shutting down")
		}
		var best *workerRec
		anyLive := false
		// Stable iteration: order ties by registration, not map order,
		// so scheduling is deterministic for a given fleet state.
		for _, id := range r.order {
			rec := r.recs[id]
			if exclude[id] || !r.live(rec) {
				continue
			}
			if !capable(rec.kinds, n.kind) || !capable(rec.duts, n.dut) || !capable(rec.stands, n.stand) {
				continue
			}
			anyLive = true
			if rec.active >= rec.capacity {
				continue
			}
			if best == nil || rec.active < best.active {
				best = rec
			}
		}
		if best != nil {
			best.active++
			return lease{id: best.id, url: best.url}, false, nil
		}
		if !anyLive {
			return lease{}, false, ErrNoWorkers
		}
		if stealAfter > 0 && waited && !r.now().Before(deadline) {
			return lease{}, true, nil
		}
		waited = true
		r.cond.Wait()
	}
}

// restore re-installs journal-recovered fleet membership after a
// coordinator restart. Restored workers keep their IDs (the journal's
// dispatch records address them) but start out of lease — their next
// heartbeat, due within a third of the lease TTL, revives them without
// a round of 404-driven re-registration. A worker journaled under
// another protocol revision is dropped: its heartbeat gets 404, and
// its re-registration the handshake's protocol conflict. The ID
// sequence advances past every restored worker so new registrations
// cannot collide.
func (r *Registry) restore(infos []WorkerInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range infos {
		if w.ID == "" || w.URL == "" || w.Protocol != version.Protocol {
			continue
		}
		if _, dup := r.recs[w.ID]; dup {
			continue
		}
		capacity := w.Capacity
		if capacity < 1 {
			capacity = 1
		}
		rec := &workerRec{
			id: w.ID, name: w.Name, url: w.URL, version: w.Version,
			protocol: w.Protocol, capacity: capacity,
			kinds: w.Kinds, duts: w.DUTs, stands: w.Stands,
			// lastSeen stays zero — out of lease until the first heartbeat.
			// expired pre-latched: a restored-but-silent worker is not a
			// fresh lease expiry worth counting or logging.
			expired: true,
		}
		r.recs[w.ID] = rec
		r.order = append(r.order, w.ID)
		if n, ok := workerSeq(w.ID); ok && n > r.seq {
			r.seq = n
		}
	}
	r.cond.Broadcast()
}

// workerSeq extracts the numeric suffix of a "w-%04d" identifier.
func workerSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "w-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// release returns a shard slot.
func (r *Registry) release(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec, ok := r.recs[id]; ok && rec.active > 0 {
		rec.active--
	}
	r.cond.Broadcast()
}

func (r *Registry) broadcast() {
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *Registry) close() {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
}
