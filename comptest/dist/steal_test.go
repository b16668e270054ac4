package dist

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/comptest/serve"
	"repro/internal/version"
)

// TestAcquireStealsWhenSaturated exercises the registry half of
// work-stealing with a hand-cranked clock: a waiter on a saturated
// (but live) fleet turns into a steal once its deadline passes — and
// a freed slot always beats stealing.
func TestAcquireStealsWhenSaturated(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	r := newRegistry(time.Minute, clock)
	if _, err := r.Register(RegisterRequest{
		Name: "solo", URL: "http://solo",
		Version: version.String(), Protocol: version.Protocol, Capacity: 1,
	}); err != nil {
		t.Fatal(err)
	}

	ls, stolen, err := r.acquire(t.Context(), need{}, nil, 50*time.Millisecond)
	if err != nil || stolen {
		t.Fatalf("first acquire: stolen=%v err=%v, want an immediate lease", stolen, err)
	}

	// The fleet is saturated: the next acquire waits, then steals once
	// its deadline passes.
	type res struct {
		stolen bool
		err    error
	}
	ch := make(chan res, 1)
	go func() {
		_, stolen, err := r.acquire(t.Context(), need{}, nil, 50*time.Millisecond)
		ch <- res{stolen, err}
	}()
	// Crank the clock and the broadcast together (the ticker's job in a
	// real coordinator): whenever the waiter computed its deadline, the
	// clock eventually passes it.
	var got res
	for done := false; !done; {
		select {
		case got = <-ch:
			done = true
		case <-time.After(5 * time.Millisecond):
			mu.Lock()
			now = now.Add(time.Second)
			mu.Unlock()
			r.broadcast()
		}
	}
	if got.err != nil || !got.stolen {
		t.Fatalf("saturated acquire: stolen=%v err=%v, want a steal", got.stolen, got.err)
	}

	// Capacity frees up: even a waiter far past its steal deadline
	// takes the real lease.
	go func() {
		_, stolen, err := r.acquire(t.Context(), need{}, nil, time.Nanosecond)
		ch <- res{stolen, err}
	}()
	r.release(ls.id)
	for done := false; !done; {
		select {
		case got = <-ch:
			done = true
		case <-time.After(5 * time.Millisecond):
			r.broadcast()
		}
	}
	if got.err != nil || got.stolen {
		t.Fatalf("acquire with free slot: stolen=%v err=%v, want a lease", got.stolen, got.err)
	}
}

// TestStealLocalUnderSaturatedFleet is the coordinator-level pin: one
// live capacity-1 worker parks a shard in a hung stream; with
// StealLocal on, the remaining shards outwait StealAfter and run on
// the coordinator's own executor, accounted as Stolen in both the
// job's ShardStatus and the dist_shards_stolen_total counter.
func TestStealLocalUnderSaturatedFleet(t *testing.T) {
	h := newHarness(t, Options{
		ShardUnits: 1,
		StealLocal: true,
		StealAfter: 10 * time.Millisecond,
		LeaseTTL:   time.Second, // broadcast ticker fires every TTL/4
	})
	hang := &hangingWorker{entered: make(chan struct{})}
	stub := httptest.NewServer(hang.handler())
	defer stub.Close()
	registerStub(t, h.url, stub.URL, 1)

	st := h.submit(t, campaignSpec)
	<-hang.entered // one shard is parked on the saturated node

	deadline := time.Now().Add(10 * time.Second)
	for {
		cur := h.status(t, st.ID)
		if cur.Shards != nil && cur.Shards.Stolen >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards never stolen: %+v", cur.Shards)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The parked shard never returns; cancel the job to finish.
	req, err := http.NewRequest(http.MethodDelete, h.url+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for {
		cur := h.status(t, st.ID)
		if cur.State == serve.StateCancelled {
			if cur.Shards.Stolen != 3 {
				t.Errorf("final Stolen = %d, want 3: %+v", cur.Shards.Stolen, cur.Shards)
			}
			// Stolen shards are counted apart from Local.
			if cur.Shards.Local != 0 {
				t.Errorf("final Local = %d, want 0: %+v", cur.Shards.Local, cur.Shards)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never cancelled: %s/%s", cur.State, cur.Verdict)
		}
		time.Sleep(20 * time.Millisecond)
	}
	snap := fleetSnap(t, h.url)
	if got := snap.Value(MetricShardsStolen); got != 3 {
		t.Errorf("%s = %v, want 3", MetricShardsStolen, got)
	}
}
