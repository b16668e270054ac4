package dist

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/comptest/serve"
	"repro/internal/obs"
	"repro/internal/version"
)

// fleetSnap scrapes the coordinator's aggregated /metrics as JSON.
func fleetSnap(t *testing.T, url string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// workerSum adds up a family's cells that carry a worker label — the
// fleet-wide total of a per-node series.
func workerSum(snap obs.Snapshot, family string) (total float64, workers map[string]bool) {
	workers = map[string]bool{}
	for _, f := range snap.Families {
		if f.Name != family {
			continue
		}
		for _, c := range f.Cells {
			for _, l := range c.Labels {
				if l.Name == "worker" {
					total += c.Value
					workers[l.Value] = true
					break
				}
			}
		}
	}
	return total, workers
}

// TestCoordinatorFleetMetrics: the coordinator's /metrics merges its
// own dist_*/comptest_* series with a live scrape of every worker,
// re-exported under worker="w-NNNN" labels — so one curl answers for
// the fleet. The per-worker comptest_units_total cells must sum to the
// campaign's unit count: every unit ran on exactly one node.
func TestCoordinatorFleetMetrics(t *testing.T) {
	h := newHarness(t, Options{ShardUnits: 2})
	h.startWorker(t, WorkerOptions{Name: "a"})
	h.startWorker(t, WorkerOptions{Name: "b"})

	st := h.submit(t, campaignSpec)
	h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("final = %s (%s)", final.State, final.Error)
	}

	resp, err := http.Get(h.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		MetricWorkersLive + " 2",
		MetricWorkersRegistered + " 2",
		"# TYPE " + MetricShardRequeues + " counter",
		`{worker="w-0001"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet /metrics missing %q:\n%s", want, text)
		}
	}

	snap := fleetSnap(t, h.url)
	if got := int(snap.Value(MetricShardsCompleted)); final.Shards == nil || got != final.Shards.Completed {
		t.Errorf("%s = %d, want ShardStatus.Completed %+v", MetricShardsCompleted, got, final.Shards)
	}
	if got := snap.Value(MetricShardsLocal); got != 0 {
		t.Errorf("%s = %v with a live fleet, want 0", MetricShardsLocal, got)
	}
	units, workers := workerSum(snap, serve.MetricUnits)
	if units != 4 {
		t.Errorf("worker-labeled units sum to %v, want 4 (each unit on exactly one node)", units)
	}
	if len(workers) != 2 {
		t.Errorf("scraped %d workers (%v), want 2", len(workers), workers)
	}
	if got := snap.Value(MetricScrapeErrors); got != 0 {
		t.Errorf("%s = %v against healthy workers, want 0", MetricScrapeErrors, got)
	}

	// An unreachable-but-live worker must cost a scrape-error count, not
	// the whole exposition: the coordinator's own families still render.
	registerStub(t, h.url, "http://127.0.0.1:1", 1)
	snap = fleetSnap(t, h.url)
	if got := snap.Value(MetricScrapeErrors); got < 1 {
		t.Errorf("%s = %v after scraping a dead node, want >= 1", MetricScrapeErrors, got)
	}
	if got := int(snap.Value(MetricShardsCompleted)); final.Shards == nil || got != final.Shards.Completed {
		t.Errorf("own series lost after a failed scrape: %s = %d", MetricShardsCompleted, got)
	}
}

// TestLocalShardUnitSeconds: a shard the coordinator runs itself goes
// through the server's own campaign engine, exactly like a worker's
// shard, so its units land in the coordinator's comptest_unit_seconds.
func TestLocalShardUnitSeconds(t *testing.T) {
	h := newHarness(t, Options{ShardUnits: 1})
	st := h.submit(t, campaignSpec)
	h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone || final.Shards == nil || final.Shards.Local != 4 {
		t.Fatalf("final = %s (%s), shards %+v; want done with 4 local shards", final.State, final.Error, final.Shards)
	}
	var count int64 = -1
	for _, f := range fleetSnap(t, h.url).Families {
		if f.Name == serve.MetricUnitSeconds && len(f.Cells) == 1 && len(f.Cells[0].Labels) == 0 {
			count = f.Cells[0].Count
		}
	}
	if count != 4 {
		t.Errorf("%s count = %d, want 4 (one per locally executed unit)", serve.MetricUnitSeconds, count)
	}
}

// traceURL fetches a terminal job's span NDJSON byte for byte.
func traceURL(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// singleNodeTraceRaw runs the spec on a plain serve.Server and returns
// the raw span NDJSON — the trace byte-identity baseline.
func singleNodeTraceRaw(t *testing.T, spec string) []byte {
	t.Helper()
	s := serve.New(serve.Options{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	streamURL(t, ts.URL, st.ID) // block until terminal
	return traceURL(t, ts.URL, st.ID)
}

// tracedSpec runs the 4-script campaign traced and parallel: spans are
// recorded on the simulated timeline in unit order, so neither
// parallelism nor sharding may change a byte of the trace.
const tracedSpec = `{"kind":"campaign","workbook_name":"central_locking","parallelism":4,"trace":true}`

// TestDistributedTraceByteIdentical is the tracing acceptance pin: a
// traced campaign sharded one unit per shard over two workers must
// deliver a merged span log byte-identical to the single-node run —
// including when one worker is kill-9'd and its shards requeue, where
// the TraceMerger's per-unit dedup keeps re-delivered spans
// exactly-once like result lines, and when the coordinator runs every
// shard itself.
func TestDistributedTraceByteIdentical(t *testing.T) {
	want := singleNodeTraceRaw(t, tracedSpec)
	// 4 units × (unit + init + ≥1 step) + the campaign root.
	if n := bytes.Count(want, []byte("\n")); n < 13 {
		t.Fatalf("baseline trace has %d spans, want >= 13:\n%s", n, want)
	}

	run := func(t *testing.T, h *harness) serve.JobStatus {
		st := h.submit(t, tracedSpec)
		h.streamRaw(t, st.ID)
		final := h.status(t, st.ID)
		if final.State != serve.StateDone || final.Verdict != "green" {
			t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
		}
		if got := traceURL(t, h.url, st.ID); !bytes.Equal(got, want) {
			t.Errorf("distributed trace differs from single-node run:\n got: %s\nwant: %s", got, want)
		}
		return final
	}

	t.Run("fleet", func(t *testing.T) {
		h := newHarness(t, Options{ShardUnits: 1})
		h.startWorker(t, WorkerOptions{Name: "alpha"})
		h.startWorker(t, WorkerOptions{Name: "beta"})
		run(t, h)
	})

	t.Run("requeue", func(t *testing.T) {
		h := newHarness(t, Options{ShardUnits: 1})
		// Registration order makes the corpse the first pick (see
		// TestRequeueOnDeadWorker), so requeues are guaranteed.
		dead := h.startWorker(t, WorkerOptions{Name: "casualty"})
		h.startWorker(t, WorkerOptions{Name: "survivor"})
		dead.Kill()
		final := run(t, h)
		if final.Shards == nil || final.Shards.Requeued < 1 {
			t.Fatalf("no shard was requeued: %+v", final.Shards)
		}
	})

	t.Run("local", func(t *testing.T) {
		// No workers: each shard runs on the coordinator's own engine and
		// its spans take the same re-base as a worker's fetched trace.
		final := run(t, newHarness(t, Options{ShardUnits: 1}))
		if final.Shards == nil || final.Shards.Local != 4 {
			t.Fatalf("want 4 local shards: %+v", final.Shards)
		}
	})
}

// TestLeaseExpiryCounted drives the registry clock and checks the
// dist_lease_expiries_total latch: one silent lapse is one count no
// matter how often liveness is probed, and a heartbeat re-arms it.
func TestLeaseExpiryCounted(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	c := New(Options{LeaseTTL: 10 * time.Second, now: clock})
	defer c.Close()
	resp, err := c.Registry().Register(RegisterRequest{
		URL: "http://w1", Version: version.String(), Protocol: version.Protocol,
	})
	if err != nil {
		t.Fatal(err)
	}
	expiries := func() float64 {
		return c.Metrics().Snapshot().Value(MetricLeaseExpiries)
	}
	if got := expiries(); got != 0 {
		t.Fatalf("fresh worker already counted expired: %v", got)
	}
	advance(11 * time.Second)
	for i := 0; i < 3; i++ { // repeated probes must not re-count the same lapse
		if n := c.Registry().LiveCount(); n != 0 {
			t.Fatalf("live count = %d after lapse", n)
		}
	}
	if got := expiries(); got != 1 {
		t.Errorf("%s = %v after one lapse probed 3x, want 1", MetricLeaseExpiries, got)
	}
	if !c.Registry().Heartbeat(resp.ID) {
		t.Fatal("heartbeat rejected")
	}
	advance(11 * time.Second)
	c.Registry().LiveCount()
	if got := expiries(); got != 2 {
		t.Errorf("%s = %v after revival and second lapse, want 2", MetricLeaseExpiries, got)
	}
}
