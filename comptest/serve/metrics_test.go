package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock returns a deterministic wall clock advancing step per
// call — the injectable seam Options.Now exists for.
func fakeClock(step time.Duration) func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1_000_000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(step)
		return t
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestMetricsEndpoint runs one campaign job and checks the Prometheus
// text exposition end to end: queue/worker gauges, jobs-by-state,
// cache counters, unit throughput and the deterministic latency
// histograms (job duration, queue wait, per-unit execution) driven by
// the injected clock — every read advances it 5 s, so each measured
// window is an exact multiple of 5.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, Now: fakeClock(5 * time.Second)})
	st := ts.submit(t, `{}`)
	reports := len(ts.stream(t, st.ID))
	if reports == 0 {
		t.Fatal("campaign streamed no reports")
	}

	code, body := getBody(t, ts.url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	text := string(body)
	for _, want := range []string{
		MetricWorkers + " 1",
		MetricQueueDepth + " 0",
		MetricQueueCapacity + " 16",
		MetricJobs + `{state="done"} 1`,
		MetricJobs + `{state="running"} 0`,
		MetricCacheMisses + " 1",
		"# TYPE " + MetricJobSeconds + " histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	_, raw := getBody(t, ts.url+"/metrics?format=json")
	snap, err := obs.ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.Value(MetricUnits); got != float64(reports) {
		t.Errorf("%s = %v, want %d", MetricUnits, got, reports)
	}
	if got := snap.Value(MetricStreamBytes); got <= 0 {
		t.Errorf("%s = %v, want > 0", MetricStreamBytes, got)
	}
	cell := func(name string) obs.Cell {
		var c obs.Cell
		for _, f := range snap.Families {
			if f.Name == name {
				c = f.Cells[0]
			}
		}
		return c
	}
	// Every clock read advances the fake by 5 s, and the server reads
	// its clock only at the job's start and finish stamps, so the
	// measured wall time is deterministic: exactly one tick.
	const elapsed = 5.0
	if durs := cell(MetricJobSeconds); durs.Count != 1 || durs.Sum != elapsed {
		t.Errorf("%s count=%d sum=%v, want 1 job of exactly %vs (fake clock)",
			MetricJobSeconds, durs.Count, durs.Sum, elapsed)
	}
	if rate := cell(MetricUnitRate); rate.Count != 1 || rate.Sum != float64(reports)/elapsed {
		t.Errorf("%s count=%d sum=%v, want %v units/s", MetricUnitRate,
			rate.Count, rate.Sum, float64(reports)/elapsed)
	}
	// Acceptance stamp to start stamp is one tick: 5 s of queue wait.
	if qw := cell(MetricQueueWait); qw.Count != 1 || qw.Sum != 5 {
		t.Errorf("%s count=%d sum=%v, want 1 wait of exactly 5s", MetricQueueWait, qw.Count, qw.Sum)
	}
	// Units are timed by the Runner on the real clock (Result.Elapsed):
	// one observation per unit, each well inside the job's fake tick.
	if us := cell(MetricUnitSeconds); us.Count != int64(reports) || !(us.Sum > 0 && us.Sum < elapsed) {
		t.Errorf("%s count=%d sum=%v, want %d units with 0 < sum < %vs",
			MetricUnitSeconds, us.Count, us.Sum, reports, elapsed)
	}
}

// TestUnitSecondsEveryKind: mutate and explore jobs observe every
// unit they stream in comptest_unit_seconds, as campaign jobs do.
func TestUnitSecondsEveryKind(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	lines := 0
	for _, spec := range []string{
		`{"kind":"mutate","dut":"interior_light","parallelism":2}`,
		`{"kind":"explore","budget":4,"seed":1,"parallelism":2}`,
	} {
		lines += bytes.Count(ts.rawStream(t, spec), []byte("\n"))
	}
	_, raw := getBody(t, ts.url+"/metrics?format=json")
	snap, err := obs.ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	count := int64(-1)
	for _, f := range snap.Families {
		if f.Name == MetricUnitSeconds {
			count = f.Cells[0].Count
		}
	}
	if lines == 0 || count != int64(lines) {
		t.Errorf("%s count = %d, want one per streamed line: %d", MetricUnitSeconds, count, lines)
	}
}

// TestHealthzGoldenShape pins the /healthz JSON bytes of a quiet
// server, so the shape clients probe cannot drift silently now that
// the handler reads the metrics registry instead of scanning jobs
// itself.
func TestHealthzGoldenShape(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 3, QueueDepth: 8})
	code, body := getBody(t, ts.url+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	want := `{
  "ok": true,
  "workers": 3,
  "queue_depth": 8,
  "jobs": 0,
  "queued": 0,
  "running": 0,
  "terminal": 0,
  "cache_hits": 0,
  "cache_misses": 0
}
`
	if string(body) != want {
		t.Errorf("healthz golden mismatch\n--- got ---\n%s--- want ---\n%s", body, want)
	}
}

// TestHealthzAgreesWithMetrics cross-checks every /healthz number
// against the /metrics snapshot after real work: both read the same
// func-backed registry cells, so any disagreement is a bug by
// construction.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	ts := newTestServer(t, Options{})
	for i := 0; i < 3; i++ {
		st := ts.submit(t, `{}`)
		ts.wait(t, st.ID)
	}

	_, hb := getBody(t, ts.url+"/healthz")
	var h struct {
		Workers     int   `json:"workers"`
		QueueDepth  int   `json:"queue_depth"`
		Jobs        int   `json:"jobs"`
		Queued      int   `json:"queued"`
		Running     int   `json:"running"`
		Terminal    int   `json:"terminal"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	}
	if err := json.Unmarshal(hb, &h); err != nil {
		t.Fatal(err)
	}
	_, raw := getBody(t, ts.url+"/metrics?format=json")
	snap, err := obs.ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	state := func(s State) int {
		return int(snap.CellValue(MetricJobs, obs.Label{Name: "state", Value: string(s)}))
	}
	if h.Terminal != 3 || h.Jobs != 3 {
		t.Errorf("healthz jobs=%d terminal=%d, want 3/3", h.Jobs, h.Terminal)
	}
	if got := state(StateDone) + state(StateFailed) + state(StateCancelled); got != h.Terminal {
		t.Errorf("terminal: healthz %d, metrics %d", h.Terminal, got)
	}
	if got := int64(snap.Value(MetricCacheHits)); got != h.CacheHits {
		t.Errorf("cache hits: healthz %d, metrics %d", h.CacheHits, got)
	}
	if got := int64(snap.Value(MetricCacheMisses)); got != h.CacheMisses {
		t.Errorf("cache misses: healthz %d, metrics %d", h.CacheMisses, got)
	}
	if got := int(snap.Value(MetricWorkers)); got != h.Workers {
		t.Errorf("workers: healthz %d, metrics %d", h.Workers, got)
	}
	if got := int(snap.Value(MetricQueueCapacity)); got != h.QueueDepth {
		t.Errorf("queue capacity: healthz %d, metrics %d", h.QueueDepth, got)
	}
}

// TestMetricsRegistryInjection: a supplied registry is the one the
// server registers into and returns from Metrics() — the seam the dist
// coordinator uses to add its own dist_* series next to the server's.
func TestMetricsRegistryInjection(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Metrics: reg})
	defer s.Close()
	if s.Metrics() != reg {
		t.Fatal("Metrics() is not the injected registry")
	}
	var sb strings.Builder
	if err := reg.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), MetricWorkers) {
		t.Errorf("injected registry missing %s:\n%s", MetricWorkers, sb.String())
	}
	def := New(Options{})
	defer def.Close()
	if def.Metrics() == nil || def.Metrics() == reg {
		t.Error("default server must build its own private registry")
	}
}
