package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/comptest"
	"repro/comptest/mutation"
	"repro/comptest/serve"
	"repro/internal/report"
	"repro/internal/version"
	"repro/internal/workbooks"
)

// harness couples a Coordinator with its httptest front end.
type harness struct {
	c   *Coordinator
	ts  *httptest.Server
	url string
}

func newHarness(t *testing.T, opts Options) *harness {
	t.Helper()
	c := New(opts)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return &harness{c: c, ts: ts, url: ts.URL}
}

func (h *harness) startWorker(t *testing.T, opts WorkerOptions) *Worker {
	t.Helper()
	opts.Coordinator = h.url
	w, err := StartWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func (h *harness) submit(t *testing.T, spec string) serve.JobStatus {
	t.Helper()
	resp, err := http.Post(h.url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamRaw returns the job's complete NDJSON stream byte for byte; it
// blocks until the job is terminal (the stream only ends then).
func (h *harness) streamRaw(t *testing.T, id string) []byte {
	t.Helper()
	return streamURL(t, h.url, id)
}

func streamURL(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func (h *harness) status(t *testing.T, id string) serve.JobStatus {
	t.Helper()
	resp, err := http.Get(h.url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func (h *harness) workers(t *testing.T) []WorkerInfo {
	t.Helper()
	resp, err := http.Get(h.url + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Workers []WorkerInfo `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Workers
}

// singleNodeRaw runs the spec on a plain single-node serve.Server and
// returns the raw NDJSON stream — the byte-identity baseline.
func singleNodeRaw(t *testing.T, spec string) []byte {
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
	return streamURL(t, ts.URL, st.ID)
}

const campaignSpec = `{"kind":"campaign","workbook_name":"central_locking"}`

// TestDistributedCampaignByteIdentical is the acceptance pin: the
// 4-script central-locking campaign, sharded one unit per shard over
// two workers, merges into a stream byte-identical to the single-node
// run.
func TestDistributedCampaignByteIdentical(t *testing.T) {
	want := singleNodeRaw(t, campaignSpec)
	if n := bytes.Count(want, []byte("\n")); n != 4 {
		t.Fatalf("baseline has %d lines, want 4", n)
	}

	h := newHarness(t, Options{ShardUnits: 1})
	h.startWorker(t, WorkerOptions{Name: "alpha"})
	h.startWorker(t, WorkerOptions{Name: "beta"})

	st := h.submit(t, campaignSpec)
	got := h.streamRaw(t, st.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("distributed stream differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	final := h.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if c := final.Campaign; c == nil || c.Units != 4 || c.Passed != 4 {
		t.Errorf("campaign summary: %+v", c)
	}
	sh := final.Shards
	if sh == nil {
		t.Fatal("no shard summary on a distributed job")
	}
	if sh.Total != 4 || sh.Completed != 4 || sh.Local != 0 || sh.Requeued != 0 {
		t.Errorf("shard summary: %+v", sh)
	}
	if len(sh.Workers) == 0 {
		t.Error("no workers recorded as shard executors")
	}
}

// TestHandshakeRejectsProtocolMismatch: an incompatible worker build
// must fail at registration, not mid-merge.
func TestHandshakeRejectsProtocolMismatch(t *testing.T) {
	h := newHarness(t, Options{})
	_, err := StartWorker(WorkerOptions{Coordinator: h.url, Protocol: 99})
	if err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("protocol 99 accepted: %v", err)
	}
	if n := len(h.workers(t)); n != 0 {
		t.Errorf("rejected worker appears in the registry (%d workers)", n)
	}
}

// TestRestoreDropsOtherProtocolWorkers: a worker journaled by a build
// of another protocol revision is not restored. Its heartbeat gets 404,
// and the re-registration that 404 prompts gets the handshake's 409.
func TestRestoreDropsOtherProtocolWorkers(t *testing.T) {
	stateDir := t.TempDir()
	journal := fmt.Sprintf(`{"t":"worker","info":{"id":"w-0001","url":"http://old","protocol":%d,"capacity":1}}`+"\n"+
		`{"t":"worker","info":{"id":"w-0002","url":"http://new","protocol":%d,"capacity":1}}`+"\n",
		version.Protocol-1, version.Protocol)
	if err := os.WriteFile(journalPath(stateDir), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Options{StateDir: stateDir})
	ws := h.workers(t)
	if len(ws) != 1 || ws[0].ID != "w-0002" {
		t.Fatalf("restored workers %+v, want only w-0002", ws)
	}
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(h.url+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/workers/w-0001/heartbeat", nil); code != http.StatusNotFound {
		t.Errorf("old-protocol worker heartbeat: status %d, want 404", code)
	}
	reg, _ := json.Marshal(RegisterRequest{URL: "http://old", Version: "old", Protocol: version.Protocol - 1})
	if code := post("/v1/workers", reg); code != http.StatusConflict {
		t.Errorf("old-protocol re-registration: status %d, want 409", code)
	}
}

// TestHandshakeCarriesVersion: the registered worker advertises the
// exact internal/version identity string (the same one `comptest
// version` prints), visible in /v1/workers.
func TestHandshakeCarriesVersion(t *testing.T) {
	h := newHarness(t, Options{})
	w := h.startWorker(t, WorkerOptions{Name: "vcheck"})
	ws := h.workers(t)
	if len(ws) != 1 {
		t.Fatalf("got %d workers, want 1", len(ws))
	}
	if ws[0].Version != version.String() {
		t.Errorf("advertised version %q, want %q", ws[0].Version, version.String())
	}
	if ws[0].Protocol != version.Protocol {
		t.Errorf("advertised protocol %d, want %d", ws[0].Protocol, version.Protocol)
	}
	if ws[0].ID != w.ID() || ws[0].State != "live" {
		t.Errorf("worker record wrong: %+v", ws[0])
	}
	if !capable(ws[0].DUTs, "central_locking") || !capable(ws[0].Stands, "paper_stand") {
		t.Errorf("capabilities missing builtins: %+v", ws[0])
	}
}

// TestRequeueOnDeadWorker is the second acceptance pin: kill one of
// two workers (abruptly — its lease is still live, so the coordinator
// will try it), submit a campaign, and the shards routed to the dead
// node must requeue on the survivor; the job completes green and the
// merged stream still matches the single-node bytes.
func TestRequeueOnDeadWorker(t *testing.T) {
	want := singleNodeRaw(t, campaignSpec)

	h := newHarness(t, Options{ShardUnits: 1})
	// The casualty registers FIRST: the least-loaded tie-break follows
	// registration order, so the first shard is guaranteed to be
	// offered to the corpse — the requeue path always fires.
	dead := h.startWorker(t, WorkerOptions{Name: "casualty"})
	h.startWorker(t, WorkerOptions{Name: "survivor"})
	dead.Kill() // no deregistration: the registry still believes it is live

	st := h.submit(t, campaignSpec)
	got := h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged stream after requeue differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	sh := final.Shards
	if sh == nil || sh.Requeued < 1 {
		t.Fatalf("no shard was requeued: %+v", sh)
	}
	if sh.Completed != sh.Total {
		t.Errorf("shards %d/%d completed: %+v", sh.Completed, sh.Total, sh)
	}
	// The casualty must be lost now, and never recorded as an executor.
	for _, w := range h.workers(t) {
		if w.Name == "casualty" && w.State != "lost" {
			t.Errorf("dead worker still %s", w.State)
		}
	}
	for _, id := range sh.Workers {
		if id == dead.ID() {
			t.Errorf("dead worker %s recorded as a shard executor", id)
		}
	}
}

// flakyWorker is a hand-rolled worker-API stub that accepts one shard,
// streams only the first unit's report and then ends the stream — a
// node dying mid-shard AFTER delivering partial results. It drives the
// duplicate-delivery edge: the requeued shard re-delivers unit 0.
type flakyWorker struct {
	mu        sync.Mutex
	firstLine []byte
	jobs      int
	deletes   int
}

func (f *flakyWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.jobs++
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"flaky-1"}`)
	})
	mux.HandleFunc("GET /v1/jobs/flaky-1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		w.Write(f.firstLine)
		// Stream ends here: 1 of N units delivered, then "death".
	})
	mux.HandleFunc("DELETE /v1/jobs/flaky-1", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deletes++
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("GET /v1/jobs/flaky-1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, `{"id":"flaky-1","state":"running"}`)
	})
	return mux
}

// register adds the stub to the coordinator's registry over the real
// handshake endpoint.
func registerStub(t *testing.T, coordURL, stubURL string, capacity int) {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{
		Name: "stub", URL: stubURL, Version: version.String(),
		Protocol: version.Protocol, Capacity: capacity,
	})
	resp, err := http.Post(coordURL+"/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("stub registration: %d %s", resp.StatusCode, msg)
	}
}

// firstUnitLine computes the genuine NDJSON bytes of the campaign's
// first unit by running it locally.
func firstUnitLine(t *testing.T) []byte {
	t.Helper()
	suite, err := comptest.LoadSuiteString(workbooks.CentralLocking)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := suite.GenerateScripts()
	if err != nil {
		t.Fatal(err)
	}
	stand := mutation.DefaultStand("central_locking")
	var buf bytes.Buffer
	r, err := comptest.NewRunner(
		comptest.WithStand(stand),
		comptest.WithDUT("central_locking"),
		comptest.WithSink(comptest.NDJSON(&buf)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Campaign(t.Context(), comptest.Cross(scripts[:1], []string{stand}, "central_locking")); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPartialShardRequeuesExactlyOnce: a worker dies after streaming 1
// of 4 units of a shard; the shard requeues on a real worker, which
// re-delivers everything — and the merge dedups the re-delivered unit
// so the final stream holds each unit exactly once, byte-identical to
// the single-node run.
func TestPartialShardRequeuesExactlyOnce(t *testing.T) {
	want := singleNodeRaw(t, campaignSpec)

	// One shard of 4 units, offered first to the flaky stub.
	h := newHarness(t, Options{ShardUnits: 4})
	flaky := &flakyWorker{firstLine: firstUnitLine(t)}
	stub := httptest.NewServer(flaky.handler())
	defer stub.Close()
	registerStub(t, h.url, stub.URL, 1)
	h.startWorker(t, WorkerOptions{Name: "reliable"})

	st := h.submit(t, campaignSpec)
	got := h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged stream after partial requeue differs:\n got: %s\nwant: %s", got, want)
	}
	if n := bytes.Count(got, []byte("\n")); n != 4 {
		t.Errorf("merged stream has %d lines, want exactly 4 (duplicate dropped)", n)
	}
	if final.Shards == nil || final.Shards.Requeued < 1 {
		t.Errorf("shard summary records no requeue: %+v", final.Shards)
	}
	flaky.mu.Lock()
	jobs := flaky.jobs
	flaky.mu.Unlock()
	if jobs != 1 {
		t.Errorf("flaky worker got %d jobs, want 1 (shard must move to the survivor)", jobs)
	}

	// The /metrics counters and the job's ShardStatus are independent
	// accounts of the same events — they must agree exactly.
	snap := fleetSnap(t, h.url)
	if got := int(snap.Value(MetricShardRequeues)); got != final.Shards.Requeued {
		t.Errorf("%s = %d, want %d (ShardStatus.Requeued)",
			MetricShardRequeues, got, final.Shards.Requeued)
	}
	remote := int(snap.Value(MetricShardsCompleted))
	local := int(snap.Value(MetricShardsLocal))
	if remote+local != final.Shards.Completed || local != final.Shards.Local {
		t.Errorf("shard metrics remote=%d local=%d, want ShardStatus %+v",
			remote, local, final.Shards)
	}
	if got := snap.Value(MetricMergerPending); got != 0 {
		t.Errorf("%s = %v after the merge completed, want 0", MetricMergerPending, got)
	}
}

// hangingWorker accepts a shard and streams nothing until the client
// goes away — a deterministically "stuck" node for cancellation tests.
type hangingWorker struct {
	entered chan struct{} // closed when the stream handler is reached
	once    sync.Once
	mu      sync.Mutex
	deletes int
}

func (f *hangingWorker) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"hang-1"}`)
	})
	mux.HandleFunc("GET /v1/jobs/hang-1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		f.once.Do(func() { close(f.entered) })
		<-r.Context().Done()
	})
	mux.HandleFunc("DELETE /v1/jobs/hang-1", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.deletes++
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

// TestCancelDuringDispatch: cancelling a job whose shard is mid-
// dispatch on a remote worker must (a) terminate the job as
// cancelled, (b) propagate a DELETE to the worker-side job, and (c)
// leave no orphaned shard goroutines behind. Run with -race.
func TestCancelDuringDispatch(t *testing.T) {
	before := runtime.NumGoroutine()

	h := newHarness(t, Options{ShardUnits: 1})
	hang := &hangingWorker{entered: make(chan struct{})}
	stub := httptest.NewServer(hang.handler())
	defer stub.Close()
	registerStub(t, h.url, stub.URL, 1)

	st := h.submit(t, `{"kind":"campaign"}`) // 1 unit → 1 shard, parked on the stub
	<-hang.entered

	req, err := http.NewRequest(http.MethodDelete, h.url+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	h.streamRaw(t, st.ID) // blocks until terminal
	final := h.status(t, st.ID)
	if final.State != serve.StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}

	// Cancel must have reached the worker-side job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hang.mu.Lock()
		deletes := hang.deletes
		hang.mu.Unlock()
		if deletes >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("DELETE never propagated to the worker-side job")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Tear everything down, then the goroutine count must return to
	// (near) the baseline — no orphaned shard dispatchers.
	stub.Close()
	h.ts.Close()
	h.c.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLocalFallbackWithoutWorkers: a coordinator with an empty fleet
// is still a fully working single-node service.
func TestLocalFallbackWithoutWorkers(t *testing.T) {
	want := singleNodeRaw(t, campaignSpec)
	h := newHarness(t, Options{ShardUnits: 2})
	st := h.submit(t, campaignSpec)
	got := h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("local-fallback stream differs from single-node run")
	}
	if sh := final.Shards; sh == nil || sh.Local != sh.Total || sh.Total != 2 {
		t.Errorf("shard summary: %+v", final.Shards)
	}
}

// TestLocalShardsLeaveCampaignStatusToTally: a local campaign shard runs
// serve's engine, which publishes its own shard-local CampaignStatus;
// the job's status seam must only ever see the coordinator's tally
// over all its units. Every ShardStatus the coordinator publishes is a
// block of its own, which later shards never write.
func TestLocalShardsLeaveCampaignStatusToTally(t *testing.T) {
	c := New(Options{ShardUnits: 1})
	defer c.Close()
	wb, err := comptest.BuiltinWorkbook("central_locking")
	if err != nil {
		t.Fatal(err)
	}
	art, err := serve.NewCacheCap(1).Load([]byte(wb))
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		calls  []serve.CampaignStatus
		shards []*serve.ShardStatus
	)
	verdict, err := c.execute(t.Context(), serve.Execution{
		Spec: serve.JobSpec{Kind: serve.KindCampaign, DUT: "central_locking",
			Stand: "full_lab", Parallelism: 1},
		Art: art,
		Log: io.Discard,
		Publish: func(update func(*serve.JobStatus)) {
			var st serve.JobStatus
			update(&st)
			mu.Lock()
			if st.Campaign != nil {
				calls = append(calls, *st.Campaign)
			}
			if st.Shards != nil {
				shards = append(shards, st.Shards)
			}
			mu.Unlock()
		},
	})
	if err != nil || verdict != "green" {
		t.Fatalf("execute = %q, %v", verdict, err)
	}
	want := serve.CampaignStatus{Units: 4, Passed: 4}
	if len(calls) != 1 || calls[0] != want {
		t.Errorf("published campaign summaries = %+v, want exactly [%+v]", calls, want)
	}
	if len(shards) != 5 {
		t.Fatalf("published %d shard summaries, want the initial one and one per shard", len(shards))
	}
	for i, sh := range shards {
		if want := (serve.ShardStatus{Total: 4, Completed: i, Local: i}); !reflect.DeepEqual(*sh, want) {
			t.Errorf("shard summary %d reads %+v, want %+v", i, *sh, want)
		}
	}
}

// TestOpenShardRequeuesExactlyOnce: a mutate, explore or vet job is
// one open-ended shard. Offered first to a worker that delivers one
// line and dies, it requeues — onto a real worker, or for vet (which
// real workers do not take) onto the local executor — whose complete
// re-delivery dedups by line position: the job ends byte-identical to
// a single-node run, with the engine's summary relayed.
func TestOpenShardRequeuesExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		local      int // shards the coordinator must run itself
		summary    func(serve.JobStatus) bool
	}{
		{"mutate", `{"kind":"mutate","workbook_name":"central_locking","dut":"central_locking","parallelism":4}`, 0,
			func(st serve.JobStatus) bool { return st.Mutation != nil && st.Mutation.Killed > 0 }},
		{"explore", `{"kind":"explore","budget":6,"seed":1,"parallelism":4}`, 0,
			func(st serve.JobStatus) bool { return st.Exploration != nil && st.Exploration.Candidates == 6 }},
		{"vet", `{"kind":"vet"}`, 1,
			func(st serve.JobStatus) bool { return st.Vet != nil && st.Vet.Findings > 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := singleNodeRaw(t, tc.spec)
			first, _, ok := bytes.Cut(want, []byte("\n"))
			if !ok || bytes.Count(want, []byte("\n")) < 2 {
				t.Fatalf("baseline too short to lose a worker mid-stream: %q", want)
			}
			h := newHarness(t, Options{})
			flaky := &flakyWorker{firstLine: append(first, '\n')}
			stub := httptest.NewServer(flaky.handler())
			defer stub.Close()
			registerStub(t, h.url, stub.URL, 1) // registered first: offered the job first
			h.startWorker(t, WorkerOptions{Name: "reliable"})

			st := h.submit(t, tc.spec)
			got := h.streamRaw(t, st.ID)
			final := h.status(t, st.ID)
			if final.State != serve.StateDone {
				t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stream after requeue differs from single-node run (%d vs %d bytes)", len(got), len(want))
			}
			if !tc.summary(final) {
				t.Errorf("engine summary not relayed: %+v", final)
			}
			sh := final.Shards
			if sh == nil || sh.Total != 1 || sh.Completed != 1 || sh.Requeued < 1 || sh.Local != tc.local {
				t.Errorf("shard summary: %+v, want 1 shard completed after >= 1 requeue, %d local", sh, tc.local)
			}
			flaky.mu.Lock()
			jobs := flaky.jobs
			flaky.mu.Unlock()
			if jobs != 1 {
				t.Errorf("flaky worker got %d jobs, want 1", jobs)
			}
		})
	}
}

// TestLeaseExpiry drives the registry clock directly: a worker that
// stops heartbeating becomes invisible to acquire (ErrNoWorkers), and
// a heartbeat revives it.
func TestLeaseExpiry(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	reg := newRegistry(10*time.Second, clock)
	resp, err := reg.Register(RegisterRequest{URL: "http://w1", Version: "v", Protocol: version.Protocol})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LeaseMillis != 10_000 {
		t.Errorf("lease = %d ms, want 10000", resp.LeaseMillis)
	}

	ls, _, err := reg.acquire(t.Context(), need{kind: "campaign"}, nil, 0)
	if err != nil || ls.id != resp.ID {
		t.Fatalf("acquire: %v %+v", err, ls)
	}
	reg.release(ls.id)

	mu.Lock()
	now = now.Add(11 * time.Second)
	mu.Unlock()
	if _, _, err := reg.acquire(t.Context(), need{kind: "campaign"}, nil, 0); err != ErrNoWorkers {
		t.Fatalf("expired lease still acquirable: %v", err)
	}
	if n := reg.LiveCount(); n != 0 {
		t.Errorf("live count = %d, want 0", n)
	}

	if !reg.Heartbeat(resp.ID) {
		t.Fatal("heartbeat rejected")
	}
	if _, _, err := reg.acquire(t.Context(), need{kind: "campaign"}, nil, 0); err != nil {
		t.Fatalf("heartbeat did not revive the worker: %v", err)
	}
}

// TestRegistryCapabilityFiltering: a worker advertising a capability
// subset is never picked for work outside it.
func TestRegistryCapabilityFiltering(t *testing.T) {
	reg := newRegistry(time.Minute, nil)
	resp, err := reg.Register(RegisterRequest{
		URL: "http://w1", Version: "v", Protocol: version.Protocol,
		Kinds: []string{"campaign"}, DUTs: []string{"interior_light"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.acquire(t.Context(), need{kind: "mutate", dut: "interior_light"}, nil, 0); err != ErrNoWorkers {
		t.Fatalf("kind mismatch acquired: %v", err)
	}
	if _, _, err := reg.acquire(t.Context(), need{kind: "campaign", dut: "central_locking"}, nil, 0); err != ErrNoWorkers {
		t.Fatalf("dut mismatch acquired: %v", err)
	}
	ls, _, err := reg.acquire(t.Context(), need{kind: "campaign", dut: "interior_light"}, nil, 0)
	if err != nil || ls.id != resp.ID {
		t.Fatalf("matching acquire failed: %v", err)
	}
}

// TestReregisterReplacesGhost: the same URL registering again (a
// restarted worker) must replace the stale record, not duplicate it.
func TestReregisterReplacesGhost(t *testing.T) {
	reg := newRegistry(time.Minute, nil)
	a, _ := reg.Register(RegisterRequest{URL: "http://w1", Version: "v", Protocol: version.Protocol})
	b, _ := reg.Register(RegisterRequest{URL: "http://w1", Version: "v", Protocol: version.Protocol})
	if a.ID == b.ID {
		t.Fatal("re-registration reused the ID")
	}
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].ID != b.ID {
		t.Fatalf("snapshot after re-registration: %+v", snap)
	}
}

// TestScriptsShardSelector pins the serve-side shard selector: a job
// restricted to a script subset runs exactly that subset, in order.
func TestScriptsShardSelector(t *testing.T) {
	h := newHarness(t, Options{})
	st := h.submit(t, `{"kind":"campaign","workbook_name":"central_locking","scripts":["LockUnlock"]}`)
	raw := h.streamRaw(t, st.ID)
	final := h.status(t, st.ID)
	if final.State != serve.StateDone {
		t.Fatalf("final = %s (%s)", final.State, final.Error)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 1 {
		t.Fatalf("subset streamed %d lines, want 1:\n%s", n, raw)
	}
	rep, err := report.DecodeJSON(bytes.TrimSuffix(raw, []byte("\n")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Script != "LockUnlock" {
		t.Errorf("subset ran %q, want LockUnlock", rep.Script)
	}
}
