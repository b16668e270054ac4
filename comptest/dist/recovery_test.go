package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/comptest"
	"repro/comptest/serve"
	"repro/internal/workbooks"
)

// firstScriptName returns the name of the campaign's first unit — the
// script whose report line is the first line of the merged stream.
func firstScriptName(t *testing.T) string {
	t.Helper()
	suite, err := comptest.LoadSuiteString(workbooks.CentralLocking)
	if err != nil {
		t.Fatal(err)
	}
	scripts, err := suite.GenerateScripts()
	if err != nil {
		t.Fatal(err)
	}
	return scripts[0].Name
}

// waitForJournal polls the state dir's journal until marker appears at
// least count times — the only way a test can know a specific record
// hit the disk before it pulls the plug.
func waitForJournal(t *testing.T, stateDir, marker string, count int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := os.ReadFile(journalPath(stateDir))
		if bytes.Count(data, []byte(marker)) >= count {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never recorded %d × %s:\n%s", count, marker, data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// partialStub plays a worker fleet for the crash test: it completes
// exactly the shard carrying the campaign's FIRST unit (so exactly one
// contiguous line reaches the merger and the journal) and parks every
// other shard in an open, silent stream until the coordinator dies.
type partialStub struct {
	first     string // script name of unit 0
	firstLine []byte // its genuine report line, newline-terminated

	mu   sync.Mutex
	seq  int
	jobs map[string]bool // remote job ID → is-first-unit shard
}

func (p *partialStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec serve.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.seq++
		id := fmt.Sprintf("s-%d", p.seq)
		p.jobs[id] = len(spec.Scripts) > 0 && spec.Scripts[0] == p.first
		p.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, id)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/stream", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		isFirst := p.jobs[r.PathValue("id")]
		p.mu.Unlock()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if isFirst {
			w.Write(p.firstLine)
			return // clean EOF: the shard is complete
		}
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		<-r.Context().Done()
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

// TestCoordinatorCrashRecoveryByteIdentical is the durability
// acceptance pin: a coordinator killed -9 mid-campaign (journal frozen
// with one merged line and four live dispatches) restarts on the same
// state dir, re-adopts what the journal proves done, re-runs the rest,
// and the merged stream is byte-identical to an uninterrupted
// single-node run. A third, clean restart then replays the terminal
// job identically — recovery is idempotent.
func TestCoordinatorCrashRecoveryByteIdentical(t *testing.T) {
	want := singleNodeRaw(t, campaignSpec)
	firstLine, _, ok := bytes.Cut(want, []byte("\n"))
	if !ok {
		t.Fatal("baseline stream has no lines")
	}
	stateDir := t.TempDir()

	stub := &partialStub{
		first:     firstScriptName(t),
		firstLine: append(append([]byte(nil), firstLine...), '\n'),
		jobs:      map[string]bool{},
	}
	sts := httptest.NewServer(stub.handler())
	defer sts.Close()

	// Epoch 1: accept the campaign, dispatch all four shards, merge
	// exactly one unit — then die without a goodbye.
	a := newHarness(t, Options{ShardUnits: 1, StateDir: stateDir})
	registerStub(t, a.url, sts.URL, 4)
	st := a.submit(t, campaignSpec)
	waitForJournal(t, stateDir, `"t":"dispatch"`, 4)
	waitForJournal(t, stateDir, `"t":"line"`, 1)
	a.c.journal.kill() // freeze the on-disk journal exactly as kill -9 would
	a.ts.Close()
	a.c.Close()
	sts.Close() // the stub node dies during the outage too

	// Epoch 2: same state dir, fresh fleet. ShardUnits deliberately
	// differs from epoch 1 — the recovered job must re-chunk at the
	// shard size PINNED in its plan record, or the journaled dispatch
	// addresses and the flushed-line floor would misalign.
	b := newHarness(t, Options{ShardUnits: 3, StateDir: stateDir})
	b.startWorker(t, WorkerOptions{Name: "phoenix"})

	got := streamURL(t, b.url, st.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("recovered stream differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	final := b.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	if !final.Recovered {
		t.Error("recovered job not flagged Recovered")
	}
	if c := final.Campaign; c == nil || c.Units != 4 || c.Passed != 4 {
		t.Errorf("campaign summary after recovery: %+v", c)
	}
	sh := final.Shards
	if sh == nil || sh.Total != 4 || sh.Completed != 4 {
		t.Fatalf("shard summary after recovery: %+v", sh)
	}
	// The three unfinished shards all held dispatch addresses on the
	// dead stub: each re-adoption fails and requeues onto the new path.
	if sh.Requeued < 3 {
		t.Errorf("requeued %d shards, want >= 3 (stale adoptions): %+v", sh.Requeued, sh)
	}
	snap := fleetSnap(t, b.url)
	if got := snap.Value(MetricJobsRecovered); got < 1 {
		t.Errorf("%s = %v, want >= 1", MetricJobsRecovered, got)
	}

	// Epoch 3: clean shutdown, third replay — terminal history must
	// come back byte-identical without re-running anything.
	b.ts.Close()
	b.c.Close()
	h3 := newHarness(t, Options{StateDir: stateDir})
	if got := streamURL(t, h3.url, st.ID); !bytes.Equal(got, want) {
		t.Errorf("second recovery replays a different stream:\n got: %s\nwant: %s", got, want)
	}
	f3 := h3.status(t, st.ID)
	if f3.State != serve.StateDone || f3.Verdict != "green" || !f3.Recovered {
		t.Errorf("second recovery status = %s/%s recovered=%v", f3.State, f3.Verdict, f3.Recovered)
	}
	if c := f3.Campaign; c == nil || c.Units != 4 || c.Passed != 4 {
		t.Errorf("campaign summary after second recovery: %+v", c)
	}
}

// retainStub plays a worker that RETAINS its shard job across the
// coordinator outage: under the first coordinator the stream hangs
// (delivering nothing); once the gate opens, a re-attached stream
// delivers the whole shard. It counts submissions so the test can
// prove re-adoption never re-POSTs.
type retainStub struct {
	gate chan struct{}
	body []byte

	mu   sync.Mutex
	jobs int
}

func (p *retainStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.jobs++
		p.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"ret-1"}`)
	})
	mux.HandleFunc("GET /v1/jobs/ret-1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		select {
		case <-p.gate:
			w.Write(p.body)
		case <-r.Context().Done():
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/ret-1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

// TestRecoveryReadoptsRetainedShard: the worker outlives the
// coordinator. On restart the shard's journaled dispatch address still
// answers, so the coordinator re-attaches to the retained job's stream
// — no second submission, no re-execution — and the job completes
// byte-identical with ShardStatus.Readopted accounting the save.
func TestRecoveryReadoptsRetainedShard(t *testing.T) {
	want := singleNodeRaw(t, campaignSpec)
	stateDir := t.TempDir()

	stub := &retainStub{gate: make(chan struct{}), body: want}
	sts := httptest.NewServer(stub.handler())
	defer sts.Close()

	// One shard covering all four units, parked on the stub.
	a := newHarness(t, Options{ShardUnits: 8, StateDir: stateDir})
	registerStub(t, a.url, sts.URL, 1)
	st := a.submit(t, campaignSpec)
	waitForJournal(t, stateDir, `"t":"dispatch"`, 1)
	a.c.journal.kill()
	a.ts.Close()
	a.c.Close()

	// During the outage the worker finishes the shard and retains it.
	close(stub.gate)

	b := newHarness(t, Options{StateDir: stateDir})
	got := streamURL(t, b.url, st.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("re-adopted stream differs from single-node run:\n got: %s\nwant: %s", got, want)
	}
	final := b.status(t, st.ID)
	if final.State != serve.StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	sh := final.Shards
	if sh == nil || sh.Readopted != 1 || sh.Completed != 1 || sh.Total != 1 {
		t.Errorf("shard summary: %+v, want 1 shard re-adopted", sh)
	}
	stub.mu.Lock()
	jobs := stub.jobs
	stub.mu.Unlock()
	if jobs != 1 {
		t.Errorf("worker saw %d submissions, want 1 (re-adoption must not re-POST)", jobs)
	}
	snap := fleetSnap(t, b.url)
	if got := snap.Value(MetricShardsReadopted); got < 1 {
		t.Errorf("%s = %v, want >= 1", MetricShardsReadopted, got)
	}
	if got := snap.Value(MetricJobsRecovered); got < 1 {
		t.Errorf("%s = %v, want >= 1", MetricJobsRecovered, got)
	}
}

// TestRecoveryResumesOpenShard: a mutate job — one open-ended shard —
// crashed with three lines journaled while its dispatch address points
// at a worker that no longer exists. The restarted coordinator fails
// the re-adoption, requeues the shard (here onto its own executor, the
// fleet being empty), and the full re-delivery dedups below the
// journaled floor: the stream is byte-identical to a single-node run.
func TestRecoveryResumesOpenShard(t *testing.T) {
	const spec = `{"kind":"mutate","workbook_name":"central_locking","dut":"central_locking","parallelism":4}`
	want := singleNodeRaw(t, spec)
	stateDir := t.TempDir()

	// Epoch 0 journals the accepted job and its lines; its records are
	// then cut back to the state a crash three lines in would leave.
	a := newHarness(t, Options{StateDir: stateDir})
	st := a.submit(t, spec)
	if got := a.streamRaw(t, st.ID); !bytes.Equal(got, want) {
		t.Fatalf("uninterrupted coordinator run differs from single-node run")
	}
	a.ts.Close()
	a.c.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close()
	raw, err := os.ReadFile(journalPath(stateDir))
	if err != nil {
		t.Fatal(err)
	}
	var crashed bytes.Buffer
	lines := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var rec journalRec
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		switch {
		case rec.T == "job":
			crashed.Write(line)
			fmt.Fprintf(&crashed, `{"t":"dispatch","job":%q,"shard":0,"worker":"w-0001","url":%q,"remote":"job-000001"}`+"\n",
				st.ID, gone.URL)
		case rec.T == "line" && lines < 3:
			crashed.Write(line)
			lines++
		}
	}
	if lines != 3 {
		t.Fatalf("journal held %d line records, want 3", lines)
	}
	if err := os.WriteFile(journalPath(stateDir), crashed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	b := newHarness(t, Options{StateDir: stateDir})
	if got := streamURL(t, b.url, st.ID); !bytes.Equal(got, want) {
		t.Errorf("resumed stream differs from single-node run (%d vs %d bytes)", len(got), len(want))
	}
	final := b.status(t, st.ID)
	if final.State != serve.StateDone || !final.Recovered {
		t.Fatalf("final = %s/%s recovered=%v (%s)", final.State, final.Verdict, final.Recovered, final.Error)
	}
	if m := final.Mutation; m == nil || m.Killed == 0 {
		t.Errorf("mutation summary after recovery: %+v", m)
	}
	if sh := final.Shards; sh == nil || sh.Total != 1 || sh.Requeued != 1 || sh.Local != 1 {
		t.Errorf("shard summary: %+v, want the stale adoption requeued onto the local executor", sh)
	}
}

// TestJournalTruncatedTail: a record torn mid-append by the crash is
// discarded when — and only when — it is the journal's final line.
// The same bytes mid-file are corruption and must fail loudly, with
// the line number.
func TestJournalTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := journalPath(dir)
	rec := func(s string) string { return s + "\n" }
	good := rec(`{"t":"job","job":"job-0001","spec":{"kind":"campaign","workbook_name":"central_locking"},"workbook":"wb"}`) +
		rec(`{"t":"line","job":"job-0001","line":"l0"}`)
	torn := `{"t":"line","job":"job-0001","line":"l1`

	if err := os.WriteFile(path, []byte(good+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := replayJournal(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	j := st.jobs["job-0001"]
	if j == nil || len(j.lines) != 1 || string(j.lines[0]) != "l0\n" {
		t.Fatalf("replayed job wrong: %+v", j)
	}

	if err := os.WriteFile(path, []byte(good+torn+"\n"+rec(`{"t":"done","job":"job-0001"}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replayJournal(path); err == nil || !strings.Contains(err.Error(), ":3") {
		t.Fatalf("mid-file corruption at line 3 not surfaced: %v", err)
	}
}

// TestJournalCompactionIdempotent: opening the journal folds and
// rewrites it as a snapshot; opening the snapshot again must rewrite
// the identical bytes (recovery is a fixed point), with the torn tail
// gone and requeued dispatch addresses erased.
func TestJournalCompactionIdempotent(t *testing.T) {
	dir := t.TempDir()
	path := journalPath(dir)
	rec := func(s string) string { return s + "\n" }
	raw := rec(`{"t":"worker","info":{"id":"w-0007","url":"http://w7","capacity":2}}`) +
		rec(`{"t":"job","job":"job-0001","spec":{"kind":"campaign","workbook_name":"central_locking"},"workbook":"wb"}`) +
		rec(`{"t":"plan","job":"job-0001","shard_units":2}`) +
		rec(`{"t":"dispatch","job":"job-0001","shard":0,"worker":"w-0007","url":"http://w7","remote":"r-1"}`) +
		rec(`{"t":"dispatch","job":"job-0001","shard":2,"worker":"w-0007","url":"http://w7","remote":"r-2"}`) +
		rec(`{"t":"requeue","job":"job-0001","shard":2}`) +
		rec(`{"t":"line","job":"job-0001","line":"l0"}`) +
		`{"t":"line","jo` // torn tail
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}

	st1, jnl1, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl1.close()
	j := st1.jobs["job-0001"]
	if j == nil || j.shardUnits != 2 || len(j.lines) != 1 {
		t.Fatalf("folded job wrong: %+v", j)
	}
	if _, ok := j.dispatches[0]; !ok {
		t.Error("surviving dispatch for shard 0 lost")
	}
	if _, ok := j.dispatches[2]; ok {
		t.Error("requeued dispatch for shard 2 survived the fold")
	}
	snap1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap1, []byte(`"jo`+"\n")) || bytes.Contains(snap1, []byte(`"shard":2`)) {
		t.Errorf("snapshot kept dead records:\n%s", snap1)
	}

	st2, jnl2, err := openJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl2.close()
	snap2, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("second compaction rewrote different bytes:\n first: %s\nsecond: %s", snap1, snap2)
	}
	if len(st2.jobs) != 1 || len(st2.workers) != 1 {
		t.Errorf("second replay folded %d jobs / %d workers, want 1/1", len(st2.jobs), len(st2.workers))
	}
}

// statusBody returns GET /v1/jobs/{id} byte for byte.
func statusBody(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of %s: %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// TestRestoredStatusIdentical: a terminal job comes back from the
// journal with its status whole. For each job kind — a campaign in two
// shards over a worker, and the one open-ended shard of mutate, explore
// (both on the worker) and vet (on the coordinator) — the status body
// served after a restart is the body served before it, byte for byte,
// but for "recovered": true.
func TestRestoredStatusIdentical(t *testing.T) {
	stateDir := t.TempDir()
	a := newHarness(t, Options{ShardUnits: 2, StateDir: stateDir})
	a.startWorker(t, WorkerOptions{Name: "keeper"})
	specs := []string{
		campaignSpec,
		`{"kind":"mutate","workbook_name":"central_locking","dut":"central_locking","parallelism":2}`,
		`{"kind":"explore","budget":4,"seed":1,"parallelism":2}`,
		`{"kind":"vet"}`,
	}
	ids := make([]string, len(specs))
	before := make([][]byte, len(specs))
	for i, spec := range specs {
		ids[i] = a.submit(t, spec).ID
		a.streamRaw(t, ids[i]) // ends once the job is terminal
		before[i] = statusBody(t, a.url, ids[i])
	}
	// Close drains the server's workers, so every job's terminal status
	// is in the journal before the restart.
	a.ts.Close()
	a.c.Close()

	b := newHarness(t, Options{StateDir: stateDir})
	recovered := []byte(",\n  \"recovered\": true\n}")
	for i, spec := range specs {
		var st serve.JobStatus
		if err := json.Unmarshal(before[i], &st); err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone || st.Shards == nil || st.Shards.Completed != st.Shards.Total {
			t.Errorf("%s: finished as %s", spec, before[i])
			continue
		}
		after := statusBody(t, b.url, ids[i])
		want := append(bytes.TrimSuffix(before[i], []byte("\n}\n")), recovered...)
		want = append(want, '\n')
		if !bytes.Equal(after, want) {
			t.Errorf("%s: restored status differs\n got: %s\nwant: %s", spec, after, want)
		}
	}
}
