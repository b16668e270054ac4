package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/comptest"
	"repro/comptest/api"
	"repro/comptest/mutation"
	"repro/internal/ecu"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
	"repro/internal/workbooks"
)

// testServer couples a Server with its httptest front end.
type testServer struct {
	s   *Server
	ts  *httptest.Server
	url string
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return &testServer{s: s, ts: ts, url: ts.URL}
}

func (ts *testServer) submit(t *testing.T, spec string) JobStatus {
	t.Helper()
	st, code := ts.submitRaw(t, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", spec, code)
	}
	return st
}

func (ts *testServer) submitRaw(t *testing.T, spec string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.url+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// stream reads the job's full NDJSON stream; it returns once the job
// reached a terminal state (the stream only ends then).
func (ts *testServer) stream(t *testing.T, id string) []*report.Report {
	t.Helper()
	resp, err := http.Get(ts.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream %s: status %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var reps []*report.Report
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		rep, err := report.DecodeJSON(sc.Bytes())
		if err != nil {
			t.Fatalf("stream line %d: %v\n%s", len(reps), err, sc.Text())
		}
		reps = append(reps, rep)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reps
}

func (ts *testServer) status(t *testing.T, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// wait streams the job to completion and returns the terminal status.
func (ts *testServer) wait(t *testing.T, id string) JobStatus {
	t.Helper()
	ts.stream(t, id)
	st := ts.status(t, id)
	if !api.Terminal(st.State) {
		t.Fatalf("job %s not terminal after stream end: %s", id, st.State)
	}
	return st
}

func (ts *testServer) cancel(t *testing.T, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCampaignJobEndToEnd submits the default paper campaign, streams
// its NDJSON report and checks the terminal status.
func TestCampaignJobEndToEnd(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := ts.submit(t, `{}`)
	if st.Kind != KindCampaign || st.DUT != "interior_light" || st.Stand != "paper_stand" {
		t.Fatalf("defaults wrong: %+v", st)
	}
	if st.Workbook == "" {
		t.Error("submit response lacks the artifact hash")
	}

	reps := ts.stream(t, st.ID)
	if len(reps) != 1 {
		t.Fatalf("streamed %d reports, want 1", len(reps))
	}
	if reps[0].Script != "InteriorIllumination" || reps[0].Stand != "paper_stand" || !reps[0].Passed() {
		t.Errorf("streamed report wrong: %s", reps[0].Summary())
	}

	final := ts.status(t, st.ID)
	if final.State != StateDone || final.Verdict != "green" {
		t.Errorf("final status = %s/%s, want done/green", final.State, final.Verdict)
	}
	if final.Reports != 1 {
		t.Errorf("reports = %d, want 1", final.Reports)
	}
	if c := final.Campaign; c == nil || c.Units != 1 || c.Passed != 1 {
		t.Errorf("campaign summary wrong: %+v", c)
	}
}

// TestFaultedCampaignIsRed: a campaign whose DUT carries an injected
// fault completes as done/red, not failed — red runs are data.
func TestFaultedCampaignIsRed(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := ts.submit(t, `{"kind":"campaign","faults":["stuck_off"]}`)
	final := ts.wait(t, st.ID)
	if final.State != StateDone || final.Verdict != "red" {
		t.Errorf("final = %s/%s, want done/red", final.State, final.Verdict)
	}
	if c := final.Campaign; c == nil || c.Failed != 1 {
		t.Errorf("campaign summary: %+v", c)
	}
}

// countingDUT registers central_locking under a name no earlier call
// used, so no stand of it is idle yet, and returns the name with the
// count of stands its instances were attached to: one per stand
// instance built. (Submission validation instantiates the model too,
// but never attaches it.)
var countingDUTs atomic.Int64

type countedLocking struct {
	*ecu.CentralLocking
	attached *atomic.Int64
}

func (l countedLocking) Attach(env *ecu.Env) error {
	l.attached.Add(1)
	return l.CentralLocking.Attach(env)
}

func countingDUT(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("counting_central_locking_%d", countingDUTs.Add(1))
	attached := new(atomic.Int64)
	err := comptest.RegisterDUT(name, func() ecu.ECU { return countedLocking{ecu.NewCentralLocking(), attached} }, workbooks.CentralLocking)
	if err != nil {
		t.Fatal(err)
	}
	return name, attached
}

// TestServedCampaignPoolsStands: a served campaign's units name their
// stand and DUT, so the job reuses one pooled stand for all four
// sequential central_locking units instead of building one each, and a
// second job of the same configuration builds none.
func TestServedCampaignPoolsStands(t *testing.T) {
	name, attached := countingDUT(t)
	ts := newTestServer(t, Options{Workers: 1})
	for job, want := range []int64{1, 0} {
		before := attached.Load()
		st := ts.submit(t, `{"workbook_name":"central_locking","dut":"`+name+`","stand":"full_lab","parallelism":1}`)
		final := ts.wait(t, st.ID)
		if final.State != StateDone || final.Reports != 4 {
			t.Fatalf("job %d: final = %s with %d reports (%s), want done with 4", job, final.State, final.Reports, final.Error)
		}
		if built := attached.Load() - before; built != want {
			t.Errorf("job %d: 4-unit campaign built %d stands, want %d", job, built, want)
		}
	}
}

// TestServedFaultsMatchLocalRunner: a faulted campaign job streams the
// same bytes as a local Runner campaign whose units carry the faults by
// name (Unit.Faults).
func TestServedFaultsMatchLocalRunner(t *testing.T) {
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := comptest.Compile(suite)
	if err != nil {
		t.Fatal(err)
	}
	standName := mutation.DefaultStand("interior_light")
	units := plan.Units([]string{standName}, "interior_light")
	for i := range units {
		units[i].Faults = []string{"stuck_off"}
	}
	var want bytes.Buffer
	r, err := comptest.NewRunner(comptest.WithStand(standName))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Campaign(context.Background(), units, comptest.Ordered(comptest.NDJSON(&want))); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Options{})
	got := ts.rawStream(t, `{"faults":["stuck_off"]}`)
	if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("faulted job stream (%d bytes) differs from the local run (%d bytes)", len(got), want.Len())
	}
}

// TestInlineWorkbookSharedThroughCache submits the same inline
// workbook twice and checks the second hits the artifact cache.
func TestInlineWorkbookSharedThroughCache(t *testing.T) {
	ts := newTestServer(t, Options{})
	spec, err := json.Marshal(JobSpec{Kind: KindCampaign, Workbook: paper.Workbook})
	if err != nil {
		t.Fatal(err)
	}
	st1 := ts.submit(t, string(spec))
	st2 := ts.submit(t, string(spec))
	if st1.Workbook != st2.Workbook {
		t.Errorf("same bytes, different artifact keys: %s != %s", st1.Workbook, st2.Workbook)
	}
	if ts.s.cache.Hits() < 1 {
		t.Errorf("cache hits = %d, want >= 1", ts.s.cache.Hits())
	}
	for _, id := range []string{st1.ID, st2.ID} {
		if final := ts.wait(t, id); final.Verdict != "green" {
			t.Errorf("%s: %s/%s", id, final.State, final.Verdict)
		}
	}
}

// TestConcurrentSubmissionsShareArtifact races identical submissions
// from several goroutines: the workbook must parse once, all jobs must
// complete green. Run with -race.
func TestConcurrentSubmissionsShareArtifact(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 4, QueueDepth: 16})
	spec, err := json.Marshal(JobSpec{Kind: KindCampaign, Workbook: paper.Workbook})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, code := ts.submitRaw(t, string(spec))
			if code != http.StatusAccepted {
				t.Errorf("submit %d: status %d", i, code)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		if final := ts.wait(t, id); final.Verdict != "green" {
			t.Errorf("%s: %s/%s %s", id, final.State, final.Verdict, final.Error)
		}
	}
	if m := ts.s.cache.Misses(); m != 1 {
		t.Errorf("cache misses = %d, want 1 (single-flight parse across submissions)", m)
	}
}

// TestMutateJob runs the interior-light kill matrix as a service job.
func TestMutateJob(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := ts.submit(t, `{"kind":"mutate","dut":"interior_light","parallelism":2}`)
	final := ts.wait(t, st.ID)
	if final.State != StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	m := final.Mutation
	if m == nil || m.Mutants == 0 || m.Killed == 0 || m.Errored != 0 {
		t.Fatalf("mutation summary wrong: %+v", m)
	}
	// The paper suite is known to leave only_fl alive (EXPERIMENTS.md C2).
	if m.Survived == 0 {
		t.Error("expected at least one survivor (only_fl)")
	}
	// Baseline + every mutant run streams through the job log.
	if final.Reports <= m.Mutants {
		t.Errorf("reports = %d, want > mutant count %d", final.Reports, m.Mutants)
	}
}

// TestExploreJob runs a tiny exploration as a service job.
func TestExploreJob(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := ts.submit(t, `{"kind":"explore","budget":4,"seed":1,"parallelism":2}`)
	final := ts.wait(t, st.ID)
	if final.State != StateDone || final.Verdict != "green" {
		t.Fatalf("final = %s/%s (%s)", final.State, final.Verdict, final.Error)
	}
	e := final.Exploration
	if e == nil || e.Candidates != 4 || e.Executions == 0 {
		t.Fatalf("exploration summary wrong: %+v", e)
	}
	if final.Reports == 0 {
		t.Error("exploration streamed no reports")
	}
}

// rawStream submits spec and returns its NDJSON stream once the job is
// done.
func (ts *testServer) rawStream(t *testing.T, spec string) []byte {
	t.Helper()
	st := ts.submit(t, spec)
	resp, err := http.Get(ts.url + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if final := ts.status(t, st.ID); final.State != StateDone {
		t.Fatalf("%s: final = %s (%s)", spec, final.State, final.Error)
	}
	return body
}

// TestJobStreamsStableAcrossParallelism: mutate and explore jobs
// stream in unit order, so the raw NDJSON is byte-identical at every
// parallelism — the property that lets a distributed coordinator dedup
// a requeued job's stream by line position.
func TestJobStreamsStableAcrossParallelism(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 3})
	raw := func(spec string) []byte { return ts.rawStream(t, spec) }
	for _, spec := range []string{
		`{"kind":"mutate","workbook_name":"central_locking","dut":"central_locking","parallelism":%d}`,
		`{"kind":"explore","budget":6,"seed":1,"parallelism":%d}`,
	} {
		want := raw(fmt.Sprintf(spec, 1))
		if len(want) == 0 {
			t.Fatalf("%s streamed nothing", spec)
		}
		for _, par := range []int{4, 8} {
			if got := raw(fmt.Sprintf(spec, par)); !bytes.Equal(got, want) {
				t.Errorf("%s: stream at parallelism %d differs from parallelism 1 (%d vs %d bytes)",
					fmt.Sprintf(spec, par), par, len(got), len(want))
			}
		}
	}
}

// TestMutateStreamsEveryExecutedUnit: a mutate job streams one line per
// executed unit — baseline runs plus every mutant run before its first
// kill — the same bytes as the in-process mutation.Run.
func TestMutateStreamsEveryExecutedUnit(t *testing.T) {
	wb, err := comptest.BuiltinWorkbook("central_locking")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := comptest.LoadSuiteString(wb)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mutation.Enumerate("central_locking", "", suite)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	mat, err := mutation.Run(context.Background(), plan, mutation.Options{
		Parallelism: 4, Sink: comptest.Ordered(comptest.NDJSON(&want))})
	if err != nil {
		t.Fatal(err)
	}
	executed := len(plan.Baseline)
	for _, o := range mat.Outcomes {
		executed += o.Runs
	}
	ts := newTestServer(t, Options{Workers: 2})
	got := ts.rawStream(t, `{"kind":"mutate","workbook_name":"central_locking","dut":"central_locking","parallelism":4}`)
	if lines := bytes.Count(got, []byte("\n")); lines != executed {
		t.Errorf("mutate job streamed %d lines, want one per executed unit: %d", lines, executed)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("mutate job stream (%d bytes) differs from the in-process run (%d bytes)", len(got), want.Len())
	}
}

// cancelObserver fires f once, at the end of the first executed step.
type cancelObserver struct {
	once sync.Once
	f    func()
}

func (o *cancelObserver) RunStarted(*script.Script, float64)                     {}
func (o *cancelObserver) OutputsSampled(time.Duration, int, []stand.OutputState) {}
func (o *cancelObserver) RunFinished(*report.Report)                             {}
func (o *cancelObserver) StepFinished(*script.Step, time.Duration, []stand.OutputState) {
	o.once.Do(o.f)
}

// TestCancelRunningJob cancels a job over the API while its script is
// mid-run: the executed step keeps its verdicts, every remaining check
// is reported SKIP (stand.RunContext semantics), and the job ends in
// the cancelled state. The observer hook makes the timing
// deterministic — the DELETE lands exactly at the end of step 0.
func TestCancelRunningJob(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	ts.s.observe = func(job *Job, unit int) stand.Observer {
		id := job.id
		return &cancelObserver{f: func() {
			if code := ts.cancel(t, id); code != http.StatusAccepted {
				t.Errorf("cancel: status %d", code)
			}
		}}
	}
	st := ts.submit(t, `{"kind":"campaign"}`)
	reps := ts.stream(t, st.ID)

	final := ts.status(t, st.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	if len(reps) != 1 {
		t.Fatalf("streamed %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if !strings.Contains(rep.FatalErr, "context canceled") {
		t.Errorf("fatal = %q, want context cancellation", rep.FatalErr)
	}
	pass, fail, errs, skip := rep.Counts()
	if skip == 0 {
		t.Errorf("no SKIP checks after mid-run cancel: %d/%d/%d/%d", pass, fail, errs, skip)
	}
	if fail != 0 || errs != 0 {
		t.Errorf("cancel must skip, not fail: %d fail, %d error", fail, errs)
	}
	// The paper script has 8 steps; exactly one executed.
	if len(rep.Steps) < 2 {
		t.Fatalf("report has %d steps, want the full skipped tail", len(rep.Steps))
	}
	for _, c := range rep.Steps[0].Checks {
		if c.Verdict != report.Pass {
			t.Errorf("executed step lost its verdict: %+v", c)
		}
	}
	if c := final.Campaign; c == nil || c.Failed != 1 {
		t.Errorf("campaign summary after cancel: %+v", c)
	}
}

// gate blocks campaign execution at the end of the first step until
// released, keeping a job deterministically "running".
type gate struct {
	block   chan struct{}
	entered chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{block: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gate) observer() stand.Observer {
	return &cancelObserver{f: func() {
		g.once.Do(func() { close(g.entered) })
		<-g.block
	}}
}

// TestQueueBackpressureAndLiveStream fills the single-worker,
// depth-one queue: the third submission must be rejected with 503, a
// stream attached to the blocked job must deliver its report after
// release, and the queued job must still run to completion.
func TestQueueBackpressureAndLiveStream(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	g := newGate()
	ts.s.observe = func(job *Job, unit int) stand.Observer {
		if job.id == "job-000001" {
			return g.observer()
		}
		return nil
	}

	first := ts.submit(t, `{"kind":"campaign"}`)
	<-g.entered // job-1 is now mid-script on the only worker
	second := ts.submit(t, `{"kind":"campaign"}`)

	if _, code := ts.submitRaw(t, `{"kind":"campaign"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("third submission: status %d, want 503", code)
	}

	// Attach a live stream to the running job before releasing it.
	type streamed struct {
		reps []*report.Report
	}
	ch := make(chan streamed, 1)
	go func() {
		var s streamed
		s.reps = ts.stream(t, first.ID)
		ch <- s
	}()

	close(g.block)
	got := <-ch
	if len(got.reps) != 1 || !got.reps[0].Passed() {
		t.Errorf("live stream of first job: %d reports", len(got.reps))
	}
	for _, id := range []string{first.ID, second.ID} {
		if final := ts.wait(t, id); final.State != StateDone || final.Verdict != "green" {
			t.Errorf("%s: %s/%s", id, final.State, final.Verdict)
		}
	}
}

// TestCancelQueuedJob cancels a job that is still waiting for a
// worker: it must terminate as cancelled without executing anything.
func TestCancelQueuedJob(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	g := newGate()
	ts.s.observe = func(job *Job, unit int) stand.Observer {
		if job.id == "job-000001" {
			return g.observer()
		}
		return nil
	}
	first := ts.submit(t, `{"kind":"campaign"}`)
	<-g.entered
	queued := ts.submit(t, `{"kind":"campaign"}`)
	if code := ts.cancel(t, queued.ID); code != http.StatusAccepted {
		t.Fatalf("cancel queued: %d", code)
	}
	// The cancelled-while-queued outcome is decided immediately — its
	// status and stream must not hang behind the still-running first
	// job (the worker has not dequeued it yet; the gate is closed).
	if st := ts.status(t, queued.ID); st.State != StateCancelled {
		t.Errorf("state right after cancelling a queued job = %s, want cancelled", st.State)
	}
	if reps := ts.stream(t, queued.ID); len(reps) != 0 {
		t.Errorf("cancelled queued job streamed %d reports", len(reps))
	}
	close(g.block)

	if final := ts.wait(t, queued.ID); final.State != StateCancelled || final.Reports != 0 {
		t.Errorf("queued job: %s with %d reports, want cancelled/0", final.State, final.Reports)
	}
	if final := ts.wait(t, first.ID); final.State != StateDone {
		t.Errorf("first job: %s", final.State)
	}
}

// badSpecs are job specs the submit endpoint rejects with 400, one per
// validation path. FuzzNormalizeSpec seeds its corpus with them.
var badSpecs = []struct {
	name, spec string
}{
	{"malformed JSON", `{`},
	{"unknown field", `{"kindd":"campaign"}`},
	{"unknown kind", `{"kind":"bake"}`},
	{"workbook and workbook_name", `{"workbook":"x","workbook_name":"interior_light"}`},
	{"unknown DUT", `{"dut":"toaster"}`},
	{"unknown stand", `{"stand":"garage"}`},
	{"unknown fault", `{"faults":["bogus"]}`},
	{"faults on mutate", `{"kind":"mutate","faults":["stuck_off"]}`},
	{"oracle on campaign", `{"kind":"campaign","oracle":["only_fl"]}`},
	{"unknown oracle", `{"kind":"explore","oracle":["ghost"]}`},
	{"budget on campaign", `{"kind":"campaign","budget":512}`},
	{"seed on mutate", `{"kind":"mutate","seed":7}`},
	{"unknown workbook name", `{"workbook_name":"toaster"}`},
	{"negative parallelism", `{"parallelism":-1}`},
	{"garbage workbook", `{"workbook":"not a workbook"}`},
	{"scripts on mutate", `{"kind":"mutate","scripts":["InteriorIllumination"]}`},
	{"unknown script in shard selector", `{"kind":"campaign","scripts":["Ghost"]}`},
}

// TestSubmitValidation exercises every 400 path.
func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, tc := range badSpecs {
		if _, code := ts.submitRaw(t, tc.spec); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
}

// TestUnknownStandBody: an unknown stand is rejected with the registry's
// error text, listing the registered stands.
func TestUnknownStandBody(t *testing.T) {
	ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.url+"/v1/jobs", "application/json", strings.NewReader(`{"stand":"garage"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("unknown stand %q (have %v)", "garage", comptest.StandNames())
	if resp.StatusCode != http.StatusBadRequest || len(body) != 1 || body["error"] != want {
		t.Errorf("status %d, body %v; want 400 with error %q", resp.StatusCode, body, want)
	}
}

func TestUnknownJob404(t *testing.T) {
	ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/jobs/ghost", "/v1/jobs/ghost/stream"} {
		resp, err := http.Get(ts.url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}
	if code := ts.cancel(t, "ghost"); code != http.StatusNotFound {
		t.Errorf("DELETE ghost: %d, want 404", code)
	}
}

func TestListAndHealth(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := ts.submit(t, `{}`)
	ts.wait(t, st.ID)

	resp, err := http.Get(ts.url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Errorf("list: %v %+v", err, list)
	}

	resp, err = http.Get(ts.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok": true`)) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	for _, field := range []string{"cache_hits", "cache_misses", "workers", "jobs"} {
		if !bytes.Contains(body, []byte(field)) {
			t.Errorf("healthz lacks %s: %s", field, body)
		}
	}
}

// TestCloseRejectsNewJobs: after Close the API still answers reads but
// refuses work.
func TestCloseRejectsNewJobs(t *testing.T) {
	ts := newTestServer(t, Options{})
	st := ts.submit(t, `{}`)
	ts.wait(t, st.ID)
	ts.s.Close()
	if _, code := ts.submitRaw(t, `{}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close: %d, want 503", code)
	}
	if got := ts.status(t, st.ID); got.State != StateDone {
		t.Errorf("status read after Close: %s", got.State)
	}
	if reps := ts.stream(t, st.ID); len(reps) != 1 {
		t.Errorf("stream replay after Close: %d reports", len(reps))
	}
}

// TestCloseCancelsRunningJobs: shutdown cancels in-flight work; the
// running job ends cancelled with its remaining checks skipped.
func TestCloseCancelsRunningJobs(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	g := newGate()
	s.observe = func(job *Job, unit int) stand.Observer { return g.observer() }

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	<-g.entered
	job := s.job(st.ID)
	if job == nil {
		t.Fatal("job vanished")
	}
	go func() {
		// Close cancels the job's context; only then may the gate open
		// for the step to finish and the worker to drain. Opened any
		// earlier, the job can finish before Close cancels it.
		<-job.ctx.Done()
		close(g.block)
	}()
	s.Close()

	if got := job.Status(); got.State != StateCancelled {
		t.Errorf("state after Close = %s, want cancelled", got.State)
	}
}

// ExampleServer shows the programmatic embedding: submit, stream, read
// the terminal status.
func ExampleServer() {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"campaign"}`))
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()

	stream, _ := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		rep, _ := report.DecodeJSON(sc.Bytes())
		fmt.Println(rep.Summary())
	}
	stream.Body.Close()
	// Output:
	// PASS: InteriorIllumination on paper_stand: 10 checks: 10 pass, 0 fail, 0 error
}

// TestRetentionEvictsTerminalJobs bounds the server's memory: beyond
// the retention bound, the oldest terminal jobs (and their buffered
// logs) are dropped; newer ones survive.
func TestRetentionEvictsTerminalJobs(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	ts.s.mu.Lock()
	ts.s.retention = 1
	ts.s.mu.Unlock()
	var ids []string
	for i := 0; i < 3; i++ {
		st := ts.submit(t, `{}`)
		ts.wait(t, st.ID)
		ids = append(ids, st.ID)
	}
	// The one worker evicts after each job, before it dequeues the
	// next: the third job ran only after the second job's eviction
	// dropped the first.
	resp, err := http.Get(ts.url + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest job %s not evicted (status %d)", ids[0], resp.StatusCode)
	}
	if st := ts.status(t, ids[2]); st.State != StateDone {
		t.Errorf("newest job evicted or broken: %+v", st)
	}
}

// TestSubmitBodyTooLarge: the request-body cap protects the server's
// memory bounds from one oversized POST.
func TestSubmitBodyTooLarge(t *testing.T) {
	ts := newTestServer(t, Options{})
	big := `{"workbook":"` + strings.Repeat("x", 9<<20) + `"}`
	if _, code := ts.submitRaw(t, big); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized spec: status %d, want 413", code)
	}
}

// TestStatusSnapshotIsolated: Status shares the published summary
// blocks instead of copying them, which is sound only because a block
// is never written after it is published. A snapshot taken between two
// publishes — its shard worker list included — still reads the first
// publish after the second.
func TestStatusSnapshotIsolated(t *testing.T) {
	published, resume := make(chan struct{}), make(chan struct{})
	ts := newTestServer(t, Options{Workers: 1, Executor: func(ctx context.Context, ex Execution) (string, error) {
		ex.Publish(func(st *JobStatus) {
			st.Campaign = &CampaignStatus{Units: 2, Passed: 1}
			st.Shards = &ShardStatus{Total: 2, Completed: 1, Workers: []string{"w-0001"}}
		})
		published <- struct{}{}
		<-resume
		ex.Publish(func(st *JobStatus) {
			st.Campaign = &CampaignStatus{Units: 2, Passed: 2}
			st.Shards = &ShardStatus{Total: 2, Completed: 2, Workers: []string{"w-0001", "w-0002"}}
		})
		return "green", nil
	}})
	id := ts.submit(t, `{}`).ID
	<-published
	snap := ts.s.job(id).Status()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	close(resume)
	final := ts.wait(t, id)
	if c, sh := final.Campaign, final.Shards; c == nil || c.Passed != 2 || sh == nil || len(sh.Workers) != 2 {
		t.Fatalf("second publish not shown: %+v %+v", c, sh)
	}
	got, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot changed under a later publish:\n got: %s\nwant: %s", got, want)
	}
}
