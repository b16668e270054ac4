package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/comptest"
	"repro/comptest/dist"
	"repro/comptest/mutation"
	"repro/comptest/serve"
	"repro/internal/lint"
	"repro/internal/obs"
)

// interval is the open-loop arrival interval of serve_mixed: 100 jobs/s.
// On a 2-vCPU VM, 200 jobs/s is the knee (the queue overflows now and
// then and the median triples) and 400 jobs/s refuses a fifth of the
// jobs; README.md has the numbers.
const interval = 10 * time.Millisecond

// latencyLimit is the p99 job latency the served mix should meet.
const latencyLimit = 100 * time.Millisecond

const (
	kindCampaign = serve.KindCampaign
	kindMutate   = serve.KindMutate
	kindExplore  = serve.KindExplore
	kindVet      = serve.KindVet
)

var jobKinds = []string{kindCampaign, kindMutate, kindExplore, kindVet}

// serveMixed is the serve_mixed workload: an in-process durable
// coordinator (journal in a temporary directory, the CLI's serve
// defaults: 2 workers, queue 16, shard-units 4) with two workers over
// loopback HTTP, fed an open-loop mix of job kinds from four tenants.
// Submissions call the coordinator's handler directly, so the generator
// holds no client sockets: a job in flight is one goroutine.
type serveMixed struct {
	seed int64

	dir     string
	coord   *dist.Coordinator
	hs      *http.Server
	served  chan struct{}
	workers []*dist.Worker
	handler http.Handler

	books map[string]string
	plans map[string]*comptest.Plan
	refs  map[string]streamRef // campaign job per DUT
	lines map[string]int       // mutate job per DUT; "vet" for the vet job
}

// streamRef is the expected stream of a campaign job.
type streamRef struct {
	digest string
	lines  int
}

func (w *serveMixed) setup(ctx context.Context) error {
	w.books, w.plans = map[string]string{}, map[string]*comptest.Plan{}
	for _, dut := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			return err
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			return err
		}
		if w.plans[dut], err = comptest.Compile(suite); err != nil {
			return err
		}
		w.books[dut] = wb
	}
	var err error
	if w.dir, err = os.MkdirTemp("", "bench-serve-"); err != nil {
		return err
	}
	defaults := serve.Options{Workers: 2, QueueDepth: 16, DefaultParallelism: 1}
	w.coord = dist.New(dist.Options{Serve: defaults, ShardUnits: 4, StateDir: w.dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.coord.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns ErrServerClosed at teardown
	}()
	w.handler = w.coord.Handler()
	w.workers = nil
	for k := 0; k < 2; k++ {
		wk, err := dist.StartWorker(dist.WorkerOptions{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        fmt.Sprintf("bench-%d", k),
			Serve:       defaults,
		})
		if err != nil {
			return err
		}
		w.workers = append(w.workers, wk)
	}
	return nil
}

func (w *serveMixed) teardown() {
	for _, wk := range w.workers {
		wk.Close()
	}
	if w.hs != nil {
		_ = w.hs.Close()
		<-w.served
	}
	if w.coord != nil {
		w.coord.Close()
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
	w.workers, w.hs, w.coord, w.dir = nil, nil, nil, ""
}

// reference computes in-process what each job kind must stream: the
// campaign digest of each workbook on its default stand, and the line
// counts of the mutate and vet jobs.
func (w *serveMixed) reference(ctx context.Context) error {
	w.refs, w.lines = map[string]streamRef{}, map[string]int{}
	for dut, plan := range w.plans {
		hw := &hashWriter{h: sha256.New()}
		runner, err := comptest.NewRunner(comptest.WithSink(comptest.Ordered(comptest.NDJSON(hw))))
		if err != nil {
			return err
		}
		units := plan.Units([]string{mutation.DefaultStand(dut)}, dut)
		if _, err := runner.Campaign(ctx, units); err != nil {
			return err
		}
		w.refs[dut] = streamRef{hex.EncodeToString(hw.h.Sum(nil)), len(units)}
	}
	for _, dut := range []string{"interior_light", "central_locking"} {
		p, err := mutation.Enumerate(dut, "", w.plans[dut].Suite)
		if err != nil {
			return err
		}
		sink := &firstSink{}
		if _, err := mutation.Run(ctx, p, mutation.Options{Sink: sink}); err != nil {
			return err
		}
		w.lines[dut] = sink.n
	}
	res, err := lint.Run(lintSuite(w.plans["central_locking"].Suite), lint.Options{})
	if err != nil {
		return err
	}
	w.lines[kindVet] = len(res.Findings)
	return nil
}

func lintSuite(s *comptest.Suite) *lint.Suite {
	return &lint.Suite{Signals: s.Signals, Statuses: s.Statuses, Tests: s.Tests, Workbook: s.Workbook}
}

// recorder is the ResponseWriter the generator hands the coordinator's
// handler. For streams it keeps only what the checks need — line
// count, digest — and when the first and last lines arrived.
type recorder struct {
	hdr         http.Header
	code        int
	body        bytes.Buffer
	stream      bool
	hash        hash.Hash
	lines       int
	first, last time.Time
}

func (r *recorder) Header() http.Header {
	if r.hdr == nil {
		r.hdr = http.Header{}
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if !r.stream {
		return r.body.Write(p)
	}
	now := time.Now()
	if r.first.IsZero() {
		r.first = now
	}
	r.last = now
	r.lines += bytes.Count(p, []byte{'\n'})
	if r.hash != nil {
		r.hash.Write(p)
	}
	return len(p), nil
}

func (r *recorder) Flush() {}

func (w *serveMixed) call(ctx context.Context, method, path string, body []byte, rec *recorder) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, path, rd)
	if err != nil {
		return err
	}
	w.handler.ServeHTTP(rec, req)
	return nil
}

func (w *serveMixed) spec(j plannedJob) serve.JobSpec {
	spec := serve.JobSpec{Kind: j.Kind, WorkbookName: j.DUT, Tenant: j.Tenant}
	switch {
	case j.Inline:
		spec.WorkbookName, spec.DUT = "", j.DUT
		spec.Workbook = fmt.Sprintf("%s\n# bench %d-%d\n", w.books[j.DUT], w.seed, j.Index)
	case j.Kind == kindExplore:
		spec.Seed, spec.Budget = j.Seed, 4
	}
	spec.Trace = j.Trace
	return spec
}

// do submits one job, follows its stream to the end, reads its final
// status and checks the outputs.
func (w *serveMixed) do(ctx context.Context, j plannedJob, due, sent time.Time) outcome {
	o := outcome{job: j, due: due, sent: sent}
	body, err := json.Marshal(w.spec(j))
	if err != nil {
		o.err = err
		return o
	}
	post := &recorder{}
	if o.err = w.call(ctx, http.MethodPost, "/v1/jobs", body, post); o.err != nil {
		return o
	}
	o.admitted = time.Now()
	if post.code != http.StatusAccepted {
		o.rejected = true
		o.err = fmt.Errorf("%s job %d: submit answered %d: %s", j.Kind, j.Index, post.code,
			strings.TrimSpace(post.body.String()))
		return o
	}
	var st serve.JobStatus
	if o.err = json.Unmarshal(post.body.Bytes(), &st); o.err != nil {
		return o
	}
	stream := &recorder{stream: true}
	if j.Kind == kindCampaign {
		stream.hash = sha256.New()
	}
	if o.err = w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil, stream); o.err != nil {
		return o
	}
	end := time.Now()
	o.first, o.last, o.lines = stream.first, stream.last, stream.lines
	if o.lines == 0 {
		o.first, o.last = end, end
	}
	t0 := time.Now()
	status := &recorder{}
	if o.err = w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil, status); o.err != nil {
		return o
	}
	o.status = time.Since(t0)
	var final serve.JobStatus
	if o.err = json.Unmarshal(status.body.Bytes(), &final); o.err != nil {
		return o
	}
	o.shards = final.Shards
	if o.err = w.check(j, final, stream); o.err == nil && j.Trace {
		trace := &recorder{stream: true}
		if o.err = w.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/trace", nil, trace); o.err == nil && trace.lines == 0 {
			o.err = fmt.Errorf("campaign job %d: empty trace", j.Index)
		}
	}
	return o
}

func (w *serveMixed) check(j plannedJob, st serve.JobStatus, stream *recorder) error {
	if st.State != serve.StateDone || st.Verdict != "green" {
		return fmt.Errorf("%s job %d (%s): state %s, verdict %q, error %q", j.Kind, j.Index, j.DUT, st.State, st.Verdict, st.Error)
	}
	if st.Reports != stream.lines {
		return fmt.Errorf("%s job %d: status counts %d reports, stream had %d lines", j.Kind, j.Index, st.Reports, stream.lines)
	}
	want := 0
	switch j.Kind {
	case kindCampaign:
		ref := w.refs[j.DUT]
		if d := hex.EncodeToString(stream.hash.Sum(nil)); d != ref.digest {
			return fmt.Errorf("campaign job %d (%s): stream digest %s, in-process %s", j.Index, j.DUT, d, ref.digest)
		}
		want = ref.lines
	case kindMutate:
		want = w.lines[j.DUT]
	case kindVet:
		want = w.lines[kindVet]
	case kindExplore:
		if st.Exploration == nil {
			return fmt.Errorf("explore job %d: status has no exploration summary", j.Index)
		}
		want = st.Exploration.Executions
	}
	if stream.lines != want {
		return fmt.Errorf("%s job %d (%s): %d lines, want %d", j.Kind, j.Index, j.DUT, stream.lines, want)
	}
	return nil
}

// counters are the coordinator-side telemetry the round reads before
// the first and after the last job, when nothing is in flight.
type counters struct {
	queueWaitSum, rttSum    float64
	queueWaitN, rttN        int64
	requeues, jbytes, jrecs float64
	hits, misses            float64
	journalSize             int64
}

// ownCell returns the coordinator's own cell of a family in a fleet
// snapshot, skipping the cells scraped from workers.
func ownCell(snap obs.Snapshot, name string) obs.Cell {
	for _, f := range snap.Families {
		if f.Name != name {
			continue
		}
		for _, c := range f.Cells {
			if !slices.ContainsFunc(c.Labels, func(l obs.Label) bool { return l.Name == "worker" }) {
				return c
			}
		}
	}
	return obs.Cell{}
}

func (w *serveMixed) counters(ctx context.Context) (counters, error) {
	var c counters
	m := &recorder{}
	if err := w.call(ctx, http.MethodGet, "/metrics?format=json", nil, m); err != nil {
		return c, err
	}
	snap, err := obs.ParseJSON(m.body.Bytes())
	if err != nil {
		return c, fmt.Errorf("GET /metrics: %w", err)
	}
	qw, rtt := ownCell(snap, serve.MetricQueueWait), ownCell(snap, dist.MetricShardRoundtrip)
	c.queueWaitSum, c.queueWaitN = qw.Sum, qw.Count
	c.rttSum, c.rttN = rtt.Sum, rtt.Count
	c.requeues = ownCell(snap, dist.MetricShardRequeues).Value
	c.jbytes = ownCell(snap, dist.MetricJournalBytes).Value
	c.jrecs = ownCell(snap, dist.MetricJournalRecords).Value

	h := &recorder{}
	if err := w.call(ctx, http.MethodGet, "/healthz", nil, h); err != nil {
		return c, err
	}
	var health struct {
		CacheHits   float64 `json:"cache_hits"`
		CacheMisses float64 `json:"cache_misses"`
	}
	if err := json.Unmarshal(h.body.Bytes(), &health); err != nil {
		return c, fmt.Errorf("GET /healthz: %w", err)
	}
	c.hits, c.misses = health.CacheHits, health.CacheMisses
	fi, err := os.Stat(filepath.Join(w.dir, "journal.ndjson"))
	if err != nil {
		return c, err
	}
	c.journalSize = fi.Size()
	return c, nil
}

// runServe runs one round of serve_mixed.
func runServe(ctx context.Context, cfg roundConfig) (*Round, error) {
	w := &serveMixed{seed: cfg.seed}
	r := newRound(cfg)
	var err error
	r.SetupS, err = timeSetup(ctx, w.setup, w.teardown)
	defer w.teardown()
	if err != nil {
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		r.wrong(err)
	}
	runtime.GC()
	before, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}

	warmN, winN := int(warmup/interval), int(cfg.window/interval)
	if cfg.ops > 0 {
		warmN, winN = 0, cfg.ops
	}
	jobs := planJobs(cfg.seed, warmN+winN)
	start := time.Now().Add(interval)
	var (
		u0, u1       usage
		wStart, wEnd time.Time
	)
	marks := make(chan struct{})
	go func() {
		defer close(marks)
		time.Sleep(time.Until(start.Add(time.Duration(warmN) * interval)))
		u0, wStart = readUsage(), time.Now()
		time.Sleep(time.Until(start.Add(time.Duration(warmN+winN) * interval)))
		u1, wEnd = readUsage(), time.Now()
	}()
	jctx, cancel := context.WithTimeout(ctx, time.Duration(warmN+winN)*interval+90*time.Second)
	defer cancel()
	gen := loadgen{now: time.Now, sleepUntil: sleepUntil}
	outs, peak := gen.run(start, jobs, func(j plannedJob, due, sent time.Time) outcome {
		return w.do(jctx, j, due, sent)
	})
	<-marks
	r.WindowS = wEnd.Sub(wStart).Seconds()
	r.account(u0, u1)

	after, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}
	tally(r, outs, warmN, wStart, wEnd)
	w.fleet(r, outs, before, after, len(jobs))
	r.set("loadgen.inflight_max", "count", float64(peak))

	if cfg.trace {
		tr := newTracer()
		record(tr, outs)
		spans := tr.snapshot()
		serveLayers(r, spans)
		// Every round takes the timestamps the spans are built from; the
		// spans themselves are built after the window, so tracing adds
		// nothing to a job.
		r.set("trace.overhead_share", "ratio", 0)
		books, units := w.anatomy()
		if _, err := sweep(ctx, r, books, units, cfg.reps); err != nil {
			return nil, err
		}
		if err := lintCost(r, w.plans, cfg.reps); err != nil {
			return nil, err
		}
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	r.RSSMiB = peakRSSMiB()
	return r, nil
}

// fleet sets the admission, cache, dispatch and journal metrics from the
// outcomes and the coordinator's telemetry around the round.
func (w *serveMixed) fleet(r *Round, outs []outcome, before, after counters, jobs int) {
	rejected, shards, local, requeued, dispatched := 0, 0, 0, 0, 0
	for _, o := range outs {
		if o.rejected {
			rejected++
		}
		// Vet jobs never leave the coordinator (workers do not take the
		// kind), so the dispatch metrics cover the other kinds.
		if o.shards == nil || o.job.Kind == kindVet {
			continue
		}
		dispatched++
		shards += o.shards.Total
		local += o.shards.Local
		requeued += o.shards.Requeued
	}
	r.set("serve.rejected", "count", float64(rejected))
	if n := after.queueWaitN - before.queueWaitN; n > 0 {
		r.set("serve.queue_wait_ms_mean", "ms", (after.queueWaitSum-before.queueWaitSum)/float64(n)*1e3)
	}
	if lookups := after.hits + after.misses - before.hits - before.misses; lookups > 0 {
		r.set("serve.cache_hit_share", "ratio", (after.hits-before.hits)/lookups)
	}
	if n := after.rttN - before.rttN; n > 0 {
		r.set("dist.shard_rtt_ms_mean", "ms", (after.rttSum-before.rttSum)/float64(n)*1e3)
	}
	if dispatched > 0 {
		r.set("dist.shards_per_job", "count", float64(shards)/float64(dispatched))
		r.set("dist.local_share", "ratio", float64(local)/float64(max(shards, 1)))
	}
	r.set("dist.requeues", "count", after.requeues-before.requeues)
	if requeued != int(after.requeues-before.requeues) {
		r.wrong(fmt.Errorf("jobs report %d requeued shards, %s counts %v", requeued,
			dist.MetricShardRequeues, after.requeues-before.requeues))
	}
	jbytes := after.jbytes - before.jbytes
	if grown := after.journalSize - before.journalSize; float64(grown) != jbytes {
		r.wrong(fmt.Errorf("journal.ndjson grew %d bytes, %s counts %v", grown, dist.MetricJournalBytes, jbytes))
	}
	r.set("dist.journal_bytes_per_job", "B", jbytes/float64(jobs))
	r.set("dist.journal_records_per_job", "count", (after.jrecs-before.jrecs)/float64(jobs))
}

// record turns the jobs' timestamps into spans: the job from its due
// time to its last line, with admission (the POST), the wait for the
// first line and the stream after it as children. The generator's
// lateness and the status read are spans of their own, so the job's
// self time is exactly the time its children do not cover.
func record(tr *tracer, outs []outcome) {
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		i := o.job.Index
		tr.add("loadgen.late", i, 0, o.due, o.sent)
		job := tr.add("serve.job."+o.job.Kind, i, 0, o.due, o.last)
		tr.add("serve.admit", i, job, o.sent, o.admitted)
		tr.add("serve.first_line."+o.job.Kind, i, job, o.admitted, o.first)
		tr.add("serve.stream."+o.job.Kind, i, job, o.first, o.last)
		tr.add("serve.status", i, 0, o.last, o.last.Add(o.status))
	}
}

// serveLayers sets the per-job layer metrics from the spans.
// serve.span_coverage is the share of job time that admission, first
// line and stream account for: one minus the jobs' summed self time
// over their summed duration.
func serveLayers(r *Round, spans []span) {
	st := summarise(spans)
	r.set("serve.admit_us", "us", st["serve.admit"].dur/1e3)
	r.set("serve.status_us", "us", st["serve.status"].dur/1e3)
	var total, self float64
	for _, k := range jobKinds {
		r.set("serve.first_line_ms."+k, "ms", st["serve.first_line."+k].dur/1e6)
		r.set("serve.stream_ms."+k, "ms", st["serve.stream."+k].dur/1e6)
		total += st["serve.job."+k].total
		self += st["serve.job."+k].self
	}
	if total > 0 {
		r.set("serve.span_coverage", "ratio", 1-self/total)
	}
}

// lintCost times lint.Run on each built-in workbook: the vet jobs'
// engine.
func lintCost(r *Round, plans map[string]*comptest.Plan, reps int) error {
	var xs []float64
	for _, dut := range sortedKeys(plans) {
		for k := 0; k < max(reps, 1); k++ {
			t0 := time.Now()
			if _, err := lint.Run(lintSuite(plans[dut].Suite), lint.Options{}); err != nil {
				return err
			}
			xs = append(xs, us(time.Since(t0)))
		}
	}
	r.set("lint.run_us", "us", median(xs))
	return nil
}

// anatomy sweeps the campaign jobs' units: each built-in workbook on its
// default stand.
func (w *serveMixed) anatomy() ([]string, []anatomyUnit) {
	var books []string
	var units []anatomyUnit
	for _, dut := range sortedKeys(w.plans) {
		books = append(books, w.books[dut])
		units = append(units, planUnits(w.plans[dut], []string{mutation.DefaultStand(dut)}, dut)...)
	}
	return books, units
}
