package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/comptest"
	"repro/comptest/api"
	"repro/comptest/explore"
	"repro/comptest/mutation"
	"repro/internal/lint"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stand"
)

// Options configures a Server. Zero values select the defaults.
type Options struct {
	// Workers is the number of jobs executed concurrently (default 2).
	// Parallelism *within* a job is the job spec's own knob.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs
	// (default 16). A full queue rejects submissions with 503 —
	// admission control instead of unbounded buffering.
	QueueDepth int
	// DefaultParallelism is the per-job worker-pool bound applied when
	// a spec leaves Parallelism at 0 (default 1 — fully deterministic).
	DefaultParallelism int
	// Executor, when non-nil, replaces the built-in local engines: a
	// dequeued job is handed to it instead of being run in-process.
	// This is the seam the distributed coordinator (comptest/dist)
	// plugs into — the queue, admission control, result log, status
	// and stream API are unchanged; only WHERE the units execute
	// moves. An Executor that wants the local behaviour for some jobs
	// calls Server.ExecuteLocal.
	Executor Executor
	// Metrics is the registry the server's telemetry registers into;
	// nil builds a private one. Passing a shared registry lets an
	// embedding process (the dist coordinator, the CLI's -metrics-addr
	// listener) expose its own series alongside the server's.
	Metrics *obs.Registry
	// Now is the wall clock used for job-duration telemetry; nil means
	// obs.Wall. Injectable so tests pin durations and the deterministic
	// layers never read time.Now themselves.
	Now func() time.Time
	// Logger, when non-nil, receives the server's structured events
	// (job lifecycle, unit failures) in addition to the per-job event
	// ring every job always has. The serve CLI wires this to stderr via
	// -log-format; embedding processes pass their own.
	Logger *slog.Logger
	// Objectives are the SLOs GET /slo evaluates by default; nil means
	// DefaultObjectives. A request overrides both with ?objective=.
	Objectives []obs.Objective
	// Hooks observe job lifecycle and result persistence; the zero
	// value observes nothing. The durable coordinator (comptest/dist)
	// journals through these.
	Hooks Hooks
	// Quota, when any bound is set, layers per-tenant admission control
	// on top of the queue's 503: a tenant over its active-job or
	// submission-rate budget is rejected with 429 and a Retry-After
	// hint. Tenancy is the JobSpec.Tenant field; the empty tenant is an
	// account like any other.
	Quota QuotaOptions
}

// Hooks are the server's persistence seam: callbacks fired at the
// three points a durable layer must observe to rebuild a server's
// state by replay. All callbacks may be invoked concurrently (from
// handler and worker goroutines) and must not call back into the
// Server. Jobs installed via Restore do NOT fire Accepted, and their
// preloaded lines do not fire Line — replay must not re-journal
// history.
type Hooks struct {
	// Accepted fires once per admitted job, after it is visible and
	// enqueued. workbook is the resolved workbook text (the bytes the
	// artifact was built from).
	Accepted func(id string, spec JobSpec, workbook string)
	// Line fires once per NDJSON line appended to a job's result log,
	// in append order per job.
	Line func(id string, line []byte)
	// Finished fires once when a job reaches a terminal state, with
	// its final status snapshot.
	Finished func(st JobStatus)
}

// Executor runs one job to completion, streaming NDJSON result lines
// to ex.Log and reporting summaries through ex.Publish. The returned
// verdict ("green"/"red") applies when err is nil; ctx cancellation
// must stop the work (the server maps it to the cancelled state).
type Executor func(ctx context.Context, ex Execution) (verdict string, err error)

// Execution is everything an Executor needs to run one job. Log
// receives exactly one Write per NDJSON line (the comptest.NDJSON
// contract); Publish is the job's one status seam.
type Execution struct {
	// ID is the job's server-assigned identifier ("job-000042"). A
	// persistent Executor (the durable dist coordinator) keys its
	// journal records on it; empty for direct ExecuteLocal callers.
	ID   string
	Spec JobSpec
	Art  *Artifact
	Log  io.Writer

	// Publish applies update to the job's summary under the job's
	// lock. update sets summary blocks (Campaign, Mutation,
	// Exploration, Vet, Shards) and nothing else: the job's state,
	// verdict and identity are the server's. It may be called any
	// number of times; the last block set of each kind wins. A
	// published block is never written again — each publish sets a
	// freshly built one — so status snapshots share blocks instead of
	// copying them. The server always sets it; ExecuteLocal reads nil
	// as publishing nothing.
	Publish func(update func(*JobStatus))

	// Observer, when non-nil, supplies a per-unit trace observer for
	// campaign executions (the server's test hook, threaded through so
	// a custom Executor's local fallback keeps the same seam).
	Observer func(unit int) stand.Observer

	// Trace, when non-nil, receives the campaign's structured span
	// NDJSON (report.SpanWriter framing: one Write per span line). Set
	// for jobs submitted with "trace": true; GET /v1/jobs/{id}/trace
	// follows it.
	Trace io.Writer

	// Logger carries the job's correlation attrs (at least "job");
	// events logged through it land in the job's event ring and, when
	// configured, the process log. The distributed coordinator adds
	// shard/worker attrs per dispatch. Never nil for jobs the server
	// runs; custom callers of ExecuteLocal may leave it nil.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = 2
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 16
	}
	if o.DefaultParallelism < 1 {
		o.DefaultParallelism = 1
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Now == nil {
		o.Now = obs.Wall
	}
	return o
}

const (
	// defaultRetention is the number of terminal jobs a server keeps
	// (see Server.retention).
	defaultRetention = 256
	// eventBuffer bounds each job's structured-event ring. Older events
	// are dropped, and the drop count surfaces on
	// GET /v1/jobs/{id}/events.
	eventBuffer = 256
)

// Server is the campaign-execution service: a bounded job queue, a
// fixed worker pool and the HTTP API over both. Create with New,
// expose via Handler, stop with Close.
type Server struct {
	opts  Options
	cache *Cache
	// retention bounds the terminal jobs kept for status/stream reads
	// (defaultRetention). When exceeded, the oldest terminal jobs — and
	// their buffered result logs — are evicted, so a long-lived server
	// does not grow without bound. Queued and running jobs are never
	// evicted. Read under mu.
	retention int

	ctx    context.Context // root of every job context
	cancel context.CancelFunc
	queue  chan *Job
	wg     sync.WaitGroup

	metrics        *obs.Registry
	now            func() time.Time
	busy           atomic.Int64 // workers currently executing a job
	units          *obs.Counter
	streamBytes    *obs.Counter
	jobSeconds     *obs.Histogram
	unitRate       *obs.Histogram
	queueWait      *obs.Histogram
	unitSeconds    *obs.Histogram
	mQuotaRejected *obs.Counter

	quota *quotaState

	mu     sync.Mutex
	jobs   map[string]*Job // guarded by mu
	order  []string        // submission order, for GET /v1/jobs; guarded by mu
	seq    int             // guarded by mu
	closed bool            // guarded by mu

	// observe, when non-nil, attaches a per-unit observer to campaign
	// jobs. Test hook: lets tests synchronise with a running script
	// (e.g. cancel after the first step) without timing races.
	observe func(job *Job, unit int) stand.Observer
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		cache:     NewCache(),
		retention: defaultRetention,
		ctx:       ctx,
		cancel:    cancel,
		queue:     make(chan *Job, opts.QueueDepth),
		jobs:      map[string]*Job{},
		metrics:   opts.Metrics,
		now:       opts.Now,
		quota:     newQuotaState(opts.Quota),
	}
	s.registerMetrics(s.metrics)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	return s
}

// Close cancels every queued and running job and waits for the
// workers to drain. The Handler keeps answering status/stream reads
// after Close; submissions are rejected.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	close(s.queue)
	s.wg.Wait()
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.HandleFunc("GET /slo", s.handleSLO)
	return mux
}

// ------------------------------------------------------------- handlers --

// maxSpecBytes caps the POST /v1/jobs body — generous for any real
// inline workbook (the paper's is ~4 KiB) while keeping a single
// request from defeating the server's memory bounds.
const maxSpecBytes = 8 << 20

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The status is already committed; an encode failure here can only
	// mean a dead client.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit validates the spec, resolves the workbook through the
// artifact cache (the hot path: identical bytes skip parse+generate),
// and enqueues the job. 400 on an invalid spec, 503 on a full queue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	// The queue, the retention bound and the cache cap all bound
	// memory — an unbounded request body would defeat all three.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"job spec exceeds %d bytes", int64(maxSpecBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	wb, err := normalizeSpec(&spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", trimPrefix(err))
		return
	}
	if spec.Parallelism == 0 {
		spec.Parallelism = s.opts.DefaultParallelism
	}
	// Per-tenant admission control sits before the expensive work
	// (workbook parse, validation): a tenant over budget must not burn
	// server CPU. The reserved slot is released when the job finishes —
	// or right here if a later validation step rejects the submission.
	quotaDone, retryAfter, ok := s.quota.admit(spec.Tenant, s.now())
	if !ok {
		s.mQuotaRejected.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		writeError(w, http.StatusTooManyRequests,
			"tenant %q over quota; retry in %s", spec.Tenant, retryAfter.Round(time.Millisecond))
		return
	}
	admitted := false
	defer func() {
		if !admitted {
			quotaDone()
		}
	}()
	// Validate the execution targets up front so a typo fails the
	// submission, not the job: stand profile, DUT model, fault and
	// oracle names.
	if err := comptest.CheckStand(spec.Stand); err != nil {
		writeError(w, http.StatusBadRequest, "%s", trimPrefix(err))
		return
	}
	if err := comptest.CheckFaults(spec.DUT, spec.Faults...); err != nil {
		writeError(w, http.StatusBadRequest, "%s", trimPrefix(err))
		return
	}
	for _, f := range spec.Oracle {
		if err := comptest.CheckFaults(spec.DUT, f); err != nil {
			writeError(w, http.StatusBadRequest, "oracle: %s", trimPrefix(err))
			return
		}
	}
	art, err := s.cache.Load([]byte(wb))
	if err != nil {
		writeError(w, http.StatusBadRequest, "workbook: %s", trimPrefix(err))
		return
	}
	// Shard selectors must name real scripts; failing the submission
	// beats failing the job after it was queued.
	if _, err := art.Select(spec.Scripts); err != nil {
		writeError(w, http.StatusBadRequest, "%s", trimPrefix(err))
		return
	}

	jobCtx, jobCancel := context.WithCancel(s.ctx)
	job := &Job{
		spec:   spec,
		art:    art,
		log:    newResultLog(),
		events: newEventRing(eventBuffer),
		ctx:    jobCtx,
		cancel: jobCancel,
		state:  StateQueued,
	}
	if spec.Trace {
		job.trace = newResultLog()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		jobCancel()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	// Capacity is checked (not raced) under mu: every queue send
	// happens under this lock, so a non-full queue accepts without
	// blocking — which lets the Accepted hook fire before the job can
	// possibly run, keeping the journal's record order causal.
	if len(s.queue) == cap(s.queue) {
		s.mu.Unlock()
		jobCancel()
		writeError(w, http.StatusServiceUnavailable,
			"job queue full (%d queued); retry later", s.opts.QueueDepth)
		return
	}
	s.seq++
	job.id = fmt.Sprintf("job-%06d", s.seq)
	job.submitted = s.now()
	// The logger must exist before the job is visible to a worker: it
	// tees each event into the job's ring and the process log, tagged
	// with the job's correlation attr.
	var procHandler slog.Handler
	if s.opts.Logger != nil {
		procHandler = s.opts.Logger.Handler()
	}
	job.logger = slog.New(obs.Fanout(
		slog.NewJSONHandler(job.events, nil), procHandler)).With("job", job.id)
	job.log.onAppend = func(line []byte) {
		s.noteLine(len(line))
		if h := s.opts.Hooks.Line; h != nil {
			h(job.id, line)
		}
	}
	job.onFinish = func() {
		quotaDone()
		if h := s.opts.Hooks.Finished; h != nil {
			h(job.Status())
		}
	}
	if h := s.opts.Hooks.Accepted; h != nil {
		h(job.id, spec, wb)
	}
	s.queue <- job
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	admitted = true
	s.mu.Unlock()

	job.logger.Info("job accepted", "kind", spec.Kind, "workbook", art.Key,
		"stand", spec.Stand, "dut", spec.DUT, "trace", spec.Trace, "tenant", spec.Tenant)
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// evictTerminal drops the oldest terminal jobs beyond the retention
// bound. Called after each job finishes; queued/running jobs are
// exempt, so the map stays bounded by retention + queue + workers.
func (s *Server) evictTerminal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, id := range s.order {
		if api.Terminal(s.jobs[id].currentState()) {
			terminal++
		}
	}
	if terminal <= s.retention {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		if terminal > s.retention && api.Terminal(s.jobs[id].currentState()) {
			delete(s.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	statuses := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.jobs[id].Status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{statuses})
}

// handleCancel cancels a queued or running job. Cancelling a terminal
// job is a no-op; either way the current status is returned.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	job.cancel()
	// A queued job's outcome is decided the moment it is cancelled;
	// finishing it here (instead of when a worker finally dequeues it)
	// keeps its status and stream from hanging behind unrelated
	// long-running jobs. finish is idempotent, so the race with a
	// worker that just dequeued it is harmless — and that worker only
	// ever sees a cancelled context.
	job.mu.Lock()
	queued := job.state == StateQueued
	job.mu.Unlock()
	if queued {
		job.finish(StateCancelled, "", "cancelled while queued")
	}
	job.logger.Info("cancel requested", "queued", queued)
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleStream replays the job's NDJSON result log from the start and
// follows it live until the job reaches a terminal state or the client
// disconnects. Content-Type is application/x-ndjson; each line is one
// report.Report (report.DecodeJSON) or one {"seq","error"} object for
// a unit that could not be built.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Push the status line out before blocking on the first report —
	// a client attached to a quiet running job must see the 200, not
	// silence.
	if flusher != nil {
		flusher.Flush()
	}

	// A client disconnect must wake a blocked next(); the log's cond
	// has no channel to select on, so broadcast from the context.
	stop := context.AfterFunc(r.Context(), job.log.wake)
	defer stop()

	for i := 0; ; i++ {
		line, ok := job.log.next(r.Context(), i)
		if !ok {
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleTrace replays a traced campaign job's span NDJSON and follows
// it live, exactly like /stream does for result lines. Jobs submitted
// without "trace": true have no span log and answer 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job := s.job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if job.trace == nil {
		writeError(w, http.StatusNotFound, "job %q was not submitted with trace enabled", job.id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	stop := context.AfterFunc(r.Context(), job.trace.wake)
	defer stop()
	for i := 0; ; i++ {
		line, ok := job.trace.next(r.Context(), i)
		if !ok {
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleHealth answers the liveness probe. Every number is read out of
// the metrics registry's snapshot — the same func-backed cells /metrics
// renders — so the two surfaces cannot disagree: there is exactly one
// source of truth for queue, job-table and cache telemetry.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	state := func(st State) int {
		return int(snap.CellValue(MetricJobs, obs.Label{Name: "state", Value: string(st)}))
	}
	queued, running := state(StateQueued), state(StateRunning)
	terminal := state(StateDone) + state(StateFailed) + state(StateCancelled)
	writeJSON(w, http.StatusOK, struct {
		OK          bool  `json:"ok"`
		Workers     int   `json:"workers"`
		QueueDepth  int   `json:"queue_depth"`
		Jobs        int   `json:"jobs"`
		Queued      int   `json:"queued"`
		Running     int   `json:"running"`
		Terminal    int   `json:"terminal"`
		CacheHits   int64 `json:"cache_hits"`
		CacheMisses int64 `json:"cache_misses"`
	}{
		OK:          true,
		Workers:     int(snap.Value(MetricWorkers)),
		QueueDepth:  int(snap.Value(MetricQueueCapacity)),
		Jobs:        queued + running + terminal,
		Queued:      queued,
		Running:     running,
		Terminal:    terminal,
		CacheHits:   int64(snap.Value(MetricCacheHits)),
		CacheMisses: int64(snap.Value(MetricCacheMisses)),
	})
}

// ------------------------------------------------------------- execution --

// runJob executes one job on a worker goroutine, through the
// configured Executor (default: the local engines).
func (s *Server) runJob(job *Job) {
	defer job.cancel() // release the context's resources either way
	defer s.evictTerminal()
	if job.ctx.Err() != nil {
		job.finish(StateCancelled, "", "cancelled while queued")
		return
	}
	job.setState(StateRunning)
	s.busy.Add(1)
	started := s.now()
	wait := started.Sub(job.submitted).Seconds()
	s.queueWait.Observe(wait)
	job.logger.Info("job started", "wait_s", wait)

	ex := Execution{
		ID:      job.id,
		Spec:    job.spec,
		Art:     job.art,
		Log:     job.log,
		Publish: job.publish,
	}
	if s.observe != nil {
		ex.Observer = func(unit int) stand.Observer { return s.observe(job, unit) }
	}
	// Assigned conditionally: a nil *resultLog in the io.Writer field
	// would read as a non-nil interface.
	if job.trace != nil {
		ex.Trace = job.trace
	}
	ex.Logger = job.logger

	exec := s.opts.Executor
	if exec == nil {
		exec = s.ExecuteLocal
	}
	verdict, err := exec(job.ctx, ex)
	// Completed-job telemetry lands before finish ends the stream: a
	// client that has read the whole stream may scrape /metrics at once.
	// It is the wall duration and the unit throughput (result lines per
	// second; sub-resolution durations clamp so the rate stays finite).
	elapsed := s.now().Sub(started).Seconds()
	s.jobSeconds.Observe(elapsed)
	if lines := job.log.len(); lines > 0 {
		if elapsed <= 0 {
			elapsed = 1e-9
		}
		s.unitRate.Observe(float64(lines) / elapsed)
	}
	s.busy.Add(-1)
	switch {
	case job.ctx.Err() != nil:
		job.finish(StateCancelled, "", "cancelled")
		job.logger.Info("job cancelled")
	case err != nil:
		job.finish(StateFailed, "", trimPrefix(err))
		job.logger.Warn("job failed", "error", trimPrefix(err))
	default:
		job.finish(StateDone, verdict, "")
		job.logger.Info("job done", "verdict", verdict, "reports", job.log.len())
	}
}

// ExecuteLocal runs the job with the built-in in-process engines —
// the default Executor, and the fallback a distributing Executor uses
// when no remote workers are available.
func (s *Server) ExecuteLocal(ctx context.Context, ex Execution) (string, error) {
	if ex.Publish == nil {
		ex.Publish = func(func(*JobStatus)) {}
	}
	switch ex.Spec.Kind {
	case KindCampaign:
		return s.runCampaign(ctx, ex)
	case KindMutate:
		return s.runMutate(ctx, ex)
	case KindExplore:
		return s.runExplore(ctx, ex)
	case KindVet:
		return s.runVet(ctx, ex)
	}
	// Unreachable from the API: normalize validated the kind.
	return "", fmt.Errorf("unknown kind %q", ex.Spec.Kind)
}

// runCampaign fans the cached scripts over one stand as a single
// Campaign, streaming every report to the job log in unit order.
func (s *Server) runCampaign(ctx context.Context, ex Execution) (string, error) {
	// Checked here too, not only at submission: ExecuteLocal also runs
	// restored jobs and other callers' executions, and an unknown fault
	// must fail the job rather than error every unit.
	if err := comptest.CheckFaults(ex.Spec.DUT, ex.Spec.Faults...); err != nil {
		return "", err
	}
	scripts, err := ex.Art.Select(ex.Spec.Scripts)
	if err != nil {
		return "", err
	}
	// The artifact's plan holds every script compiled once; a workbook
	// whose scripts do not all compile has no plan and goes through
	// Cross, which compiles those that do.
	var units []comptest.Unit
	if plan := ex.Art.Plan; plan != nil {
		for _, sc := range scripts {
			units = append(units, comptest.Unit{Script: sc, Compiled: plan.Compiled(sc),
				Stand: ex.Spec.Stand, DUT: ex.Spec.DUT})
		}
	} else {
		units = comptest.Cross(scripts, []string{ex.Spec.Stand}, ex.Spec.DUT)
	}
	// The tracer rides the same per-unit Observer seam as the server's
	// test hook; MultiObserver composes the two when both are present.
	var tracer *comptest.Tracer
	if ex.Trace != nil {
		tracer = comptest.NewTracer(report.NewSpanWriter(ex.Trace))
	}
	for i := range units {
		units[i].Faults = ex.Spec.Faults
		if ex.Observer != nil {
			units[i].Observer = ex.Observer(i)
		}
		if tracer != nil {
			units[i].Observer = stand.MultiObserver(units[i].Observer, tracer.Observer(i))
		}
	}
	watch := comptest.SinkFunc(func(res comptest.Result) {
		s.observeUnit(res)
		if ex.Logger == nil {
			return
		}
		switch {
		case res.Err != nil:
			ex.Logger.Warn("unit errored", "unit", res.Seq, "error", res.Err.Error())
		case res.Report != nil && !res.Report.Passed():
			ex.Logger.Warn("unit failed", "unit", res.Seq, "script", res.Report.Script)
		}
	})
	sink := comptest.NDJSON(ex.Log)
	opts := []comptest.Option{
		comptest.WithStand(ex.Spec.Stand),
		comptest.WithParallelism(ex.Spec.Parallelism),
		comptest.WithSink(comptest.Ordered(sink)),
		comptest.WithSink(watch),
	}
	if tracer != nil {
		opts = append(opts, comptest.WithSink(tracer))
	}
	runner, err := comptest.NewRunner(opts...)
	if err != nil {
		return "", err
	}
	sum, err := runner.Campaign(ctx, units)
	if tracer != nil {
		tracer.Flush()
	}
	ex.Publish(func(js *JobStatus) {
		js.Campaign = &CampaignStatus{Units: sum.Units, Passed: sum.Passed,
			Failed: sum.Failed, Errored: sum.Errored, Skipped: sum.Skipped}
	})
	if err != nil {
		return "", err
	}
	if sum.Passed == sum.Units {
		return "green", nil
	}
	return "red", nil
}

// observeUnit records one executed unit's wall-clock time, measured by
// the Runner (Result.Elapsed), in comptest_unit_seconds.
func (s *Server) observeUnit(res comptest.Result) {
	if res.Report != nil {
		s.unitSeconds.Observe(res.Elapsed.Seconds())
	}
}

// timedNDJSON is an NDJSON sink over w that first observes every unit
// in comptest_unit_seconds. Callers that order the stream wrap it
// in comptest.Ordered themselves, outermost, so the Runner's notices
// of units never emitted reach the wrapper.
func (s *Server) timedNDJSON(w io.Writer) comptest.Sink {
	sink := comptest.NDJSON(w)
	return comptest.SinkFunc(func(res comptest.Result) {
		s.observeUnit(res)
		sink.Emit(res)
	})
}

// runMutate executes the kill matrix of the job's suite, streaming
// baseline and mutant reports in unit order — the same bytes at every
// parallelism, so a distributed requeue can dedup them by position.
func (s *Server) runMutate(ctx context.Context, ex Execution) (string, error) {
	plan, err := mutation.Enumerate(ex.Spec.DUT, ex.Spec.Stand, ex.Art.Suite)
	if err != nil {
		return "", err
	}
	mat, err := mutation.Run(ctx, plan, mutation.Options{
		Parallelism: ex.Spec.Parallelism,
		Sink:        comptest.Ordered(s.timedNDJSON(ex.Log)),
	})
	if err != nil {
		return "", err
	}
	st := MutationStatus{Mutants: len(mat.Outcomes)}
	for _, o := range mat.Outcomes {
		switch {
		case o.Err != nil:
			st.Errored++
		case o.Killed:
			st.Killed++
		default:
			st.Survived++
		}
	}
	ex.Publish(func(js *JobStatus) { js.Mutation = &st })
	if st.Errored > 0 {
		return "red", nil
	}
	return "green", nil
}

// runVet runs the workbook static analyzers over the cached suite,
// streaming one NDJSON line per finding. The verdict is green iff no
// error-severity finding survives the workbook's suppression
// directives — the coordinator-fleet analogue of `comptest vet`.
func (s *Server) runVet(ctx context.Context, ex Execution) (string, error) {
	suite := ex.Art.Suite
	res, err := lint.Run(&lint.Suite{
		Signals:  suite.Signals,
		Statuses: suite.Statuses,
		Tests:    suite.Tests,
		Workbook: suite.Workbook,
	}, lint.Options{})
	if err != nil {
		return "", err
	}
	st := VetStatus{Findings: len(res.Findings), Suppressed: len(res.Suppressed)}
	for _, f := range res.Findings {
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
		line, err := json.Marshal(f)
		if err != nil {
			return "", err
		}
		if _, err := ex.Log.Write(append(line, '\n')); err != nil {
			return "", err
		}
		switch f.Severity {
		case lint.Error:
			st.Errors++
		case lint.Warning:
			st.Warnings++
		default:
			st.Infos++
		}
	}
	ex.Publish(func(js *JobStatus) { js.Vet = &st })
	if st.Errors > 0 {
		return "red", nil
	}
	return "green", nil
}

// runExplore runs coverage-guided exploration, streaming every stand
// execution's report.
func (s *Server) runExplore(ctx context.Context, ex Execution) (string, error) {
	eng, err := explore.New(ex.Art.Suite, explore.Options{
		DUT:         ex.Spec.DUT,
		Stand:       ex.Spec.Stand,
		Seed:        ex.Spec.Seed,
		Budget:      ex.Spec.Budget,
		Parallelism: ex.Spec.Parallelism,
		Oracle:      ex.Spec.Oracle,
		Sink:        s.timedNDJSON(ex.Log),
	})
	if err != nil {
		return "", err
	}
	res, err := eng.Run(ctx)
	if res != nil {
		ex.Publish(func(js *JobStatus) {
			js.Exploration = &ExplorationStatus{
				Candidates:   res.Candidates,
				Executions:   res.Executions,
				Scenarios:    res.Corpus.Len(),
				CoverageKeys: res.Coverage.Len(),
			}
		})
	}
	if err != nil {
		return "", err
	}
	return "green", nil
}
