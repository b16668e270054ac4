package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/comptest/serve"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/stand"
)

// Options configures a Coordinator. Zero values select the defaults.
type Options struct {
	// Serve configures the embedded job server (queue depth, worker
	// pool). Its Executor field is owned by the coordinator and
	// overwritten; so is Hooks when StateDir is set.
	Serve serve.Options
	// ShardUnits bounds the units per shard (default 4). Smaller
	// shards spread wider and requeue cheaper; larger shards amortise
	// dispatch overhead.
	ShardUnits int
	// StateDir, when set, makes the coordinator durable: every
	// coordination event appends to <StateDir>/journal.ndjson, and on
	// startup the journal is replayed — accepted jobs reappear,
	// in-flight jobs resume from their flushed stream offset, and
	// shards whose workers retained them across the outage are
	// re-adopted (re-attached, not re-run). If the directory or journal
	// is unusable the error is logged and the coordinator runs
	// non-durable rather than refusing to start.
	StateDir string
	// StealLocal lets the coordinator's own executor steal a shard that
	// has waited StealAfter for a remote slot while the whole fleet is
	// saturated. Off by default: stealing trades strict fleet affinity
	// for latency, and a coordinator co-located with heavy jobs may not
	// want the extra load.
	StealLocal bool
	// StealAfter is how long a shard waits for a remote slot before
	// StealLocal may claim it (default 2s). Ignored without StealLocal.
	StealAfter time.Duration
	// LeaseTTL is how long a worker stays schedulable without a
	// heartbeat (default 15s). Workers heartbeat at a third of this.
	LeaseTTL time.Duration
	// ScrapeTimeout bounds one worker /metrics fetch during fleet
	// aggregation (default 2s): a slow worker delays, never wedges, the
	// coordinator's own exposition. `comptest serve -coordinator
	// -scrape-timeout` sets it.
	ScrapeTimeout time.Duration
	// Logger, when non-nil, receives the coordinator's structured fleet
	// events (worker registration, lease expiry). Shard-level events go
	// to the owning job's logger instead, carrying job/shard/worker
	// correlation attrs.
	Logger *slog.Logger

	now func() time.Time // test clock for the registry and latency histograms
}

func (o Options) withDefaults() Options {
	if o.ShardUnits < 1 {
		o.ShardUnits = 4
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.StealAfter <= 0 {
		o.StealAfter = 2 * time.Second
	}
	if o.ScrapeTimeout <= 0 {
		o.ScrapeTimeout = 2 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.now == nil {
		o.now = obs.Wall
	}
	return o
}

const (
	// shardTimeout bounds one remote shard execution before it is
	// requeued elsewhere.
	shardTimeout = 2 * time.Minute
	// maxAttempts is how many workers a shard is tried on before the
	// coordinator executes it locally itself.
	maxAttempts = 3
)

// Coordinator is the distributed front of the campaign service: the
// same job API as comptest/serve (it embeds a serve.Server), but jobs
// execute as shards over registered remote workers. Campaign jobs are
// split into bounded chunks of scripts; any other job is one
// open-ended shard. Each shard travels as an ordinary serve job (same
// wire format, workbook shipped inline so the worker's
// content-addressed cache parses it once per node) and its streamed
// NDJSON lines merge back — exactly-once, in global line order — into
// the job's result log, byte-identical to a single-node run. With no
// live workers, everything falls back to local execution: a
// coordinator alone behaves exactly like a plain serve.Server.
type Coordinator struct {
	opts      Options
	reg       *Registry
	srv       *serve.Server
	client    *http.Client // coordinator→worker HTTP
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// Telemetry: the registry is shared with the embedded serve.Server,
	// so the coordinator's dist_* families and the server's comptest_*
	// families render from one /metrics handler (see metrics.go).
	metrics          *obs.Registry
	mRequeues        *obs.Counter
	mLeaseExpiries   *obs.Counter
	mShardsCompleted *obs.Counter
	mShardsLocal     *obs.Counter
	mShardsStolen    *obs.Counter
	mShardsReadopted *obs.Counter
	mJobsRecovered   *obs.Counter
	mJournalRecords  *obs.Counter
	mJournalBytes    *obs.Counter
	mScrapeErrors    *obs.Counter
	mShardRoundtrip  *obs.Histogram
	mScrapeSeconds   *obs.Histogram
	mergerMu         sync.Mutex
	mergers          map[*report.Sequencer[[]byte]]struct{}

	// Durable state (nil / empty without Options.StateDir): the journal
	// this coordinator appends to, and the replayed per-job state the
	// executor claims — once — when a restored job reaches it.
	journal     *journal
	recoveredMu sync.Mutex
	recovered   map[string]*recoveredJob

	logger *slog.Logger
	clock  func() time.Time
}

// New builds a Coordinator and its embedded job server. With
// Options.StateDir set it first replays the journal found there —
// compacting it into a fresh snapshot before anything can append — so
// the jobs and fleet of the previous incarnation are live again before
// the handler takes its first request.
func New(opts Options) *Coordinator {
	opts = opts.withDefaults()
	c := &Coordinator{
		opts:      opts,
		reg:       newRegistry(opts.LeaseTTL, opts.now),
		client:    &http.Client{},
		stop:      make(chan struct{}),
		mergers:   map[*report.Sequencer[[]byte]]struct{}{},
		recovered: map[string]*recoveredJob{},
		logger:    opts.Logger,
		clock:     opts.now,
	}
	var replayedSt *replayed
	if opts.StateDir != "" {
		st, jnl, err := openJournal(opts.StateDir)
		if err != nil {
			c.logger.Error("durable state disabled", "state_dir", opts.StateDir, "error", err.Error())
		} else {
			replayedSt = st
			c.journal = jnl
		}
	}
	serveOpts := opts.Serve
	serveOpts.Executor = c.execute
	if serveOpts.Metrics == nil {
		serveOpts.Metrics = obs.NewRegistry()
	}
	c.metrics = serveOpts.Metrics
	if c.journal != nil {
		// The persistence seam: acceptance (spec + workbook) before the
		// job can run, every contiguously-flushed stream line, and the
		// terminal status. Restore fires none of these for replayed
		// history, so recovery never re-journals the journal.
		serveOpts.Hooks = serve.Hooks{
			Accepted: func(id string, spec serve.JobSpec, workbook string) {
				c.journal.append(journalRec{T: "job", Job: id, Spec: &spec, Workbook: workbook})
			},
			Line: func(id string, line []byte) {
				c.journal.append(journalRec{T: "line", Job: id,
					Line: string(bytes.TrimSuffix(line, []byte("\n")))})
			},
			Finished: func(st serve.JobStatus) {
				c.journal.append(journalRec{T: "done", Job: st.ID, Status: &st})
			},
		}
	}
	c.srv = serve.New(serveOpts)
	c.registerMetrics()
	if c.journal != nil {
		c.journal.mRecords = c.mJournalRecords
		c.journal.mBytes = c.mJournalBytes
	}
	// Counted under the registry lock at the moment liveness flips, so
	// one lapse is one increment no matter how many goroutines observe it.
	c.reg.onExpire = func(id string) {
		c.mLeaseExpiries.Inc()
		c.logger.Warn("worker lease expired", "worker", id)
	}
	// Lease expiry is time-based and has no event to broadcast on; a
	// slow ticker wakes blocked acquires so they can re-evaluate
	// liveness (and fall back to local execution when the fleet died).
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(wakeEvery(opts.LeaseTTL))
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				c.reg.broadcast()
			case <-c.stop:
				return
			}
		}
	}()
	if replayedSt != nil {
		c.adoptReplayed(replayedSt)
	}
	return c
}

func wakeEvery(ttl time.Duration) time.Duration {
	if d := ttl / 4; d >= 50*time.Millisecond {
		return d
	}
	return 50 * time.Millisecond
}

// Server exposes the embedded job server (for tests and embedding).
func (c *Coordinator) Server() *serve.Server { return c.srv }

// Registry exposes the worker registry.
func (c *Coordinator) Registry() *Registry { return c.reg }

// Close shuts the coordinator down: jobs are cancelled through the
// embedded server (which propagates to in-flight shard dispatches),
// the registry stops admitting workers, and the ticker drains.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.reg.close()
		c.srv.Close()
		close(c.stop)
		c.wg.Wait()
		// After srv.Close: cancelled jobs journal their terminal status
		// through the Finished hook before the file closes.
		c.journal.close()
		c.client.CloseIdleConnections()
	})
}

// Handler returns the coordinator API: the full serve job API plus
// the worker registry endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", c.srv.Handler())
	// More specific than the "/" mount, so the fleet-aggregated views
	// shadow the embedded server's node-local /metrics and /slo here.
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /slo", c.handleSLO)
	mux.HandleFunc("POST /v1/workers", c.handleRegister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/workers/{id}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("DELETE /v1/workers/{id}", c.handleDeregister)
	return mux
}

// ------------------------------------------------------------- handlers --

func jsonOut(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func jsonErr(w http.ResponseWriter, code int, format string, args ...any) {
	jsonOut(w, code, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		jsonErr(w, http.StatusBadRequest, "malformed registration: %v", err)
		return
	}
	resp, err := c.reg.Register(req)
	if err != nil {
		// Protocol mismatch is a conflict between two healthy builds,
		// not a malformed request.
		jsonErr(w, http.StatusConflict, "%v", err)
		return
	}
	capacity := req.Capacity
	if capacity < 1 {
		capacity = 1
	}
	c.journal.append(journalRec{T: "worker", Info: &WorkerInfo{
		ID: resp.ID, Name: req.Name, URL: req.URL, Version: req.Version,
		Protocol: req.Protocol, Capacity: capacity,
		Kinds: req.Kinds, DUTs: req.DUTs, Stands: req.Stands,
	}})
	c.logger.Info("worker registered", "worker", resp.ID, "name", req.Name, "url", req.URL)
	jsonOut(w, http.StatusOK, resp)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	jsonOut(w, http.StatusOK, struct {
		Workers []WorkerInfo `json:"workers"`
	}{c.reg.Snapshot()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !c.reg.Heartbeat(r.PathValue("id")) {
		jsonErr(w, http.StatusNotFound, "no worker %q (re-register)", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	c.reg.Deregister(r.PathValue("id"))
	c.journal.append(journalRec{T: "worker_gone", Worker: r.PathValue("id")})
	c.logger.Info("worker deregistered", "worker", r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// ------------------------------------------------------------ execution --

// permanentError marks a dispatch failure that requeueing cannot fix
// (the job itself is wrong, or the protocol was violated).
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanentf(format string, args ...any) error {
	return &permanentError{fmt.Errorf(format, args...)}
}

// errBusy: the worker's own admission control rejected the shard
// (503). The worker is healthy — try another, don't mark it lost.
var errBusy = errors.New("dist: worker queue full")

// shardSpec is one piece of a job. A campaign shard is a bounded chunk
// of the unit matrix, chunked contiguously, so shard-local line i is
// global unit base+i — the sequence tag the line merge dedups and orders
// on. The open-ended shard of any other job kind has no names, and its
// line i is global line i.
type shardSpec struct {
	base  int
	names []string
}

func chunkShards(names []string, size int) []shardSpec {
	var shards []shardSpec
	for base := 0; base < len(names); base += size {
		end := base + size
		if end > len(names) {
			end = len(names)
		}
		shards = append(shards, shardSpec{base: base, names: names[base:end]})
	}
	return shards
}

// outcome is how one shard attempt ended, as settle books it.
type outcome int

const (
	shardMerged    outcome = iota // dispatched and merged: Completed, +worker
	shardReadopted                // re-attached after a restart: Readopted, Completed, +worker
	shardLocal                    // run by the local fallback: Local, Completed
	shardStolen                   // claimed from a saturated fleet (Options.StealLocal): Stolen, Completed
	shardRequeued                 // worker or retained job lost: Requeued, journaled
	shardRecovered                // every unit already in the journal: Completed, +worker
)

// settle books one shard outcome: the job's ShardStatus, published
// through the status seam; the outcome's dist_* counters; the requeue
// journal record; and, unless msg is empty, the job-log line msg with
// the shard, the worker (when known) and attrs.
func (c *Coordinator) settle(j *dispatchJob, sh shardSpec, o outcome, worker, msg string, attrs ...any) {
	lg := execLogger(j.ex)
	log := lg.Info
	j.shardMu.Lock()
	switch o {
	case shardMerged:
		c.mShardsCompleted.Inc()
	case shardReadopted:
		j.shards.Readopted++
		c.mShardsReadopted.Inc()
		c.mShardsCompleted.Inc()
	case shardLocal:
		j.shards.Local++
		c.mShardsLocal.Inc()
	case shardStolen:
		j.shards.Stolen++
		c.mShardsStolen.Inc()
	case shardRequeued:
		j.shards.Requeued++
		c.mRequeues.Inc()
		c.journal.append(journalRec{T: "requeue", Job: j.ex.ID, Shard: sh.base})
		log = lg.Warn
	}
	if o != shardRequeued {
		j.shards.Completed++
		if worker != "" {
			j.workers[worker] = true
		}
	}
	j.publishShardsLocked()
	j.shardMu.Unlock()
	if msg == "" {
		return
	}
	args := []any{"shard", sh.base}
	if worker != "" {
		args = append(args, "worker", worker)
	}
	log(msg, append(args, attrs...)...)
}

// tally accumulates per-unit verdicts as campaign lines merge; only
// accepted (non-duplicate) lines count, so requeued shards cannot
// double-book.
type tally struct {
	mu                      sync.Mutex
	passed, failed, errored int
}

// dispatchJob is one execution's merge state, shared by all its
// shards. The job kind decides only how a line merges (merge), how a
// shard finishes (streamShard) and how the local fallback runs
// (runShardLocal).
type dispatchJob struct {
	ex    serve.Execution
	lines *report.Sequencer[[]byte] // result lines, released to ex.Log
	tl    *tally
	tm    *report.TraceMerger // nil unless the job is traced
	// shards is the job's ShardStatus and workers the distinct workers
	// that completed its shards, as settle books them.
	shardMu sync.Mutex
	shards  serve.ShardStatus // guarded by shardMu
	workers map[string]bool   // guarded by shardMu
	// verdict is the open-ended shard's verdict, written by the one
	// goroutine that completes it and read after execute's Wait.
	verdict string
}

func (j *dispatchJob) campaign() bool { return j.ex.Spec.Kind == serve.KindCampaign }

// publishShardsLocked publishes a fresh copy of the job's ShardStatus,
// with its worker list sorted. Caller holds shardMu, so publishes land
// in booking order and the job's status ends on the last one.
func (j *dispatchJob) publishShardsLocked() {
	sh := j.shards
	for id := range j.workers {
		sh.Workers = append(sh.Workers, id)
	}
	sort.Strings(sh.Workers)
	j.ex.Publish(func(st *serve.JobStatus) { st.Shards = &sh })
}

// execute is the serve.Executor of the coordinator. Every job kind runs
// as shards merged exactly-once, in global line order, into the job's
// result log: a campaign's script list is chunked into bounded shards,
// and any other job is one open-ended shard at base 0 whose stream —
// identical at every parallelism — merges line by line. Either way a
// requeued, re-adopted or locally re-run stream dedups on line position.
func (c *Coordinator) execute(ctx context.Context, ex serve.Execution) (string, error) {
	rec := c.takeRecovered(ex.ID)
	shards, err := c.planShards(ex, rec)
	if err != nil {
		return "", err
	}
	// The line merge's floor is the journaled stream offset: those lines
	// are already in the (preloaded) result log, so re-deliveries of
	// them — from re-adopted streams or re-run shards — drop as
	// duplicates and the first line this process writes is line floor.
	// Each line is written with exactly one Write call.
	floor := 0
	if rec != nil {
		floor = len(rec.lines)
	}
	j := &dispatchJob{
		ex: ex,
		lines: report.NewSequencer(floor, func(l []byte) error {
			_, err := ex.Log.Write(l)
			return err
		}),
		tl:      &tally{},
		shards:  serve.ShardStatus{Total: len(shards)},
		workers: map[string]bool{},
	}
	j.shardMu.Lock()
	j.publishShardsLocked()
	j.shardMu.Unlock()
	defer c.trackMerger(j.lines)()
	if rec != nil && j.campaign() {
		seedTally(j.tl, rec.lines)
	}
	// Traced campaigns reassemble the global span tree the same way the
	// result log reassembles report lines: each shard's spans arrive as a
	// complete subtree, are re-based onto the global unit sequence and
	// released in order, so the merged NDJSON is byte-identical to a
	// single-node `run -trace` of the same campaign.
	if ex.Trace != nil {
		j.tm = report.NewTraceMerger(report.NewSpanWriter(ex.Trace))
	}

	// A fatal shard error (permanent dispatch failure, local fallback
	// failure) aborts the remaining shards through this child context;
	// the JOB context stays intact so serve classifies the outcome as
	// failed, not cancelled.
	dctx, dcancel := context.WithCancel(ctx)
	defer dcancel()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		units    int
	)
	for _, sh := range shards {
		units += len(sh.names)
		var adopt *dispatchRec
		if rec != nil {
			if j.campaign() && j.tm == nil && sh.base+len(sh.names) <= floor {
				// Every unit of this shard is below the flushed floor: the
				// journal holds its full output, nothing re-runs. (Traced
				// jobs skip this skip — spans are not journaled, so every
				// shard re-attaches to rebuild the span tree. An open-ended
				// shard never knows it is complete.)
				c.settle(j, sh, shardRecovered, rec.dispatches[sh.base].worker, "")
				continue
			}
			if d, ok := rec.dispatches[sh.base]; ok {
				adopt = &d
			}
		}
		wg.Add(1)
		go func(sh shardSpec, adopt *dispatchRec) {
			defer wg.Done()
			if err := c.runShard(dctx, j, sh, adopt); err != nil && dctx.Err() == nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				dcancel()
			}
		}(sh, adopt)
	}
	wg.Wait()
	if j.tm != nil {
		// Unconditional, mirroring the single-node runner: even a failed
		// campaign closes its trace with whatever units completed.
		j.tm.Flush()
	}

	verdict := j.verdict
	if j.campaign() {
		j.tl.mu.Lock()
		st := serve.CampaignStatus{Units: units, Passed: j.tl.passed,
			Failed: j.tl.failed, Errored: j.tl.errored}
		j.tl.mu.Unlock()
		// Skipped = units with no accounted outcome. The tally counts every
		// accepted line — including ones still buffered behind a gap the
		// failed job will never fill — so deriving Skipped from the tally
		// (not from the released lines) keeps the four buckets summing to
		// Units even on partial failures.
		st.Skipped = st.Units - st.Passed - st.Failed - st.Errored
		ex.Publish(func(js *serve.JobStatus) { js.Campaign = &st })
		verdict = "red"
		if st.Passed == st.Units {
			verdict = "green"
		}
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if firstErr != nil {
		return "", firstErr
	}
	if err := j.lines.Err(); err != nil {
		return "", err
	}
	return verdict, nil
}

// planShards chunks a campaign's script list into bounded shards; any
// other job kind is one open-ended shard at base 0 with no unit list.
func (c *Coordinator) planShards(ex serve.Execution, rec *recoveredJob) ([]shardSpec, error) {
	if ex.Spec.Kind != serve.KindCampaign {
		return []shardSpec{{}}, nil
	}
	scripts, err := ex.Art.Select(ex.Spec.Scripts)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(scripts))
	for i, sc := range scripts {
		names[i] = sc.Name
	}
	// A recovered job re-chunks with the shard size pinned in its plan
	// record — the restarted process may run with a different
	// -shard-units, and shard boundaries must not move under the
	// journaled dispatch state.
	size := c.opts.ShardUnits
	if rec != nil && rec.shardUnits > 0 {
		size = rec.shardUnits
	}
	c.journal.append(journalRec{T: "plan", Job: ex.ID, ShardUnits: size})
	return chunkShards(names, size), nil
}

// runShard drives one shard to completion: re-adopt it from a worker
// that retained it across a coordinator restart (when recovery left a
// dispatch address), else acquire a worker, dispatch, and on worker
// loss requeue on a survivor — the line merge's sequence dedup makes the
// retry exactly-once even when the dead worker already delivered part
// of the shard. When no worker is live (or remote attempts are
// exhausted, or a saturated fleet kept the shard waiting past the
// steal deadline) the coordinator executes the shard itself.
func (c *Coordinator) runShard(ctx context.Context, j *dispatchJob, sh shardSpec, adopt *dispatchRec) error {
	ex := j.ex
	n := need{kind: ex.Spec.Kind, dut: ex.Spec.DUT, stand: ex.Spec.Stand}
	if adopt != nil {
		aerr := c.adoptShard(ctx, *adopt, j, sh)
		if aerr == nil {
			c.settle(j, sh, shardReadopted, adopt.worker, "shard re-adopted", "units", len(sh.names))
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var pe *permanentError
		if errors.As(aerr, &pe) {
			return aerr
		}
		// The retained job is gone (worker restarted during the outage,
		// retention evicted it, …): erase the stale address and fall
		// through to a normal dispatch. Lines it already delivered sit
		// below the line merge's floor and stay exactly-once.
		c.settle(j, sh, shardRequeued, adopt.worker, "shard re-adoption failed; redispatching",
			"error", aerr.Error())
	}
	exclude := map[string]bool{}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A shard that maxAttempts workers failed runs locally, as it
		// does when no worker is live.
		var (
			ls    lease
			stole bool
			err   = ErrNoWorkers
		)
		if attempt < maxAttempts {
			ls, stole, err = c.reg.acquire(ctx, n, exclude, c.stealDeadline())
		}
		if stole {
			c.settle(j, sh, shardStolen, "", "shard stolen by local executor", "units", len(sh.names))
			return c.runShardLocal(ctx, j, sh)
		}
		if errors.Is(err, ErrNoWorkers) {
			c.settle(j, sh, shardLocal, "", "shard local", "units", len(sh.names))
			return c.runShardLocal(ctx, j, sh)
		}
		if err != nil {
			return err
		}
		execLogger(ex).Info("shard dispatched", "shard", sh.base, "worker", ls.id, "units", len(sh.names))
		t0 := c.clock()
		derr := c.dispatchShard(ctx, ls, j, sh)
		c.reg.release(ls.id)
		if derr == nil {
			secs := c.clock().Sub(t0).Seconds()
			c.mShardRoundtrip.Observe(secs)
			c.settle(j, sh, shardMerged, ls.id, "shard merged", "seconds", secs)
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var pe *permanentError
		if errors.As(derr, &pe) {
			return derr
		}
		if errors.Is(derr, errBusy) {
			// The worker is healthy, its own admission control is just
			// full (direct submissions compete for its queue). Neither
			// exclude nor mark it lost — back off briefly and let the
			// bounded attempt counter retry anywhere, including there.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(100 * time.Millisecond):
			}
			continue
		}
		// The worker failed mid-dispatch: stop scheduling onto it
		// until it heartbeats again, and never retry THIS shard on
		// it — its next heartbeat must not win the shard back.
		c.reg.MarkLost(ls.id)
		exclude[ls.id] = true
		c.settle(j, sh, shardRequeued, ls.id, "shard requeued", "error", derr.Error())
	}
}

// stealDeadline is the acquire steal timeout: 0 (never) unless
// Options.StealLocal opted in.
func (c *Coordinator) stealDeadline() time.Duration {
	if !c.opts.StealLocal {
		return 0
	}
	return c.opts.StealAfter
}

// execLogger returns the job's structured logger, or a discard logger
// for callers (tests, embedders driving execute directly) that never
// wired one — shard events must not force nil checks at every site.
func execLogger(ex serve.Execution) *slog.Logger {
	if ex.Logger != nil {
		return ex.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// merge adds one stream line (without its newline) as global line seq.
// Any job but a campaign merges the line verbatim. A campaign line is
// classified: error-line sequence numbers (report.ErrorLine — a unit
// that produced no report) are rewritten to the global numbering and
// the verdict is tallied. Duplicate sequences (requeue re-delivery)
// are dropped by the line Sequencer and not tallied.
func (j *dispatchJob) merge(seq int, line []byte) error {
	// line may alias a read buffer, and a buffered line lives until its
	// turn: nl copies it, never appends in place.
	nl := func(l []byte) []byte {
		out := make([]byte, len(l)+1)
		copy(out, l)
		out[len(l)] = '\n'
		return out
	}
	if !j.campaign() {
		_, err := j.lines.Add(seq, nl(line))
		return err
	}
	tl := j.tl
	rep, derr := report.DecodeJSON(line)
	if derr == nil {
		accepted, err := j.lines.Add(seq, nl(line))
		if err != nil {
			return err
		}
		if accepted {
			tl.mu.Lock()
			if rep.Passed() {
				tl.passed++
			} else {
				tl.failed++
			}
			tl.mu.Unlock()
		}
		return nil
	}
	el, err := report.DecodeErrorLine(line)
	if err != nil {
		return permanentf("dist: unrecognisable stream line (%v / %v): %.120s", derr, err, line)
	}
	el.Seq = seq
	out, err := json.Marshal(el)
	if err != nil {
		return err
	}
	accepted, err := j.lines.Add(seq, nl(out))
	if err != nil {
		return err
	}
	if accepted {
		tl.mu.Lock()
		tl.errored++
		tl.mu.Unlock()
	}
	return nil
}

// readLines consumes an NDJSON stream, invoking fn once per COMPLETE
// (newline-terminated) line. A truncated final line — a worker dying
// mid-write — is discarded, not surfaced: the shard requeue must
// re-deliver that unit, never merge half a report. No line-length cap
// (a bufio.Scanner token limit would make oversized reports fail
// distributed but succeed single-node).
func readLines(r io.Reader, fn func(line []byte) error) error {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err == nil {
			if err := fn(line[:len(line)-1]); err != nil {
				return err
			}
			continue
		}
		if err == io.EOF {
			return nil // any unterminated tail is dropped by design
		}
		return err
	}
}

// dispatchShard runs one shard on one worker over the serve wire
// format: POST the shard as a job (workbook inline — the worker's
// content-addressed cache parses it once per node no matter how many
// shards follow), stream its NDJSON, and merge each line under the
// shard's global sequence numbers.
func (c *Coordinator) dispatchShard(ctx context.Context, ls lease, j *dispatchJob, sh shardSpec) error {
	sctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()

	// The spec travels unchanged but for the unit list (nil for an
	// open-ended shard, whose kind takes no script selector) and the
	// workbook. The trace flag travels with a campaign shard: each
	// worker records its units' spans on a shard-local simulated
	// timeline, and the TraceMerger re-bases them onto the job's global
	// sequence once the shard completes.
	spec := j.ex.Spec
	spec.Scripts = sh.names
	spec.Workbook = string(j.ex.Art.Source)
	spec.WorkbookName = ""
	// The shard runs under the WORKER's admission: the tenant already
	// passed the coordinator's front-door quota, and older workers
	// reject specs with fields they don't know.
	spec.Tenant = ""
	jobID, err := c.submit(sctx, ls.url, spec)
	if err != nil {
		return err
	}
	// Journaled after the submit succeeded: the remote job now exists
	// and outlives this coordinator (workers retain terminal jobs), so
	// a restarted coordinator can re-adopt it at this address.
	c.journal.append(journalRec{T: "dispatch", Job: j.ex.ID, Shard: sh.base,
		Worker: ls.id, URL: ls.url, Remote: jobID})
	complete := false
	defer func() {
		if !complete {
			// Cancel propagation: whether the job was cancelled or this
			// shard is being requeued, the worker must stop simulating
			// units nobody will merge. The job context may already be
			// dead, so the DELETE gets its own short deadline.
			c.cancelRemote(ls.url, jobID)
		}
	}()
	if err := c.streamShard(sctx, ls, jobID, j, sh); err != nil {
		return err
	}
	complete = true
	return nil
}

// streamShard attaches to a worker-side shard job's stream — fresh
// dispatch and crash re-adoption share this path — and merges each
// line under the shard's global sequence numbers. A campaign shard is
// complete when it delivered one line per unit; an open-ended shard
// when its remote job is done, whose verdict and status it relays.
func (c *Coordinator) streamShard(sctx context.Context, ls lease, jobID string, j *dispatchJob, sh shardSpec) error {
	req, err := http.NewRequestWithContext(sctx, http.MethodGet,
		ls.url+"/v1/jobs/"+jobID+"/stream", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return fmt.Errorf("dist: stream shard from %s: %w", ls.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: stream shard from %s: status %d", ls.id, resp.StatusCode)
	}
	idx := 0
	if err := readLines(resp.Body, func(line []byte) error {
		if j.campaign() && idx >= len(sh.names) {
			return permanentf("dist: worker %s streamed more lines than the shard has units (%d)", ls.id, len(sh.names))
		}
		if err := j.merge(sh.base+idx, line); err != nil {
			return err
		}
		idx++
		return nil
	}); err != nil {
		var pe *permanentError
		if errors.As(err, &pe) || j.lines.Err() != nil {
			return err
		}
		return fmt.Errorf("dist: shard stream from %s broke after %d lines: %w", ls.id, idx, err)
	}
	if j.campaign() && idx == len(sh.names) {
		// A cleanly-EOF'd full-length stream means the remote job reached
		// a terminal state, and the worker closes its trace log right
		// after the result log — so the span NDJSON fetched now is
		// complete. A short or broken stream never reaches this fetch;
		// the requeued shard delivers its spans instead, and the
		// TraceMerger's per-unit dedup absorbs any overlap exactly-once,
		// like result lines.
		if j.tm == nil {
			return nil
		}
		spans, err := c.fetchTrace(sctx, ls, jobID)
		if err != nil {
			return err
		}
		if err := j.tm.Add(sh.base, spans); err != nil {
			return permanentf("dist: merge trace of shard %d from %s: %v", sh.base, ls.id, err)
		}
		return nil
	}
	// The stream ended cleanly: a short campaign shard or an open-ended
	// one. The remote status tells a finished job from a failed one
	// (which fails identically anywhere — surface it) and from a lost
	// or cancelled one (requeue it).
	st, err := c.remoteStatus(ls.url, jobID)
	switch {
	case err != nil:
		return fmt.Errorf("dist: status of the shard on %s after %d lines: %w", ls.id, idx, err)
	case st.State == serve.StateFailed:
		return permanentf("dist: worker %s failed the shard: %s", ls.id, st.Error)
	case st.State != serve.StateDone || j.campaign():
		return fmt.Errorf("dist: worker %s delivered %d lines and ended the shard %s", ls.id, idx, st.State)
	}
	j.verdict = st.Verdict
	j.ex.Publish(func(js *serve.JobStatus) {
		js.Mutation, js.Exploration, js.Vet = st.Mutation, st.Exploration, st.Vet
	})
	return nil
}

// fetchTrace retrieves a completed shard job's span NDJSON.
func (c *Coordinator) fetchTrace(ctx context.Context, ls lease, jobID string) ([]report.Span, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ls.url+"/v1/jobs/"+jobID+"/trace", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: fetch trace from %s: %w", ls.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: fetch trace from %s: status %d", ls.id, resp.StatusCode)
	}
	spans, err := report.DecodeSpans(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("dist: decode trace from %s: %w", ls.id, err)
	}
	return spans, nil
}

// submit POSTs a job spec and returns the remote job ID. 503 maps to
// errBusy (healthy admission control), 4xx to a permanent error.
func (c *Coordinator) submit(ctx context.Context, baseURL string, spec serve.JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return "", fmt.Errorf("dist: submit to %s: %w", baseURL, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusAccepted:
	case resp.StatusCode == http.StatusServiceUnavailable:
		return "", errBusy
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return "", permanentf("dist: worker rejected the shard (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	default:
		return "", fmt.Errorf("dist: submit: status %d", resp.StatusCode)
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("dist: submit response: %w", err)
	}
	if st.ID == "" {
		return "", fmt.Errorf("dist: submit response lacks a job id")
	}
	return st.ID, nil
}

// cancelRemote best-effort cancels a worker-side job.
func (c *Coordinator) cancelRemote(baseURL, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, baseURL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// remoteStatus fetches a worker-side job status.
func (c *Coordinator) remoteStatus(baseURL, jobID string) (serve.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.JobStatus{}, err
	}
	return st, nil
}

// lineForwarder adapts the local fallback's NDJSON output to the merge
// path: each Write is one newline-terminated line for shard-local line
// `idx`, merged under its global sequence number so local and remote
// shards interleave correctly, and lines an earlier worker already
// delivered drop as duplicates.
type lineForwarder struct {
	base int
	idx  int
	j    *dispatchJob
	err  error
}

func (f *lineForwarder) Write(p []byte) (int, error) {
	if f.err != nil {
		return 0, f.err
	}
	if err := f.j.merge(f.base+f.idx, bytes.TrimSuffix(p, []byte("\n"))); err != nil {
		f.err = err
		return 0, err
	}
	f.idx++
	return len(p), nil
}

// runShardLocal executes a shard in-process — the fallback that keeps
// a coordinator with no (surviving) workers behaving exactly like a
// single-node server. It runs exactly what a worker runs for the shard:
// the server's own engine, on the shard's unit list, streaming through
// the forwarder. An open-ended shard publishes its engine's summary
// through the job's seam; a campaign shard publishes nothing, since the
// job-level campaign status is the coordinator's tally. A traced
// shard's spans feed the same TraceMerger re-base as a worker's
// fetched trace.
func (c *Coordinator) runShardLocal(ctx context.Context, j *dispatchJob, sh shardSpec) error {
	fw := &lineForwarder{base: sh.base, j: j}
	lex := j.ex
	lex.Spec.Scripts = sh.names
	lex.Log = fw
	if j.campaign() {
		lex.Publish = nil
	}
	if obsv := j.ex.Observer; obsv != nil {
		lex.Observer = func(unit int) stand.Observer { return obsv(sh.base + unit) }
	}
	lex.Logger = execLogger(j.ex).With("shard", sh.base)
	var trace *bytes.Buffer
	if j.tm != nil {
		trace = &bytes.Buffer{}
		lex.Trace = trace
	}
	verdict, err := c.srv.ExecuteLocal(ctx, lex)
	if err != nil {
		return err
	}
	if fw.err != nil {
		return fw.err
	}
	if !j.campaign() {
		j.verdict = verdict
	}
	if trace != nil {
		spans, err := report.DecodeSpans(trace)
		if err == nil {
			err = j.tm.Add(sh.base, spans)
		}
		if err != nil {
			return permanentf("dist: merge trace of local shard %d: %v", sh.base, err)
		}
	}
	return nil
}
