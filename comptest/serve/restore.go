package serve

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"repro/comptest/api"
	"repro/internal/obs"
)

// RestoredJob describes one job rebuilt from a persistence layer's
// journal, for Server.Restore. The durable dist coordinator replays
// its state-dir into these on startup.
type RestoredJob struct {
	// ID is the job's original identifier ("job-000042"). Restore
	// advances the server's ID sequence past it so new submissions
	// never collide with recovered history.
	ID string
	// Spec is the job spec as journaled at acceptance (already
	// normalized — defaults resolved).
	Spec JobSpec
	// Workbook is the exact workbook text the job executes; it feeds
	// the artifact cache like a fresh submission would.
	Workbook string
	// Submitted is the original acceptance instant; zero means "now".
	Submitted time.Time
	// Lines are the result-log lines recovered from the journal, in
	// order, each newline-terminated. For a terminal job this is the
	// full stream; for a resumed job it is the contiguous merged
	// prefix, and the Executor continues from len(Lines).
	Lines [][]byte
	// Status is the journaled terminal status, or nil for a job that
	// was still in flight — such a job is re-enqueued and runs through
	// the server's Executor again (which is where journal-aware
	// resumption happens). A terminal job keeps its state, verdict,
	// error and summary blocks as journaled; the blocks are shared, and
	// never written again.
	Status *JobStatus
}

// Restore installs a recovered job. Terminal jobs become immediately
// readable history (status, stream replay); in-flight jobs re-enter
// the queue with their recovered prefix preloaded, marked recovered so
// the Executor can resume instead of restart. Unlike a submission,
// Restore fires no Accepted hook and the preloaded lines fire no Line
// hook — replay must not re-journal what the journal just said.
//
// Restore is meant for startup, before the Handler takes traffic; it
// fails rather than blocks when the queue cannot take another
// in-flight job.
func (s *Server) Restore(rj RestoredJob) error {
	if rj.ID == "" {
		return fmt.Errorf("serve: restore: job lacks an id")
	}
	terminal := rj.Status != nil
	if terminal && !api.Terminal(rj.Status.State) {
		return fmt.Errorf("serve: restore %s: non-terminal journaled state %q", rj.ID, rj.Status.State)
	}
	art, err := s.cache.Load([]byte(rj.Workbook))
	if err != nil {
		return fmt.Errorf("serve: restore %s: workbook: %v", rj.ID, err)
	}
	state, journaled := StateQueued, JobStatus{}
	if terminal {
		state, journaled = rj.Status.State, *rj.Status
	}
	jobCtx, jobCancel := context.WithCancel(s.ctx)
	job := &Job{
		id:        rj.ID,
		spec:      rj.Spec,
		art:       art,
		log:       newResultLog(),
		events:    newEventRing(eventBuffer),
		ctx:       jobCtx,
		cancel:    jobCancel,
		state:     state,
		verdict:   journaled.Verdict,
		errmsg:    journaled.Error,
		summary:   journaled,
		recovered: true,
	}
	job.submitted = rj.Submitted
	if job.submitted.IsZero() {
		job.submitted = s.now()
	}
	job.log.preload(rj.Lines)
	if rj.Spec.Trace {
		// Span NDJSON is not journaled; a resumed traced job re-collects
		// its spans from re-adopted shards, a terminal one replays empty.
		job.trace = newResultLog()
	}
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
		if h := s.opts.Hooks.Finished; h != nil {
			h(job.Status())
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		jobCancel()
		return fmt.Errorf("serve: restore %s: server is shutting down", rj.ID)
	}
	if _, dup := s.jobs[rj.ID]; dup {
		jobCancel()
		return fmt.Errorf("serve: restore %s: job already present", rj.ID)
	}
	if !terminal && len(s.queue) == cap(s.queue) {
		jobCancel()
		return fmt.Errorf("serve: restore %s: job queue full", rj.ID)
	}
	if n, ok := jobSeq(rj.ID); ok && n > s.seq {
		s.seq = n
	}
	if terminal {
		job.log.close()
		if job.trace != nil {
			job.trace.close()
		}
		jobCancel()
	}
	s.jobs[job.id] = job
	s.order = append(s.order, job.id)
	if !terminal {
		s.queue <- job
	}
	// The enqueue above may already have handed the job to a worker;
	// log the restored state from the local, not the live field.
	job.logger.Info("job restored", "kind", rj.Spec.Kind, "state", state,
		"lines", len(rj.Lines), "tenant", rj.Spec.Tenant)
	return nil
}

// jobSeq extracts the numeric suffix of a "job-%06d" identifier.
func jobSeq(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Recovered reports whether the identified job was installed via
// Restore (vs freshly submitted). Executors use it to decide whether
// to consult their journal for resumption state.
func (s *Server) Recovered(id string) bool {
	job := s.job(id)
	return job != nil && job.recovered
}
