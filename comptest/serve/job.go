package serve

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/comptest"
	"repro/comptest/api"
	"repro/comptest/mutation"
)

// The wire types of the job API are canonical in comptest/api and
// aliased here, so serve's exported surface is unchanged while the
// JSON cannot drift from what remote workers and dashboards decode.
const (
	KindCampaign = api.KindCampaign // one comptest.Campaign: every script × one stand
	KindMutate   = api.KindMutate   // mutation.Run: kill matrix, baseline + mutants
	KindExplore  = api.KindExplore  // explore.Run: coverage-guided scenario search
	KindVet      = api.KindVet      // lint.Run: workbook static analysis, one finding per line
)

// JobSpec is the POST /v1/jobs request body (api.JobSpec).
type JobSpec = api.JobSpec

// normalizeSpec resolves the spec's defaults in place and validates
// the cheap invariants. Returns the workbook text to execute. (A free
// function, not a method: JobSpec is an alias of api.JobSpec, and
// methods cannot be declared on another package's type.)
func normalizeSpec(sp *JobSpec) (string, error) {
	switch sp.Kind {
	case "":
		sp.Kind = KindCampaign
	case KindCampaign, KindMutate, KindExplore, KindVet:
	default:
		return "", fmt.Errorf("unknown kind %q (want campaign, mutate, explore or vet)", sp.Kind)
	}
	if sp.Workbook != "" && sp.WorkbookName != "" {
		return "", fmt.Errorf("workbook and workbook_name are mutually exclusive")
	}
	if len(sp.Faults) > 0 && sp.Kind != KindCampaign {
		return "", fmt.Errorf("faults only apply to campaign jobs")
	}
	if len(sp.Scripts) > 0 && sp.Kind != KindCampaign {
		return "", fmt.Errorf("scripts only apply to campaign jobs")
	}
	if len(sp.Oracle) > 0 && sp.Kind != KindExplore {
		return "", fmt.Errorf("oracle only applies to explore jobs")
	}
	if (sp.Seed != 0 || sp.Budget != 0) && sp.Kind != KindExplore {
		return "", fmt.Errorf("seed and budget only apply to explore jobs")
	}
	if sp.Trace && sp.Kind != KindCampaign {
		return "", fmt.Errorf("trace only applies to campaign jobs")
	}
	if sp.DUT == "" {
		if sp.WorkbookName != "" {
			sp.DUT = sp.WorkbookName
		} else {
			sp.DUT = "interior_light"
		}
	}
	if sp.Stand == "" {
		sp.Stand = mutation.DefaultStand(sp.DUT)
	}
	if sp.Parallelism < 0 {
		return "", fmt.Errorf("parallelism must be >= 0, got %d", sp.Parallelism)
	}
	wb := sp.Workbook
	if wb == "" {
		name := sp.WorkbookName
		if name == "" {
			name = sp.DUT
		}
		var err error
		if wb, err = comptest.BuiltinWorkbook(name); err != nil {
			return "", err
		}
	}
	return wb, nil
}

// State is a job's lifecycle phase (api.State).
type State = api.State

const (
	StateQueued    = api.StateQueued
	StateRunning   = api.StateRunning
	StateDone      = api.StateDone      // engine completed; see Verdict
	StateFailed    = api.StateFailed    // engine error (red baseline, build failure, …)
	StateCancelled = api.StateCancelled // DELETE or server shutdown
)

// Status aliases: the per-engine summary blocks and the status
// envelope of GET /v1/jobs/{id}.
type (
	CampaignStatus    = api.CampaignStatus
	MutationStatus    = api.MutationStatus
	VetStatus         = api.VetStatus
	ExplorationStatus = api.ExplorationStatus
	ShardStatus       = api.ShardStatus
	JobStatus         = api.JobStatus
)

// Job is one submitted execution, owned by the server.
type Job struct {
	id   string
	spec JobSpec
	art  *Artifact
	log  *resultLog
	// trace is the span NDJSON log of a "trace": true campaign job;
	// nil otherwise.
	trace *resultLog
	// events buffers the job's structured log records (bounded ring);
	// logger writes into it (and the process log) with the job attr
	// attached. Both are set before the job becomes visible and never
	// change.
	events    *eventRing
	logger    *slog.Logger
	submitted time.Time // acceptance instant, for queue-wait latency
	// recovered marks a job restored from a journal (Server.Restore);
	// surfaced on JobStatus so clients can tell a replayed result log
	// from a live one. Set before the job becomes visible.
	recovered bool
	// onFinish, when non-nil, runs exactly once after the job reaches
	// its terminal state and its logs are closed (the server's
	// persistence + quota-release hook). Set before the job becomes
	// visible.
	onFinish func()

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	state   State  // guarded by mu
	verdict string // guarded by mu
	errmsg  string // guarded by mu
	// summary holds the blocks published through Execution.Publish;
	// Status reads only its summary blocks.
	summary JobStatus // guarded by mu
}

// publish is the job's Execution.Publish: update runs under mu on the
// summary. Published blocks are never written again, so Status
// snapshots share them.
func (j *Job) publish(update func(*JobStatus)) {
	j.mu.Lock()
	update(&j.summary)
	j.mu.Unlock()
}

// currentState reads the state without the full Status snapshot —
// the cheap accessor for eviction and health scans.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setState transitions a non-terminal job.
func (j *Job) setState(s State) {
	j.mu.Lock()
	if !api.Terminal(j.state) {
		j.state = s
	}
	j.mu.Unlock()
}

// finish records the terminal state and closes the result log, ending
// every attached stream. Idempotent: a job can be finished both by the
// cancel handler (while queued) and by the worker that later dequeues
// it — only the first call wins.
func (j *Job) finish(s State, verdict, errmsg string) {
	j.mu.Lock()
	if api.Terminal(j.state) {
		j.mu.Unlock()
		return
	}
	j.state = s
	j.verdict = verdict
	j.errmsg = errmsg
	j.mu.Unlock()
	j.log.close()
	if j.trace != nil {
		j.trace.close()
	}
	if j.onFinish != nil {
		j.onFinish()
	}
}

// Status snapshots the job for the API. The summary blocks are
// shared with the job, not copied: a published block is never written
// again (Execution.Publish).
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		Kind:        j.spec.Kind,
		State:       j.state,
		Verdict:     j.verdict,
		Error:       j.errmsg,
		Reports:     j.log.len(),
		Workbook:    j.art.Key,
		Stand:       j.spec.Stand,
		DUT:         j.spec.DUT,
		Tenant:      j.spec.Tenant,
		Campaign:    j.summary.Campaign,
		Mutation:    j.summary.Mutation,
		Exploration: j.summary.Exploration,
		Vet:         j.summary.Vet,
		Shards:      j.summary.Shards,
		Recovered:   j.recovered,
	}
}

// --------------------------------------------------------------- results --

// resultLog is a job's append-only NDJSON buffer with broadcast: the
// executing job appends lines through the io.Writer side (one Write
// call per line — the comptest.NDJSON contract), while any number of
// stream handlers replay from the start and block for more until the
// log closes. This is what makes GET /v1/jobs/{id}/stream attachable
// at any time, including after the job finished.
type resultLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	lines  [][]byte // guarded by mu
	closed bool     // guarded by mu
	// onAppend, when non-nil, observes every appended line (the
	// server's throughput counters and, when persistence is wired, the
	// journal hook). Set before the first Write and never changed
	// after; in particular, Server.Restore preloads recovered lines
	// BEFORE attaching it, so replayed history is not re-journaled.
	onAppend func(line []byte)
}

func newResultLog() *resultLog {
	l := &resultLog{}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Write appends one complete NDJSON line. Implements io.Writer for
// comptest.NDJSON, which issues exactly one Write per result.
func (l *resultLog) Write(p []byte) (int, error) {
	line := append([]byte(nil), p...)
	l.mu.Lock()
	l.lines = append(l.lines, line)
	l.cond.Broadcast()
	l.mu.Unlock()
	if l.onAppend != nil {
		l.onAppend(line)
	}
	return len(p), nil
}

// preload seeds the log with recovered history (Server.Restore).
// Called before the log is visible to readers and before onAppend is
// attached, so replayed lines reach streams but not the hooks.
func (l *resultLog) preload(lines [][]byte) {
	l.mu.Lock()
	l.lines = append(l.lines, lines...)
	l.mu.Unlock()
}

// close marks the log complete and wakes every waiting reader.
func (l *resultLog) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *resultLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// wake broadcasts under the log mutex. The lock is what makes the
// wakeup reliable: a reader is then provably either before its
// ctx.Err() check (and will see the cancellation) or parked in Wait
// (and will receive the broadcast) — never in between, where a bare
// Broadcast would be lost and leave the reader blocked until the next
// Write.
func (l *resultLog) wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// next blocks until line i exists (returning it) or the log is closed
// with fewer lines / ctx is cancelled (returning ok == false). Callers
// must arrange for the cond to be broadcast on ctx cancellation
// (context.AfterFunc), or next would block past the client disconnect.
func (l *resultLog) next(ctx context.Context, i int) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, false
		}
		if i < len(l.lines) {
			return l.lines[i], true
		}
		if l.closed {
			return nil, false
		}
		l.cond.Wait()
	}
}

// trimPrefix strips the library's error prefix for API messages.
func trimPrefix(err error) string {
	return strings.TrimPrefix(err.Error(), "comptest: ")
}
