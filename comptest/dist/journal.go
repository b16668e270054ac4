package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/comptest/serve"
	"repro/internal/obs"
)

// The durable coordinator's state is one append-only NDJSON journal,
// <state-dir>/journal.ndjson. Every coordination event that matters
// for recovery is one record: a job accepted (spec + exact workbook
// text), its campaign plan (the shard size pinned at execute time, so
// a restart with another shard size replays the same chunking), shard
// dispatches and requeues (which worker holds which shard under which
// remote job ID — the re-adoption addresses), every result line the
// line merge released contiguously (so the recovered stream offset is
// simply the record count), worker registrations, and terminal job
// statuses.
//
// On startup the journal is replayed, the folded state is rewritten as
// a compacted snapshot (atomic rename), and appends continue on the
// snapshot — so a second recovery replays the same state plus whatever
// happened since: recovery is idempotent. A truncated final record (a
// coordinator killed mid-append) is discarded, exactly like a
// truncated final stream line from a dying worker.

// journalRec is one journal line. T discriminates; the other fields
// are per-type. One flat struct (not a sum type) keeps the format
// greppable and the reader trivial.
type journalRec struct {
	T   string `json:"t"`
	Job string `json:"job,omitempty"`

	// t=job: acceptance.
	Spec     *serve.JobSpec `json:"spec,omitempty"`
	Workbook string         `json:"workbook,omitempty"`

	// t=plan: the campaign's pinned shard chunking.
	ShardUnits int `json:"shard_units,omitempty"`

	// t=dispatch / t=requeue. Shard is the shard's base line sequence
	// (0 for the one open-ended shard of a non-campaign job).
	Shard  int    `json:"shard"`
	Worker string `json:"worker,omitempty"`
	URL    string `json:"url,omitempty"`
	Remote string `json:"remote,omitempty"`

	// t=line: one result line the line merge released to the job's stream
	// (without the trailing newline; it is NDJSON-in-NDJSON otherwise).
	Line string `json:"line,omitempty"`

	// t=done: the job's final status snapshot.
	Status *serve.JobStatus `json:"status,omitempty"`

	// t=worker / t=worker_gone: fleet membership.
	Info *WorkerInfo `json:"info,omitempty"`
}

// journal is the append side. A nil *journal is valid and drops every
// append — call sites stay unconditional whether or not -state-dir is
// set. Appends go straight to the file descriptor (no userspace
// buffer), so a kill -9 loses at most the record being written. Nothing
// calls fsync: an OS crash or power loss can lose every record not yet
// written back.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	dead bool // kill() latched: simulate a crash for tests

	mRecords *obs.Counter
	mBytes   *obs.Counter
}

func journalPath(stateDir string) string {
	return filepath.Join(stateDir, "journal.ndjson")
}

// openJournal replays an existing journal in stateDir (if any),
// rewrites it as a compacted snapshot of the folded state, and returns
// the replayed state plus the journal opened for appending. The
// snapshot happens BEFORE the caller restores any job, so records
// appended by resumed executions land after a complete base state.
func openJournal(stateDir string) (*replayed, *journal, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("dist: state dir: %v", err)
	}
	path := journalPath(stateDir)
	st, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	if err := writeSnapshot(path, st); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: open journal: %v", err)
	}
	return st, &journal{f: f}, nil
}

// append writes one record. Errors are swallowed after latching the
// journal dead: a full disk degrades durability, not availability —
// the campaign keeps running, the operator sees the journal counters
// stop moving.
func (j *journal) append(rec journalRec) {
	if j == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	data = append(data, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	if _, err := j.f.Write(data); err != nil {
		j.dead = true
		return
	}
	if j.mRecords != nil {
		j.mRecords.Inc()
		j.mBytes.Add(int64(len(data)))
	}
}

// kill makes every later append a silent no-op without closing the
// file: the journal's on-disk content is frozen exactly as a kill -9
// at this instant would leave it. The crash-recovery tests use this to
// simulate an unclean death inside one process.
func (j *journal) kill() {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.dead = true
	j.mu.Unlock()
}

func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.f.Close()
	j.dead = true
}

// ------------------------------------------------------------------ replay --

// recoveredJob is one job's folded journal state.
type recoveredJob struct {
	id       string
	spec     serve.JobSpec
	workbook string
	// shardUnits is the pinned campaign chunking (0 until the plan
	// record lands — a job that crashed before execute started).
	shardUnits int
	// lines is the contiguously-flushed merged prefix, in order,
	// newline-terminated; len(lines) is the resume floor.
	lines [][]byte
	// dispatches holds the latest dispatch per shard base (the
	// re-adoption address); a requeue record erases its shard's entry.
	dispatches map[int]dispatchRec
	// done is the terminal status, nil while in flight.
	done *serve.JobStatus
}

type dispatchRec struct {
	worker, url, remote string
}

// replayed is the full folded journal state.
type replayed struct {
	jobs    map[string]*recoveredJob
	order   []string // acceptance order
	workers []WorkerInfo
}

// replayJournal reads and folds path. A missing file is an empty
// state. A record that fails to parse ends the replay: if it is the
// final line (torn tail of a crashed append) it is silently dropped,
// anywhere else the journal is corrupt and the error says where.
func replayJournal(path string) (*replayed, error) {
	st := &replayed{jobs: map[string]*recoveredJob{}}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("dist: read journal: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20) // workbook records carry whole workbook texts
	lineNo := 0
	var pendingErr error
	for sc.Scan() {
		lineNo++
		if pendingErr != nil {
			// The unparseable record was NOT the final line after all.
			return nil, pendingErr
		}
		var rec journalRec
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			pendingErr = fmt.Errorf("dist: journal %s:%d: %v", path, lineNo, err)
			continue
		}
		st.fold(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dist: read journal: %v", err)
	}
	return st, nil
}

func (st *replayed) fold(rec journalRec) {
	switch rec.T {
	case "job":
		if rec.Spec == nil || rec.Job == "" {
			return
		}
		if _, dup := st.jobs[rec.Job]; dup {
			return
		}
		st.jobs[rec.Job] = &recoveredJob{
			id: rec.Job, spec: *rec.Spec, workbook: rec.Workbook,
			dispatches: map[int]dispatchRec{},
		}
		st.order = append(st.order, rec.Job)
	case "plan":
		// A plan that pins no chunking is one a snapshot could not
		// write back: ignore it, so the fold is a fixed point.
		if j := st.jobs[rec.Job]; j != nil && rec.ShardUnits > 0 {
			j.shardUnits = rec.ShardUnits
		}
	case "dispatch":
		if j := st.jobs[rec.Job]; j != nil {
			j.dispatches[rec.Shard] = dispatchRec{worker: rec.Worker, url: rec.URL, remote: rec.Remote}
		}
	case "requeue":
		if j := st.jobs[rec.Job]; j != nil {
			delete(j.dispatches, rec.Shard)
		}
	case "line":
		if j := st.jobs[rec.Job]; j != nil {
			j.lines = append(j.lines, append([]byte(rec.Line), '\n'))
		}
	case "done":
		if j := st.jobs[rec.Job]; j != nil {
			j.done = rec.Status
		}
	case "worker":
		if rec.Info == nil {
			return
		}
		// Latest registration wins, and a re-registration under the same
		// URL replaces the ghost — the same rule Registry.Register applies.
		kept := st.workers[:0]
		for _, w := range st.workers {
			if w.ID != rec.Info.ID && w.URL != rec.Info.URL {
				kept = append(kept, w)
			}
		}
		st.workers = append(kept, *rec.Info)
	case "worker_gone":
		kept := st.workers[:0]
		for _, w := range st.workers {
			if w.ID != rec.Worker {
				kept = append(kept, w)
			}
		}
		st.workers = kept
	}
}

// writeSnapshot rewrites path as the compacted form of st: current
// fleet membership first, then per job (in acceptance order) its
// acceptance, plan, surviving dispatch addresses, flushed lines and
// terminal status. Written to a temp file and renamed, so a crash
// mid-snapshot leaves the previous journal intact.
func writeSnapshot(path string, st *replayed) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("dist: snapshot journal: %v", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(rec journalRec) {
		if err == nil {
			err = enc.Encode(rec)
		}
	}
	for i := range st.workers {
		emit(journalRec{T: "worker", Info: &st.workers[i]})
	}
	for _, id := range st.order {
		j := st.jobs[id]
		emit(journalRec{T: "job", Job: id, Spec: &j.spec, Workbook: j.workbook})
		if j.shardUnits > 0 {
			emit(journalRec{T: "plan", Job: id, ShardUnits: j.shardUnits})
		}
		shards := make([]int, 0, len(j.dispatches))
		for shard := range j.dispatches {
			shards = append(shards, shard)
		}
		sort.Ints(shards)
		for _, shard := range shards {
			d := j.dispatches[shard]
			emit(journalRec{T: "dispatch", Job: id, Shard: shard,
				Worker: d.worker, URL: d.url, Remote: d.remote})
		}
		for _, line := range j.lines {
			emit(journalRec{T: "line", Job: id, Line: string(line[:len(line)-1])})
		}
		if j.done != nil {
			emit(journalRec{T: "done", Job: id, Status: j.done})
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dist: snapshot journal: %v", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("dist: snapshot journal: %v", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: snapshot journal: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("dist: snapshot journal: %v", err)
	}
	return nil
}
