package report

import (
	"io"
	"sync"
)

// Merger assembles per-unit NDJSON lines arriving from concurrent
// shard streams into one ordered, exactly-once sequence. Every line is
// tagged with the unit's global sequence number; lines are written to
// the underlying writer in strictly increasing sequence order (0, 1,
// 2, …), early arrivals are buffered, and a sequence that was already
// accepted is dropped — that is what makes shard requeue safe: a
// requeued shard re-delivers every unit it covers, and the units that
// made it through before the worker died are deduplicated here instead
// of appearing twice in the merged report stream.
//
// Merger is safe for concurrent use; Add serialises writers, so the
// underlying io.Writer needs no locking of its own (the same contract
// the campaign Runner gives its sinks).
type Merger struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	floor   int // sequences below floor were flushed pre-resume
	pending map[int][]byte
	seen    map[int]bool
	written int
	dupes   int
	err     error
}

// NewMerger builds a Merger writing merged lines to w. Each accepted
// line is written with exactly one Write call (trailing newline
// included, as delivered).
func NewMerger(w io.Writer) *Merger {
	return &Merger{w: w, pending: map[int][]byte{}, seen: map[int]bool{}}
}

// ResumeMerger builds a Merger that continues an interrupted merge:
// sequences below floor were already flushed to the stream by a
// previous incarnation and are dropped as duplicates when shards
// re-deliver them; the first line written goes to sequence floor. This
// is the crash-recovery half of the exactly-once contract — the
// journaled contiguous prefix stays written exactly once while every
// re-adopted or re-run shard replays its full range.
func ResumeMerger(w io.Writer, floor int) *Merger {
	m := NewMerger(w)
	m.next = floor
	m.floor = floor
	return m
}

// Add offers the line for global sequence seq. It returns true when
// the line was accepted (written now or buffered until its turn) and
// false for a duplicate of an already-accepted sequence. The first
// write error latches and is returned by Err and every later Add.
func (m *Merger) Add(seq int, line []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return false, m.err
	}
	if seq < m.floor || m.seen[seq] {
		m.dupes++
		return false, nil
	}
	m.seen[seq] = true
	// Copy: the caller's buffer (a bufio scanner's, typically) is only
	// valid until its next read, while buffered lines live until flush.
	m.pending[seq] = append([]byte(nil), line...)
	for {
		l, ok := m.pending[m.next]
		if !ok {
			return true, nil
		}
		delete(m.pending, m.next)
		if _, err := m.w.Write(l); err != nil {
			m.err = err
			return true, err
		}
		m.next++
		m.written++
	}
}

// Written returns the number of lines flushed to the writer in order.
func (m *Merger) Written() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// Duplicates returns the number of lines dropped as re-deliveries.
func (m *Merger) Duplicates() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dupes
}

// Pending returns the number of buffered out-of-order lines waiting
// for a gap to fill.
func (m *Merger) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// Err returns the latched write error, or nil.
func (m *Merger) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}
