package report

import (
	"slices"
	"sync"
)

// Sequencer is the one reorder buffer behind every seq-ordered stream:
// comptest's Ordered sink, the coordinator's result-line merge and the
// TraceMerger (which comptest's Tracer feeds). Values arrive tagged
// with a sequence number, in any order and possibly more than once — a
// requeued shard re-delivers every unit it covers — and each sequence
// is released exactly once, through one callback, in strictly
// increasing order. Early arrivals wait until every lower sequence was
// released or skipped.
//
// Dedup is positional: a sequence below the release cursor, or one
// already pending, is a re-delivery and is dropped, so the first
// delivery wins. No per-sequence history is kept; memory is bounded by
// the out-of-order window, not by the length of the stream.
//
// Sequencer is safe for concurrent use. The callback runs under its
// lock, so whatever it writes to sees one call at a time; it must not
// call back into the Sequencer.
type Sequencer[T any] struct {
	mu      sync.Mutex
	release func(T) error
	next    int         // next sequence to release
	pending map[int]T   // early arrivals; nil until the first one
	skipped map[int]int // first seq of a run never added → one past its last; nil until the first
	err     error       // first release error, latched
}

// NewSequencer returns a Sequencer whose first released sequence is
// floor; sequences below floor count as already released (a resumed
// stream holds them) and drop as duplicates. It makes no map: a stream
// that arrives in order never needs one.
func NewSequencer[T any](floor int, release func(T) error) *Sequencer[T] {
	return &Sequencer[T]{release: release, next: floor}
}

// Add offers v as sequence seq and releases every value whose turn has
// come. accepted is false for a duplicate. The first release error
// latches: it is returned by this and every later call, and nothing is
// accepted after it.
func (s *Sequencer[T]) Add(seq int, v T) (accepted bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false, s.err
	}
	if seq == s.next {
		// In order: nothing is pending or skipped at the cursor (every
		// call ends in a flush), so v goes out without entering pending,
		// whose values a large T would make the map store indirectly.
		s.next++
		if err := s.release(v); err != nil {
			s.err = err
			return true, err
		}
		return true, s.flush()
	}
	if _, dup := s.pending[seq]; dup || seq < s.next {
		return false, nil
	}
	if s.pending == nil {
		s.pending = map[int]T{}
	}
	s.pending[seq] = v
	return true, s.flush()
}

// Skip declares that sequences [from, to) will never be added, so
// release passes over them instead of waiting. Skipped runs must not
// overlap one another; empty runs are no-ops.
func (s *Sequencer[T]) Skip(from, to int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	from = max(from, s.next)
	if from >= to {
		return nil
	}
	if s.skipped == nil {
		s.skipped = map[int]int{}
	}
	s.skipped[from] = to
	return s.flush()
}

// flush releases from the cursor while the next sequence is pending or
// starts a skipped run. Caller holds s.mu.
func (s *Sequencer[T]) flush() error {
	for {
		if v, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			if err := s.release(v); err != nil {
				s.err = err
				return err
			}
			continue
		}
		to, ok := s.skipped[s.next]
		if !ok {
			return nil
		}
		delete(s.skipped, s.next)
		s.next = to
	}
}

// Drain releases every still-pending value in sequence order, past the
// gaps no delivery filled (a failed or cancelled stream), and leaves
// nothing pending. Call it once the stream has ended.
func (s *Sequencer[T]) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	seqs := make([]int, 0, len(s.pending))
	for seq := range s.pending {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		if _, ok := s.pending[seq]; !ok {
			continue // released by the flush of an earlier gap
		}
		s.next = seq
		if err := s.flush(); err != nil {
			return err
		}
	}
	return nil
}

// Pending returns the number of values buffered behind a gap.
func (s *Sequencer[T]) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Err returns the latched release error, or nil.
func (s *Sequencer[T]) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
