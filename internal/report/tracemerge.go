package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// TraceMerger is the Merger's sibling for span streams: it reassembles
// per-shard trace fragments into the one campaign → unit → step tree a
// single-node traced run would have produced, byte for byte.
//
// Each shard job is itself a complete traced campaign on its worker, so
// its span stream uses shard-local unit numbering ("c/u0", "c/u1", …)
// and shard-local as-if-sequential times starting at 0. Add re-bases
// both onto the global campaign: shard-local unit i becomes global unit
// base+i (IDs rewritten through the whole subtree), and every span's
// start time is first normalised to its unit's own origin, then placed
// where the previous global unit ended — exactly the accumulation
// comptest's Tracer performs when all units run on one node. The
// shard's own closing campaign span is dropped; Flush emits the global
// one.
//
// Units are released in strict global sequence order and deduplicated
// by sequence, mirroring the result Merger: a requeued shard re-delivers
// every unit it covers, and the units whose spans already merged before
// the worker died must not appear twice. Dedup is per unit subtree, not
// per span — a unit's spans either all merged or none did, because Add
// only ever sees the complete stream of a shard whose result stream
// finished cleanly.
type TraceMerger struct {
	mu      sync.Mutex
	sink    TraceSink
	next    int            // next global unit seq to release
	pending map[int][]Span // buffered unit subtrees, unit-relative times
	seen    map[int]bool   // global seqs accepted (released or buffered)
	base    int64          // accumulated global timeline offset, ns
	fail    bool           // any released unit not "pass"
	count   int            // units released
	written int
	dupes   int
}

// NewTraceMerger builds a TraceMerger emitting merged spans to sink.
func NewTraceMerger(sink TraceSink) *TraceMerger {
	return &TraceMerger{
		sink:    sink,
		pending: map[int][]Span{},
		seen:    map[int]bool{},
	}
}

// Add merges one shard's complete span stream, whose shard-local unit 0
// is global unit base. The spans must be in the shard Tracer's emission
// order: each unit span followed by its step spans, campaign span last.
// Duplicate units (requeue re-delivery) are dropped. A malformed stream
// is a protocol violation and returns an error.
func (m *TraceMerger) Add(base int, spans []Span) error {
	units, err := splitUnits(spans)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range units {
		m.offer(base+u.local, rebase(u, base))
	}
	// Release every buffered unit whose turn has come, accumulating the
	// global timeline exactly like the single-node Tracer.
	for {
		subtree, ok := m.pending[m.next]
		if !ok {
			return nil
		}
		delete(m.pending, m.next)
		m.release(subtree)
		m.next++
	}
}

// offer records one normalised unit subtree under its global sequence,
// dropping duplicates. Caller holds m.mu.
func (m *TraceMerger) offer(seq int, subtree []Span) {
	if m.seen[seq] {
		m.dupes++
		return
	}
	m.seen[seq] = true
	m.pending[seq] = subtree
}

// release emits one unit subtree at the current timeline base. The
// subtree's times are unit-relative; the unit span is first and carries
// the unit's total duration. Caller holds m.mu.
func (m *TraceMerger) release(subtree []Span) {
	for _, s := range subtree {
		s.StartNS += m.base
		m.sink.Span(s)
		m.written++
	}
	unit := subtree[0]
	if unit.Verdict != "pass" {
		m.fail = true
	}
	m.count++
	m.base += unit.DurNS
}

// Flush releases any still-buffered units (in sequence order, past the
// gaps a failed or cancelled job never delivered) and closes the trace
// with the campaign span — the same closing record, with the same
// verdict rule, as comptest's Tracer. Call it once, after every shard
// has been merged.
func (m *TraceMerger) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) > 0 {
		seqs := make([]int, 0, len(m.pending))
		for seq := range m.pending {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		for _, seq := range seqs {
			subtree := m.pending[seq]
			delete(m.pending, seq)
			m.release(subtree)
		}
	}
	verdict := "pass"
	if m.fail || m.count == 0 {
		verdict = "fail"
	}
	m.sink.Span(Span{
		ID:      "c",
		Kind:    SpanCampaign,
		StartNS: 0,
		DurNS:   m.base,
		Verdict: verdict,
	})
}

// Written returns the number of spans released to the sink.
func (m *TraceMerger) Written() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.written
}

// Duplicates returns the number of unit subtrees dropped as
// re-deliveries.
func (m *TraceMerger) Duplicates() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dupes
}

// Pending returns the number of buffered out-of-order unit subtrees.
func (m *TraceMerger) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// shardUnit is one unit subtree cut out of a shard's span stream, still
// in shard-local numbering and shard-local absolute times.
type shardUnit struct {
	local int // shard-local unit index, parsed from "c/u<i>"
	spans []Span
}

// splitUnits cuts a shard's span stream into per-unit subtrees. The
// stream is the shard Tracer's emission order — unit span, then that
// unit's step spans — so grouping is a single pass; the trailing
// campaign span (the shard's own closing record) is discarded.
func splitUnits(spans []Span) ([]shardUnit, error) {
	var units []shardUnit
	for _, s := range spans {
		switch s.Kind {
		case SpanCampaign:
			continue
		case SpanUnit:
			local, err := localIndex(s.ID)
			if err != nil {
				return nil, err
			}
			units = append(units, shardUnit{local: local, spans: []Span{s}})
		case SpanStep:
			if len(units) == 0 || units[len(units)-1].spans[0].ID != s.Parent {
				return nil, fmt.Errorf("report: shard trace: step span %q arrived outside its unit", s.ID)
			}
			last := len(units) - 1
			units[last].spans = append(units[last].spans, s)
		default:
			return nil, fmt.Errorf("report: shard trace: unknown span kind %q", s.Kind)
		}
	}
	return units, nil
}

// localIndex parses the shard-local unit index out of a "c/u<i>" ID.
func localIndex(id string) (int, error) {
	rest, ok := strings.CutPrefix(id, "c/u")
	if !ok {
		return 0, fmt.Errorf("report: shard trace: unit span ID %q is not c/u<i>", id)
	}
	i, err := strconv.Atoi(rest)
	if err != nil || i < 0 {
		return 0, fmt.Errorf("report: shard trace: unit span ID %q is not c/u<i>", id)
	}
	return i, nil
}

// rebase returns the unit subtree renumbered to the global sequence and
// with every start time normalised to the unit's own origin (the
// release step later adds the global timeline base). Span values are
// copied; the caller's slice is never modified.
func rebase(u shardUnit, base int) []Span {
	oldUID := u.spans[0].ID
	newUID := "c/u" + strconv.Itoa(base+u.local)
	origin := u.spans[0].StartNS
	out := make([]Span, len(u.spans))
	for i, s := range u.spans {
		s.StartNS -= origin
		if i == 0 {
			s.ID = newUID
		} else {
			s.ID = newUID + strings.TrimPrefix(s.ID, oldUID)
			s.Parent = newUID
		}
		out[i] = s
	}
	return out
}
