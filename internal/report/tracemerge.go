package report

import (
	"fmt"
	"strconv"
	"strings"
)

// TraceMerger reassembles span streams into the one campaign → unit →
// step tree a single-node traced run produces, byte for byte. It keeps
// the trace's as-if-sequential timeline: each unit subtree is released
// in unit order through a Sequencer and placed where the previous unit
// ended, and Flush closes the trace with the campaign span. comptest's
// Tracer feeds it one unit at a time (AddUnit); the coordinator feeds
// it whole shard streams (Add).
//
// Each shard job is itself a complete traced campaign on its worker, so
// its span stream uses shard-local unit numbering ("c/u0", "c/u1", …)
// and shard-local as-if-sequential times starting at 0. Add re-bases
// both onto the global campaign: shard-local unit i becomes global unit
// base+i (IDs rewritten through the whole subtree), and every span's
// start time is normalised to its unit's own origin. The shard's own
// closing campaign span is dropped.
//
// A requeued shard re-delivers every unit it covers; the Sequencer's
// positional dedup drops the units whose spans already merged. Dedup is
// per unit subtree, not per span — a unit's spans either all merged or
// none did, because Add only ever sees the complete stream of a shard
// whose result stream finished cleanly.
type TraceMerger struct {
	sink  TraceSink
	units *Sequencer[[]Span]
	base  int64 // accumulated global timeline offset, ns
	fail  bool  // any released unit not "pass"
	count int   // units released
}

// NewTraceMerger builds a TraceMerger emitting merged spans to sink.
func NewTraceMerger(sink TraceSink) *TraceMerger {
	m := &TraceMerger{sink: sink}
	m.units = NewSequencer(0, m.release)
	return m
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
	for _, u := range units {
		m.AddUnit(base+u.local, rebase(u, base))
	}
	return nil
}

// AddUnit offers the subtree of global unit seq: its unit span first,
// IDs already numbered for seq, times relative to the unit's start. A
// duplicate is dropped.
func (m *TraceMerger) AddUnit(seq int, subtree []Span) {
	m.units.Add(seq, subtree) // release never fails
}

// release emits one unit subtree at the current timeline base; the
// unit span carries the unit's total duration. The Sequencer serialises
// calls.
func (m *TraceMerger) release(subtree []Span) error {
	for _, s := range subtree {
		s.StartNS += m.base
		m.sink.Span(s)
	}
	unit := subtree[0]
	if unit.Verdict != "pass" {
		m.fail = true
	}
	m.count++
	m.base += unit.DurNS
	return nil
}

// Flush releases any still-buffered units (in sequence order, past the
// gaps a failed or cancelled job never delivered) and closes the trace
// with the campaign span: it fails when any unit failed or no unit ran.
// Call it once, after every unit has been added.
func (m *TraceMerger) Flush() {
	m.units.Drain() // release never fails
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
			if !strings.HasPrefix(s.ID, s.Parent+"/") {
				return nil, fmt.Errorf("report: shard trace: step span %q is not under its unit %q", s.ID, s.Parent)
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
			s.ID = newUID + s.ID[len(oldUID):] // splitUnits checked the prefix
			s.Parent = newUID
		}
		out[i] = s
	}
	return out
}
