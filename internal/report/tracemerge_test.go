package report

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// unitSpec drives the synthetic traces: one unit with an init window,
// one step, and a total duration.
type unitSpec struct {
	name    string
	initNS  int64
	durNS   int64
	verdict string
}

// emitUnit writes one unit's subtree the way comptest's Tracer does:
// unit span at the timeline base, init and step children at absolute
// offsets from the same base. Returns the advanced base.
func emitUnit(sink TraceSink, seq int, base int64, u unitSpec) int64 {
	uid := "c/u" + strconv.Itoa(seq)
	sink.Span(Span{ID: uid, Parent: "c", Kind: SpanUnit, Name: u.name,
		Script: u.name, Stand: "paper_stand", DUT: "central_locking",
		StartNS: base, DurNS: u.durNS, Verdict: u.verdict})
	sink.Span(Span{ID: uid + "/init", Parent: uid, Kind: SpanStep, Name: "init",
		StartNS: base, DurNS: u.initNS})
	sink.Span(Span{ID: uid + "/s0", Parent: uid, Kind: SpanStep, Name: "step",
		StartNS: base + u.initNS, DurNS: u.durNS - u.initNS, Verdict: u.verdict})
	return base + u.durNS
}

// singleNode renders the reference trace: all units on one timeline,
// closed by the campaign span.
func singleNode(units []unitSpec) []byte {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	var base int64
	fail := len(units) == 0
	for seq, u := range units {
		base = emitUnit(sw, seq, base, u)
		if u.verdict != "pass" {
			fail = true
		}
	}
	verdict := "pass"
	if fail {
		verdict = "fail"
	}
	sw.Span(Span{ID: "c", Kind: SpanCampaign, StartNS: 0, DurNS: base, Verdict: verdict})
	return buf.Bytes()
}

// shardStream renders the trace a worker produces for one shard: the
// same units renumbered from local 0 on a local timeline, closed by the
// shard's own campaign span (which the merger must drop).
func shardStream(units []unitSpec) []Span {
	var col SpanCollector
	var base int64
	fail := len(units) == 0
	for seq, u := range units {
		base = emitUnit(&col, seq, base, u)
		if u.verdict != "pass" {
			fail = true
		}
	}
	verdict := "pass"
	if fail {
		verdict = "fail"
	}
	col.Span(Span{ID: "c", Kind: SpanCampaign, StartNS: 0, DurNS: base, Verdict: verdict})
	return col.Spans()
}

var fourUnits = []unitSpec{
	{name: "lock_all", initNS: 10, durNS: 100, verdict: "pass"},
	{name: "unlock_all", initNS: 20, durNS: 200, verdict: "pass"},
	{name: "crash_lock", initNS: 30, durNS: 300, verdict: "pass"},
	{name: "speed_lock", initNS: 40, durNS: 400, verdict: "pass"},
}

// TestTraceMergerByteIdentical: two shard streams, delivered out of
// order, reassemble into exactly the bytes of the single-node trace.
func TestTraceMergerByteIdentical(t *testing.T) {
	want := singleNode(fourUnits)
	var buf bytes.Buffer
	m := NewTraceMerger(NewSpanWriter(&buf))
	// Later shard first: its units must buffer until shard 0 merges.
	if err := m.Add(2, shardStream(fourUnits[2:])); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("units 2-3 released before the first shard: %s", buf.Bytes())
	}
	if err := m.Add(0, shardStream(fourUnits[:2])); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 12 { // 4 units x 3 spans
		t.Errorf("released %d spans once the gap filled, want 12", got)
	}
	m.Flush()
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("merged trace differs from single-node:\n got: %s\nwant: %s", got, want)
	}
}

// TestTraceMergerDedup: a requeued shard re-delivers every unit; the
// duplicates must be dropped per unit subtree, leaving the output
// byte-identical, exactly like the result Merger drops re-sent lines.
func TestTraceMergerDedup(t *testing.T) {
	want := singleNode(fourUnits)
	var buf bytes.Buffer
	m := NewTraceMerger(NewSpanWriter(&buf))
	if err := m.Add(0, shardStream(fourUnits[:2])); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(0, shardStream(fourUnits[:2])); err != nil { // requeue re-delivery
		t.Fatal(err)
	}
	if err := m.Add(2, shardStream(fourUnits[2:])); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("merged trace with re-delivered shard differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestTraceMergerFailVerdict: one failing unit anywhere makes the
// closing campaign span fail, matching the single-node Tracer.
func TestTraceMergerFailVerdict(t *testing.T) {
	units := append([]unitSpec(nil), fourUnits...)
	units[3].verdict = "fail"
	want := singleNode(units)
	var buf bytes.Buffer
	m := NewTraceMerger(NewSpanWriter(&buf))
	if err := m.Add(0, shardStream(units[:2])); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(2, shardStream(units[2:])); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("failing merged trace differs:\n got: %s\nwant: %s", got, want)
	}
}

// TestTraceMergerEmpty: no units at all is a failing campaign of zero
// duration — the Tracer's own rule for an empty campaign.
func TestTraceMergerEmpty(t *testing.T) {
	var col SpanCollector
	m := NewTraceMerger(&col)
	m.Flush()
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("empty merge released %d spans, want 1", len(spans))
	}
	c := spans[0]
	if c.Kind != SpanCampaign || c.Verdict != "fail" || c.DurNS != 0 {
		t.Errorf("empty campaign span = %+v, want failing zero-duration campaign", c)
	}
}

// TestTraceMergerFlushPastGaps: a shard that never delivered leaves a
// gap; Flush still releases the buffered later units in order.
func TestTraceMergerFlushPastGaps(t *testing.T) {
	var col SpanCollector
	m := NewTraceMerger(&col)
	if err := m.Add(2, shardStream(fourUnits[2:])); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	var unitIDs []string
	for _, s := range col.Spans() {
		if s.Kind == SpanUnit {
			unitIDs = append(unitIDs, s.ID)
		}
	}
	if len(unitIDs) != 2 || unitIDs[0] != "c/u2" || unitIDs[1] != "c/u3" {
		t.Errorf("unit IDs after gap flush = %v, want [c/u2 c/u3]", unitIDs)
	}
	// The timeline restarts at 0 for the first released unit — gaps
	// contribute no duration, mirroring Tracer.Flush skipping them.
	if col.Spans()[0].StartNS != 0 {
		t.Errorf("first unit after gap starts at %d, want 0", col.Spans()[0].StartNS)
	}
}

// TestTraceMergerMalformed: protocol violations surface as errors, not
// silent corruption.
func TestTraceMergerMalformed(t *testing.T) {
	var col SpanCollector
	m := NewTraceMerger(&col)
	if err := m.Add(0, []Span{{ID: "c/u0/s0", Parent: "c/u0", Kind: SpanStep}}); err == nil {
		t.Error("orphan step span accepted")
	}
	if err := m.Add(0, []Span{{ID: "unit-7", Kind: SpanUnit}}); err == nil {
		t.Error("non-path unit ID accepted")
	}
	if err := m.Add(0, []Span{{ID: "c/u0", Kind: "weird"}}); err == nil {
		t.Error("unknown span kind accepted")
	}
	// Step IDs outside "<unit>/": one with no separator, one that lands
	// in another unit's namespace once "c/u0" is rebased to "c/u5".
	for _, id := range []string{"zzz", "c/u00/s1"} {
		err := m.Add(5, []Span{
			{ID: "c/u0", Parent: "c", Kind: SpanUnit},
			{ID: id, Parent: "c/u0", Kind: SpanStep},
		})
		if err == nil {
			t.Errorf("step %q under unit c/u0 accepted", id)
		}
	}
	if len(col.Spans()) != 0 {
		t.Errorf("malformed streams released spans: %+v", col.Spans())
	}
}

// FuzzTraceMergerAdd decodes fuzzed span NDJSON and merges it as a
// shard stream, twice (a requeue re-delivery at another base). It must
// never panic, and every released step must lie under the unit span
// released just before it. Seeds beyond the clean two-unit shard are
// in testdata/fuzz/FuzzTraceMergerAdd.
func FuzzTraceMergerAdd(f *testing.F) {
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	for _, s := range shardStream(fourUnits[:2]) {
		sw.Span(s)
	}
	f.Add(uint16(0), buf.Bytes())
	f.Fuzz(func(t *testing.T, base uint16, data []byte) {
		spans, err := DecodeSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		var col SpanCollector
		m := NewTraceMerger(&col)
		m.Add(int(base), spans)
		m.Add(0, spans)
		m.Flush()
		unit := ""
		for _, s := range col.Spans() {
			switch s.Kind {
			case SpanUnit:
				unit = s.ID
			case SpanStep:
				if s.Parent != unit || !strings.HasPrefix(s.ID, s.Parent+"/") {
					t.Fatalf("step %q (parent %q) released outside unit %q", s.ID, s.Parent, unit)
				}
			}
		}
	})
}
