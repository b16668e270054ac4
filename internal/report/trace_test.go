package report

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
)

// SpanCollector is a TraceSink that accumulates every span, for tests
// that inspect what a merger or writer released.
type SpanCollector struct {
	mu    sync.Mutex
	spans []Span
}

// Span implements TraceSink.
func (c *SpanCollector) Span(s Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, s)
}

// Spans returns the collected spans in arrival order.
func (c *SpanCollector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	copy(out, c.spans)
	return out
}

// TestSpanWriterRoundTrip: spans written as NDJSON decode back
// identically, one line per span.
func TestSpanWriterRoundTrip(t *testing.T) {
	in := []Span{
		{ID: "c", Kind: SpanCampaign, DurNS: 42, Verdict: "pass"},
		{ID: "c/u0", Parent: "c", Kind: SpanUnit, Name: "s1", Script: "s1",
			Stand: "paper_stand", DUT: "interior_light", StartNS: 0, DurNS: 30, Verdict: "pass"},
		{ID: "c/u0/s1", Parent: "c/u0", Kind: SpanStep, Name: "switch on",
			Step: 1, StartNS: 5, DurNS: 25, Verdict: "fail"},
	}
	var buf bytes.Buffer
	sw := NewSpanWriter(&buf)
	for _, s := range in {
		sw.Span(s)
	}
	if err := sw.Err(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(in) {
		t.Errorf("wrote %d lines, want %d", n, len(in))
	}
	out, err := DecodeSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("span %d round trip: got %+v, want %+v", i, out[i], in[i])
		}
	}
}

// failWriter errors after n successful writes.
type failWriter struct {
	n      int
	writes int
}

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestSpanWriterStickyError: the first write error latches and
// suppresses all further output, and Err reports it.
func TestSpanWriterStickyError(t *testing.T) {
	fw := &failWriter{n: 1}
	sw := NewSpanWriter(fw)
	sw.Span(Span{ID: "a"})
	sw.Span(Span{ID: "b"})
	sw.Span(Span{ID: "c"})
	if err := sw.Err(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Err() = %v, want disk full", err)
	}
	if fw.writes != 2 {
		t.Errorf("writer saw %d writes, want 2 (one good, one failing, rest suppressed)", fw.writes)
	}
}

// TestDecodeSpansRejectsUnknownFields pins the strict wire contract so
// schema drift between coordinator and worker versions surfaces as an
// error, not silent data loss.
func TestDecodeSpansRejectsUnknownFields(t *testing.T) {
	_, err := DecodeSpans(strings.NewReader(`{"id":"c","kind":"campaign","bogus":1,"start_ns":0,"dur_ns":0}` + "\n"))
	if err == nil {
		t.Error("unknown field decoded without error")
	}
}

// TestSpanCollector accumulates in arrival order and copies out.
func TestSpanCollector(t *testing.T) {
	var c SpanCollector
	c.Span(Span{ID: "a"})
	c.Span(Span{ID: "b"})
	got := c.Spans()
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("Spans() = %+v", got)
	}
	got[0].ID = "mutated"
	if c.Spans()[0].ID != "a" {
		t.Error("Spans() exposes internal slice")
	}
}
