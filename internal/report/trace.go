package report

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Span kinds, from root to leaf. A campaign span parents unit spans,
// a unit span parents its step spans (including the synthetic "init"
// span covering the settle window).
const (
	SpanCampaign = "campaign"
	SpanUnit     = "unit"
	SpanStep     = "step"
)

// Span is one node of a structured execution trace. IDs are
// deterministic path strings ("c", "c/u3", "c/u3/s2"), not random, and
// all times are monotonic simulated-clock offsets in nanoseconds on the
// campaign's as-if-sequential timeline — so a trace of the same
// workbook is byte-identical across reruns and parallelism settings.
type Span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	// Name is the script name on unit spans and the step remark (or
	// "init" for the settle window) on step spans.
	Name   string `json:"name,omitempty"`
	Script string `json:"script,omitempty"`
	Stand  string `json:"stand,omitempty"`
	DUT    string `json:"dut,omitempty"`
	// Step is the script step number (0-based, mirroring StepResult.Nr)
	// on real step spans; the synthetic init span and non-step spans
	// leave it zero and are told apart by Name/ID instead.
	Step    int   `json:"step,omitempty"`
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// Verdict is "pass" or "fail" where a verdict applies (step spans:
	// any failing/erroring check; unit spans: Report.Passed; campaign
	// spans: every unit passed).
	Verdict string `json:"verdict,omitempty"`
}

// TraceSink consumes spans as they are finalised. Implementations must
// tolerate calls from multiple goroutines unless the producer documents
// otherwise (comptest's Tracer serialises emission).
type TraceSink interface {
	Span(Span)
}

// TraceSinkFunc adapts a function to the TraceSink interface.
type TraceSinkFunc func(Span)

// Span implements TraceSink.
func (f TraceSinkFunc) Span(s Span) { f(s) }

// SpanWriter streams spans as NDJSON, one marshalled span per line and
// exactly one Write call per line (the same framing contract as the
// report NDJSON sink). The first write error sticks and suppresses
// further output; check Err after the trace completes.
type SpanWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewSpanWriter returns a SpanWriter emitting to w.
func NewSpanWriter(w io.Writer) *SpanWriter {
	return &SpanWriter{w: w}
}

// Span implements TraceSink.
func (sw *SpanWriter) Span(s Span) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return
	}
	data, err := json.Marshal(s)
	if err != nil {
		sw.err = fmt.Errorf("report: marshal span: %w", err)
		return
	}
	_, sw.err = sw.w.Write(append(data, '\n'))
}

// Err returns the first write error, if any.
func (sw *SpanWriter) Err() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.err
}

// DecodeSpans parses NDJSON produced by SpanWriter.
func DecodeSpans(r io.Reader) ([]Span, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var out []Span
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return out, fmt.Errorf("report: decode span %d: %w", len(out), err)
		}
		out = append(out, s)
	}
	return out, nil
}
