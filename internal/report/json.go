package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/comptest/api"
)

// The JSON form of a report is the wire format of the campaign service
// (comptest serve): one compact object per report, newline-terminated,
// so a stream of reports is NDJSON. Like the XML writer, mirror types
// keep the exported structs free of encoding tags; verdicts travel as
// their String() form so the stream is self-describing. A stream
// writer (JSONWriter, which comptest's NDJSON sink holds) reuses one
// encoder and one mirror for every line and still makes one Write per
// line.

type jsonCheck struct {
	Signal   string `json:"signal"`
	Method   string `json:"method"`
	Expected string `json:"expected,omitempty"`
	Measured string `json:"measured,omitempty"`
	Verdict  string `json:"verdict"`
	Detail   string `json:"detail,omitempty"`
}

type jsonStep struct {
	Nr      int         `json:"nr"`
	Dt      float64     `json:"dt"`
	Remark  string      `json:"remark,omitempty"`
	Applied []string    `json:"applied,omitempty"`
	Checks  []jsonCheck `json:"checks,omitempty"`
}

type jsonReport struct {
	Script string     `json:"script"`
	Stand  string     `json:"stand"`
	DUT    string     `json:"dut,omitempty"`
	Fatal  string     `json:"fatal,omitempty"`
	Passed bool       `json:"passed"`
	Steps  []jsonStep `json:"steps"`
}

// ErrorLine is the NDJSON wire shape of a campaign unit that produced
// no report (unknown stand, stand construction failure, …): the
// comptest.NDJSON sink emits it, the distributed merge layer rewrites
// its Seq to the global unit numbering, and stream consumers detect it
// by failing DecodeJSON first. Canonical in comptest/api (the public
// wire-type package) and aliased here so the emitting, merging and
// consuming layers cannot drift apart silently.
type ErrorLine = api.ErrorLine

// DecodeErrorLine parses one ErrorLine, rejecting unknown fields (a
// report line must not half-decode as an error line).
func DecodeErrorLine(data []byte) (ErrorLine, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var el ErrorLine
	if err := dec.Decode(&el); err != nil {
		return ErrorLine{}, fmt.Errorf("report: decode error line: %v", err)
	}
	return el, nil
}

// ParseVerdict is the inverse of Verdict.String.
func ParseVerdict(s string) (Verdict, error) {
	switch s {
	case "PASS":
		return Pass, nil
	case "FAIL":
		return Fail, nil
	case "ERROR":
		return Error, nil
	case "SKIP":
		return Skip, nil
	}
	return 0, fmt.Errorf("report: unknown verdict %q", s)
}

// EncodeJSON renders the report as one compact JSON object (no trailing
// newline). The "passed" field is derived from the verdicts on encode
// and ignored on decode.
func EncodeJSON(r *Report) ([]byte, error) {
	var m jsonMirror
	return json.Marshal(m.fill(r))
}

// WriteJSON writes the report as one NDJSON line.
func WriteJSON(w io.Writer, r *Report) error {
	return NewJSONWriter(w).Write(r)
}

// JSONWriter writes reports as NDJSON lines to one writer, reusing its
// mirror of the report and its encoder from line to line, so a stream
// of reports costs no per-step or per-check garbage. Each report is
// written with exactly one Write call: EncodeJSON's bytes plus '\n'.
// A JSONWriter is not safe for concurrent use.
type JSONWriter struct {
	enc *json.Encoder
	m   jsonMirror
}

// NewJSONWriter returns a JSONWriter over w.
func NewJSONWriter(w io.Writer) *JSONWriter {
	return &JSONWriter{enc: json.NewEncoder(w)}
}

// Write writes r as one line. A report that cannot be encoded (a
// non-finite Dt) fails as EncodeJSON does, and nothing is written.
func (jw *JSONWriter) Write(r *Report) error {
	return jw.enc.Encode(jw.m.fill(r))
}

// WriteErrorLine writes e as one line, as json.Marshal renders it.
func (jw *JSONWriter) WriteErrorLine(e *ErrorLine) error {
	return jw.enc.Encode(e)
}

// jsonMirror is the one mapping from a Report to its wire shape. Its
// step slice and its check slab are reused by the next fill; each step
// gets a capped window of the slab.
type jsonMirror struct {
	x      jsonReport
	steps  []jsonStep
	checks []jsonCheck
}

// fill mirrors r into m and returns the mirror, valid until the next
// fill.
func (m *jsonMirror) fill(r *Report) *jsonReport {
	n := 0
	for i := range r.Steps {
		n += len(r.Steps[i].Checks)
	}
	if m.steps == nil || cap(m.steps) < len(r.Steps) {
		m.steps = make([]jsonStep, 0, len(r.Steps))
	}
	if cap(m.checks) < n {
		m.checks = make([]jsonCheck, n)
	}
	steps, checks := m.steps[:len(r.Steps)], m.checks[:n]
	off := 0
	for i := range r.Steps {
		s := &r.Steps[i]
		js := jsonStep{Nr: s.Nr, Dt: s.Dt, Remark: s.Remark, Applied: s.Applied}
		if len(s.Checks) > 0 {
			js.Checks = checks[off : off+len(s.Checks) : off+len(s.Checks)]
			for j := range s.Checks {
				c := &s.Checks[j]
				js.Checks[j] = jsonCheck{Signal: c.Signal, Method: c.Method,
					Expected: c.Expected, Measured: c.Measured,
					Verdict: c.Verdict.String(), Detail: c.Detail}
			}
			off += len(s.Checks)
		}
		steps[i] = js
	}
	m.x = jsonReport{Script: r.Script, Stand: r.Stand, DUT: r.DUT,
		Fatal: r.FatalErr, Passed: r.Passed(), Steps: steps}
	return &m.x
}

// DecodeJSON parses one JSON report line produced by EncodeJSON.
// Unknown fields are rejected so stream corruption (an error object, a
// truncated line) surfaces as an error instead of a zero report.
func DecodeJSON(data []byte) (*Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var x jsonReport
	if err := dec.Decode(&x); err != nil {
		return nil, fmt.Errorf("report: decode: %v", err)
	}
	// Two NDJSON lines glued together by a lost newline must not decode
	// as one valid report with the second silently dropped.
	if dec.More() {
		return nil, fmt.Errorf("report: decode: trailing data after the report object")
	}
	r := &Report{Script: x.Script, Stand: x.Stand, DUT: x.DUT, FatalErr: x.Fatal}
	for _, js := range x.Steps {
		s := StepResult{Nr: js.Nr, Dt: js.Dt, Remark: js.Remark}
		if len(js.Applied) > 0 { // "applied":[] decodes as omitted, as encoded
			s.Applied = js.Applied
		}
		for _, jc := range js.Checks {
			v, err := ParseVerdict(jc.Verdict)
			if err != nil {
				return nil, fmt.Errorf("report: decode %s step %d: %v", x.Script, js.Nr, err)
			}
			s.Checks = append(s.Checks, Check{Signal: jc.Signal, Method: jc.Method,
				Expected: jc.Expected, Measured: jc.Measured, Verdict: v, Detail: jc.Detail})
		}
		r.Steps = append(r.Steps, s)
	}
	return r, nil
}
