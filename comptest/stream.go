package comptest

import (
	"io"

	"repro/internal/report"
)

// NDJSONSink streams campaign results as newline-delimited JSON: one
// report.Report object per completed unit (report.EncodeJSON), or one
// {"seq","script","stand","error"} object for a unit whose execution
// could not be built. Each result is written with exactly ONE Write
// call, so an io.Writer that treats call boundaries as line boundaries
// (e.g. the campaign service's per-job result log) receives whole
// lines; a plain file or socket simply sees NDJSON. The sink holds one
// report.JSONWriter, whose mirror scratch and encoder every line
// reuses. The Runner serialises Emit calls, so the sink needs no
// locking; wrap it in Ordered to stream in unit order under
// parallelism.
type NDJSONSink struct {
	jw  *report.JSONWriter
	err error
}

// NDJSON builds a streaming NDJSON sink over w.
func NDJSON(w io.Writer) *NDJSONSink { return &NDJSONSink{jw: report.NewJSONWriter(w)} }

// Emit implements Sink. The first write or encode failure latches into
// Err; later results are dropped so a broken pipe does not spam. Units
// that never produced a report travel as report.ErrorLine objects.
func (s *NDJSONSink) Emit(r Result) {
	if s.err != nil {
		return
	}
	if r.Err != nil {
		e := report.ErrorLine{Seq: r.Seq, Stand: r.Unit.Stand, Error: r.Err.Error()}
		if r.Unit.Script != nil {
			e.Script = r.Unit.Script.Name
		}
		s.err = s.jw.WriteErrorLine(&e)
		return
	}
	s.err = s.jw.Write(r.Report)
}

// Err returns the first write or encode failure, or nil.
func (s *NDJSONSink) Err() error { return s.err }
