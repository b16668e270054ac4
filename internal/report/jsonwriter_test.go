package report

import (
	"bytes"
	"math"
	"testing"
)

// writeLog records every Write call separately.
type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, bytes.Clone(p))
	return len(p), nil
}

// shapes reads report shapes from fuzz bytes; past the end it reads 0.
type shapes struct {
	b    []byte
	text string
}

func (s *shapes) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *shapes) str() string {
	pool := [...]string{"", "int_ill", `<lamp> & "door"`, "\xff\xfe", "\x00\x1f\x7f", "ü\u2028", s.text}
	return pool[int(s.byte())%len(pool)]
}

func (s *shapes) strs() []string {
	switch n := int(s.byte() % 6); n {
	case 0:
		return nil
	case 1:
		return []string{}
	default:
		out := make([]string, n-1)
		for i := range out {
			out[i] = s.str()
		}
		return out
	}
}

func (s *shapes) checks() []Check {
	switch n := int(s.byte() % 6); n {
	case 0:
		return nil
	case 1:
		return []Check{}
	default:
		out := make([]Check, n-1)
		for i := range out {
			out[i] = Check{Signal: s.str(), Method: s.str(), Expected: s.str(),
				Measured: s.str(), Verdict: Verdict(s.byte() % 5), Detail: s.str()}
		}
		return out
	}
}

func (s *shapes) dt() float64 {
	switch b := s.byte(); b {
	case 253:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 255:
		return math.Inf(-1)
	default:
		return float64(b) / 8
	}
}

func (s *shapes) report() *Report {
	r := &Report{Script: s.str(), Stand: s.str(), DUT: s.str(), FatalErr: s.str()}
	if n := int(s.byte() % 31); n > 0 || s.byte()%2 == 1 {
		r.Steps = make([]StepResult, n)
	}
	for i := range r.Steps {
		r.Steps[i] = StepResult{Nr: int(s.byte()), Dt: s.dt(), Remark: s.str(),
			Applied: s.strs(), Checks: s.checks()}
	}
	return r
}

// FuzzJSONWriter streams a sequence of reports of random shape through
// one reused JSONWriter. Each report must reach the writer as exactly
// one Write of EncodeJSON's bytes plus '\n' — so a report after a
// larger one carries nothing of it — and one EncodeJSON cannot encode
// (a non-finite Dt) must fail as EncodeJSON fails and write nothing.
func FuzzJSONWriter(f *testing.F) {
	// A 20-step report, then a 2-step one: every step applies two lines
	// and checks twice.
	step := []byte{7, 8, 2, 3, 1, 2, 3, 1, 2, 3, 4, 5, 0, 2, 1, 2, 3, 4, 5, 1, 2}
	seq := []byte{1, 2, 3, 0, 20}
	for range 20 {
		seq = append(seq, step...)
	}
	seq = append(append(append(seq, 1, 2, 3, 0, 2), step...), step...)
	f.Add(seq, "<&>")
	f.Add([]byte{6, 6, 6, 6, 2, 7, 253, 1, 3, 4, 0, 0, 0, 0, 0, 1}, "\xc3\x28")
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}, "")
	f.Fuzz(func(t *testing.T, data []byte, text string) {
		s := &shapes{b: data, text: text}
		var w writeLog
		jw := NewJSONWriter(&w)
		for i := 0; i < 8 && (i == 0 || len(s.b) > 0); i++ {
			r := s.report()
			want, wantErr := EncodeJSON(r)
			w.writes = w.writes[:0]
			err := jw.Write(r)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() || len(w.writes) != 0 {
					t.Fatalf("report %d: Write = %v after %d writes, want EncodeJSON's %v and none", i, err, len(w.writes), wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("report %d: Write: %v", i, err)
			}
			if len(w.writes) != 1 {
				t.Fatalf("report %d: %d writes, want 1", i, len(w.writes))
			}
			if got := w.writes[0]; !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("report %d: wrote\n%q\nwant EncodeJSON's\n%q", i, got, want)
			}
		}
	})
}
