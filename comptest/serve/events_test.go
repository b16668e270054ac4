package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestEventRing exercises the bounded buffer directly: ordered
// replay, exact-capacity fill, and oldest-first eviction with a
// dropped count once full.
func TestEventRing(t *testing.T) {
	r := newEventRing(3)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(r, "line-%d\n", i)
	}
	lines, dropped := r.snapshot()
	if dropped != 2 {
		t.Errorf("dropped = %d, want 2", dropped)
	}
	var got []string
	for _, l := range lines {
		got = append(got, strings.TrimSuffix(string(l), "\n"))
	}
	if want := []string{"line-2", "line-3", "line-4"}; !equalStrings(got, want) {
		t.Errorf("snapshot = %v, want %v", got, want)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// jobEvents fetches and decodes a job's event NDJSON, asserting every
// record carries the job correlation attr.
func jobEvents(t *testing.T, base, id string) (msgs []string, dropped string) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		if rec["job"] != id {
			t.Errorf("event lacks the job correlation attr: %v", rec)
		}
		msg, _ := rec["msg"].(string)
		msgs = append(msgs, msg)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return msgs, resp.Header.Get("X-Events-Dropped")
}

// TestJobEventsEndpoint runs one campaign and replays its structured
// event log: NDJSON records carrying the job correlation attr through
// the whole lifecycle (accepted → started → done), plus 404 for
// unknown jobs and the eviction-count header.
func TestJobEventsEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1})
	st := ts.submit(t, `{}`)
	ts.wait(t, st.ID)
	// The terminal "job done" event is logged just after the result log
	// closes, so the stream's end does not order it; Close does, by
	// draining the workers, and the Handler keeps answering reads.
	ts.s.Close()

	msgs, dropped := jobEvents(t, ts.url, st.ID)
	if dropped != "0" {
		t.Errorf("X-Events-Dropped = %q, want 0", dropped)
	}
	joined := strings.Join(msgs, ",")
	for _, want := range []string{"job accepted", "job started", "job done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event log missing %q: %v", want, msgs)
		}
	}

	if resp, err := http.Get(ts.url + "/v1/jobs/nope/events"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job events: status %d, want 404", resp.StatusCode)
		}
	}
}

// syncWriter is an io.Writer safe to read while job goroutines write.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestProcessLoggerTee: a configured Options.Logger receives the same
// job events as the per-job ring, with the job attr attached — the
// seam `-log-format json` wires to stderr.
func TestProcessLoggerTee(t *testing.T) {
	var buf syncWriter
	logger, err := obs.NewLogger(&buf, obs.LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Options{Workers: 1, Logger: logger})
	st := ts.submit(t, `{}`)
	ts.wait(t, st.ID)
	ts.s.Close() // drains the workers: "job done" is logged

	text := buf.String()
	if !strings.Contains(text, `"msg":"job done"`) || !strings.Contains(text, `"job":"`+st.ID+`"`) {
		t.Errorf("process log lacks the job's terminal event:\n%s", text)
	}
}

// TestSLOEndpoint evaluates /slo after a real job against the
// deterministic fake clock: the queue-wait histogram holds exactly one
// 5-second sample, so the default 30s bound passes and a 1s override
// fails — and the text rendering and malformed-objective rejection both
// work end to end.
func TestSLOEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 1, Now: fakeClock(5 * time.Second)})
	st := ts.submit(t, `{}`)
	ts.wait(t, st.ID)

	var rep obs.SLOReport
	code, body := getBody(t, ts.url+"/slo")
	if code != http.StatusOK {
		t.Fatalf("/slo: status %d", code)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(DefaultObjectives) {
		t.Fatalf("default objectives: %+v", rep.Results)
	}
	if !rep.Pass {
		t.Errorf("default objectives failed on a healthy server: %s", body)
	}

	// Override: the 5s queue wait violates a 1s bound. (%3A%3C%3D = ":<=")
	code, body = getBody(t, ts.url+"/slo?objective="+MetricQueueWait+"%3Ap95%3C%3D1")
	if code != http.StatusOK {
		t.Fatalf("/slo override: status %d", code)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Pass || rep.Results[0].Count != 1 {
		t.Errorf("violated override: %s", body)
	}

	code, body = getBody(t, ts.url+"/slo?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), "SLO: pass") {
		t.Errorf("/slo text: status %d\n%s", code, body)
	}

	if code, body := getBody(t, ts.url+"/slo?objective=garbage"); code != http.StatusBadRequest {
		t.Errorf("malformed objective: status %d\n%s", code, body)
	}
}
