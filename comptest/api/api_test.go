package api

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestFixtureRoundTrip freezes the v1 wire format: every fixture under
// testdata/ must decode into its Go type and re-encode to the exact
// same bytes. A diff here means the JSON an old worker or dashboard
// was built against changed — which, within v1, is a bug (add fields
// with omitempty; never rename, retype or reorder).
func TestFixtureRoundTrip(t *testing.T) {
	cases := []struct {
		fixture string
		value   any // pointer to the zero value to decode into
	}{
		{"v1_jobspec.json", &JobSpec{}},
		{"v1_jobstatus.json", &JobStatus{}},
		{"v1_register_request.json", &RegisterRequest{}},
		{"v1_register_response.json", &RegisterResponse{}},
		{"v1_workerinfo.json", &WorkerInfo{}},
		{"v1_errorline.json", &ErrorLine{}},
		{"v1_sloreport.json", &SLOReport{}},
		{"v1_event.json", &Event{}},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.TrimSpace(raw)
			dec := json.NewDecoder(bytes.NewReader(want))
			dec.DisallowUnknownFields()
			if err := dec.Decode(tc.value); err != nil {
				t.Fatalf("decode %s: %v", tc.fixture, err)
			}
			got, err := json.Marshal(tc.value)
			if err != nil {
				t.Fatalf("re-encode %s: %v", tc.fixture, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted for %s:\n fixture: %s\n re-encoded: %s",
					tc.fixture, want, got)
			}
		})
	}
}

// TestSpecZeroValueOmitsEverything pins that a zero JobSpec encodes as
// the empty object — the "all defaults" submission — so adding a field
// without omitempty (which would break old servers' strict decoders)
// fails loudly.
func TestSpecZeroValueOmitsEverything(t *testing.T) {
	got, err := json.Marshal(JobSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "{}" {
		t.Errorf("zero JobSpec encodes as %s, want {}", got)
	}
}

func TestTerminal(t *testing.T) {
	for st, want := range map[State]bool{
		StateQueued: false, StateRunning: false,
		StateDone: true, StateFailed: true, StateCancelled: true,
	} {
		if Terminal(st) != want {
			t.Errorf("Terminal(%s) = %v, want %v", st, !want, want)
		}
	}
}

func TestObjectiveString(t *testing.T) {
	o := Objective{Metric: "comptest_unit_seconds", Quantile: 0.95, Max: 0.5}
	if got, want := o.String(), "comptest_unit_seconds:p95<=0.5"; got != want {
		t.Errorf("Objective.String() = %q, want %q", got, want)
	}
}

func TestDecodeEventLenient(t *testing.T) {
	ev, err := DecodeEvent([]byte(`{"time":"t","level":"WARN","msg":"shard requeued","job":"job-000001","shard":4,"worker":"w-0003","error":"eof","extra":{"nested":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Msg != "shard requeued" || ev.Shard != 4 || ev.Worker != "w-0003" {
		t.Errorf("unexpected decode: %+v", ev)
	}
}
