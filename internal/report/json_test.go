package report

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestJSONRoundTrip pins the NDJSON wire format of the campaign
// service: encode → decode must preserve verdicts, step results and
// check statuses exactly.
func TestJSONRoundTrip(t *testing.T) {
	r := sample()
	r.Steps[1].Checks = append(r.Steps[1].Checks,
		Check{Signal: "int_ill", Method: "get_u", Expected: "[8.4, 13.2] V",
			Measured: "-", Verdict: Skip, Detail: "context canceled"},
		Check{Signal: "ds_fl", Method: "get_t", Expected: "300 s",
			Measured: "", Verdict: Error, Detail: "no edge"})

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("WriteJSON must emit exactly one newline-terminated line:\n%q", line)
	}
	back, err := DecodeJSON([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Errorf("round trip changed the report:\n got %#v\nwant %#v", back, r)
	}
}

// TestJSONRoundTripFatal covers the aborted-run shape: FatalErr set,
// no steps executed.
func TestJSONRoundTripFatal(t *testing.T) {
	r := &Report{Script: "S", Stand: "paper_stand", FatalErr: "init: boom"}
	b, err := EncodeJSON(r)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"fatal":"init: boom"`) {
		t.Errorf("fatal missing from %s", b)
	}
	if !strings.Contains(string(b), `"passed":false`) {
		t.Errorf("derived passed flag missing from %s", b)
	}
	back, err := DecodeJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.FatalErr != r.FatalErr || back.Passed() {
		t.Errorf("fatal round trip: %#v", back)
	}
}

// TestJSONFixture pins the encoded fields against a known report so
// the wire format cannot drift silently.
func TestJSONFixture(t *testing.T) {
	b, err := EncodeJSON(sample())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"script":"InteriorIllumination"`,
		`"stand":"paper_stand"`,
		`"dut":"interior_light"`,
		`"passed":false`,
		`"nr":7`,
		`"verdict":"PASS"`,
		`"verdict":"FAIL"`,
		`"detail":"below limit"`,
		`"applied":["ign_st put_can(data=0001B) via CAN1"]`,
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoded report lacks %s:\n%s", want, b)
		}
	}
}

// TestJSONStream decodes a multi-report NDJSON stream line by line —
// exactly what a client of GET /v1/jobs/{id}/stream does.
func TestJSONStream(t *testing.T) {
	var buf bytes.Buffer
	reports := []*Report{sample(), {Script: "Second", Stand: "mini_bench"}}
	for _, r := range reports {
		if err := WriteJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	sc := bufio.NewScanner(&buf)
	var got []*Report
	for sc.Scan() {
		r, err := DecodeJSON(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != 2 || got[0].Script != "InteriorIllumination" || got[1].Script != "Second" {
		t.Errorf("stream decode: %#v", got)
	}
	if !reflect.DeepEqual(got[0], reports[0]) {
		t.Error("stream decode changed the first report")
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	for _, bad := range []string{
		``,
		`{`,
		`{"script":"S","steps":[{"checks":[{"verdict":"MAYBE"}]}]}`,
		`{"error":"job failed"}`,          // an error object is not a report
		`{"script":"S"}{"script":"T"}`,    // two lines glued by a lost newline
		`{"script":"S"} trailing garbage`, // trailing junk
	} {
		if _, err := DecodeJSON([]byte(bad)); err == nil {
			t.Errorf("DecodeJSON(%q) accepted", bad)
		}
	}
	if _, err := ParseVerdict("PASSED"); err == nil {
		t.Error("ParseVerdict accepted PASSED")
	}
	for _, v := range []Verdict{Pass, Fail, Error, Skip} {
		got, err := ParseVerdict(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVerdict(%s) = %v, %v", v, got, err)
		}
	}
}

// FuzzDecodeJSON feeds arbitrary bytes to the worker result parser.
// It must never panic, and any line it accepts must re-encode and
// decode to an equal Report. The seed corpus in
// testdata/fuzz/FuzzDecodeJSON holds EncodeJSON lines of the builtin
// workbooks' reports on their default stands, clean and faulted.
func FuzzDecodeJSON(f *testing.F) {
	b, err := EncodeJSON(sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := DecodeJSON(line)
		if err != nil {
			return
		}
		b, err := EncodeJSON(r)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", line, err)
		}
		back, err := DecodeJSON(b)
		if err != nil {
			t.Fatalf("re-encoded %q does not decode: %v", b, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Fatalf("round trip of %q changed the report:\n got %#v\nwant %#v", line, back, r)
		}
	})
}
