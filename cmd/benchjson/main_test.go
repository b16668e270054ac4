package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchFixture = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU
BenchmarkCampaignMatrix/parallel_1-8         	       3	   3000000 ns/op	  500000 B/op	    1000 allocs/op
BenchmarkCampaignMatrix/parallel_1-8         	       3	   1000000 ns/op	  300000 B/op	    1000 allocs/op
BenchmarkScriptGen-8                         	       3	     50000 ns/op
not a benchmark line
BenchmarkBroken-8                            	   garbage
PASS
ok  	repro	1.234s
`

func TestParseAveragesRepeatedRuns(t *testing.T) {
	doc, err := Parse(strings.NewReader(benchFixture))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	// The GOMAXPROCS "-8" suffix is stripped so baselines from a 1-CPU
	// container and multi-core CI runners key identically.
	m := doc.Benchmarks["BenchmarkCampaignMatrix/parallel_1"]
	if m == nil {
		t.Fatal("campaign benchmark missing")
	}
	if m.NsPerOp != 2000000 || m.BytesPerOp != 400000 || m.AllocsPerOp != 1000 || m.Runs != 2 {
		t.Errorf("averaging wrong: %+v", m)
	}
	g := doc.Benchmarks["BenchmarkScriptGen"]
	if g == nil || g.NsPerOp != 50000 || g.Runs != 1 || g.BytesPerOp != 0 {
		t.Errorf("no-benchmem line wrong: %+v", g)
	}
}

func TestParseNormalizesGOMAXPROCSSuffix(t *testing.T) {
	// The same benchmark from a suffix-free 1-CPU run and a suffixed
	// multi-core run must merge under one name.
	doc, err := Parse(strings.NewReader(
		"BenchmarkX 3 100 ns/op\nBenchmarkX-4 3 300 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Benchmarks["BenchmarkX"]
	if len(doc.Benchmarks) != 1 || m == nil || m.NsPerOp != 200 || m.Runs != 2 {
		t.Errorf("suffix normalization wrong: %+v", doc.Benchmarks)
	}
}

func TestConvertToFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(benchFixture), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "BENCH.json")
	var stdout strings.Builder
	if err := run([]string{"-o", out, in}, nil, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 2 {
		t.Errorf("file document wrong: %s", data)
	}
}

func TestConvertStdin(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader(benchFixture), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"ns_per_op": 2000000`) {
		t.Errorf("stdout JSON wrong:\n%s", out.String())
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", `{"benchmarks":{
		"BenchmarkA-8":{"ns_per_op":1000,"runs":3},
		"BenchmarkGone-8":{"ns_per_op":5,"runs":3}}}`)
	new_ := write("new.json", `{"benchmarks":{
		"BenchmarkA-8":{"ns_per_op":1500,"runs":3},
		"BenchmarkNew-8":{"ns_per_op":7,"runs":3}}}`)

	var out strings.Builder
	// Report-only: a 50% regression must not produce an error.
	if err := run([]string{"-compare", old, new_}, nil, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"+50.0%", "BenchmarkNew-8", "new", "BenchmarkGone-8", "vanished"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
}

func TestAssertGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", `{"benchmarks":{
		"BenchmarkMutationMatrix/parallel_1":{"ns_per_op":1000,"runs":3},
		"BenchmarkMutationMatrix/parallel_4":{"ns_per_op":800,"runs":3},
		"BenchmarkCampaignMatrix/parallel_1":{"ns_per_op":500,"runs":3}}}`)
	new_ := write("new.json", `{"benchmarks":{
		"BenchmarkMutationMatrix/parallel_1":{"ns_per_op":100,"runs":3},
		"BenchmarkMutationMatrix/parallel_4":{"ns_per_op":100,"runs":3},
		"BenchmarkCampaignMatrix/parallel_1":{"ns_per_op":450,"runs":3}}}`)

	var out strings.Builder
	// Both mutation variants are 8-10x faster: the >=5 gate holds.
	if err := run([]string{"-compare", old, "-assert", "BenchmarkMutationMatrix>=5", new_}, nil, &out); err != nil {
		t.Fatalf("passing gate errored: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "10.00x >= 5x  ok") {
		t.Errorf("gate output lacks per-benchmark line:\n%s", out.String())
	}

	// The campaign benchmark is only 1.1x faster: a >=5 gate must fail.
	out.Reset()
	err := run([]string{"-compare", old, "-assert", "BenchmarkCampaignMatrix>=5", new_}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "speedup gate violated") {
		t.Errorf("failing gate did not error: %v", err)
	}

	// A prefix matching nothing must not silently disarm the gate.
	out.Reset()
	err = run([]string{"-compare", old, "-assert", "BenchmarkRenamed>=5", new_}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "no benchmark matches") {
		t.Errorf("unmatched gate did not error: %v", err)
	}

	// Multiple comma-separated gates evaluate independently.
	out.Reset()
	if err := run([]string{"-compare", old,
		"-assert", "BenchmarkMutationMatrix>=5, BenchmarkCampaignMatrix>=1", new_}, nil, &out); err != nil {
		t.Fatalf("multi-gate errored: %v\n%s", err, out.String())
	}
}

// TestAssertAllocsGate covers the NAME:allocs>=FACTOR form: the factor
// is old allocs/op ÷ new allocs/op, independent of ns/op.
func TestAssertAllocsGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	old := write("old.json", `{"benchmarks":{
		"BenchmarkMutationMatrix/parallel_1":{"ns_per_op":1000,"allocs_per_op":390000,"runs":3},
		"BenchmarkCampaignMatrix/parallel_1":{"ns_per_op":500,"allocs_per_op":90000,"runs":3},
		"BenchmarkScriptGen":{"ns_per_op":50,"runs":3}}}`)
	new_ := write("new.json", `{"benchmarks":{
		"BenchmarkMutationMatrix/parallel_1":{"ns_per_op":2000,"allocs_per_op":130000,"runs":3},
		"BenchmarkCampaignMatrix/parallel_1":{"ns_per_op":100,"allocs_per_op":60000,"runs":3},
		"BenchmarkScriptGen":{"ns_per_op":50,"runs":3}}}`)

	var out strings.Builder
	// 3x fewer allocations passes even though ns/op doubled.
	if err := run([]string{"-compare", old, "-assert", "BenchmarkMutationMatrix:allocs>=2", new_}, nil, &out); err != nil {
		t.Fatalf("passing allocs gate errored: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "BenchmarkMutationMatrix/parallel_1 allocs") ||
		!strings.Contains(out.String(), "3.00x >= 2x  ok") {
		t.Errorf("allocs gate output lacks per-benchmark line:\n%s", out.String())
	}

	// 1.5x fewer allocations fails a >=2 gate despite a 5x speedup.
	out.Reset()
	err := run([]string{"-compare", old, "-assert", "BenchmarkCampaignMatrix:allocs>=2", new_}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkCampaignMatrix/parallel_1 allocs: 1.50x < 2x") {
		t.Errorf("failing allocs gate did not error: %v", err)
	}

	// A benchmark the old document measured without -benchmem has no
	// allocs/op to gate: it matches nothing.
	out.Reset()
	err = run([]string{"-compare", old, "-assert", "BenchmarkScriptGen:allocs>=1", new_}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "no benchmark matches") {
		t.Errorf("allocs gate without old allocs did not error: %v", err)
	}

	// Both forms mix in one list.
	out.Reset()
	if err := run([]string{"-compare", old,
		"-assert", "BenchmarkCampaignMatrix>=5,BenchmarkMutationMatrix:allocs>=2", new_}, nil, &out); err != nil {
		t.Fatalf("mixed gates errored: %v\n%s", err, out.String())
	}
}

func TestParseAsserts(t *testing.T) {
	gates, err := parseAsserts("BenchmarkA>=5,BenchmarkB >= 2.5, BenchmarkC:allocs>=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 3 || gates[0].prefix != "BenchmarkA" || gates[0].factor != 5 || gates[0].allocs ||
		gates[1].prefix != "BenchmarkB" || gates[1].factor != 2.5 || gates[1].allocs ||
		gates[2].prefix != "BenchmarkC" || gates[2].factor != 2 || !gates[2].allocs {
		t.Errorf("parsed gates wrong: %+v", gates)
	}
	for _, bad := range []string{"", "BenchmarkA", "BenchmarkA>=x", "BenchmarkA>=0", "BenchmarkA>=-1",
		"BenchmarkA:allocs>=0"} {
		if _, err := parseAsserts(bad); err == nil {
			t.Errorf("parseAsserts(%q) accepted", bad)
		}
	}
}

func TestErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("no benchmarks here"), &out); err == nil {
		t.Error("empty input accepted")
	}
	if err := run([]string{"-compare", "/no/such.json"}, nil, &out); err == nil {
		t.Error("-compare without NEW accepted")
	}
	if err := run([]string{"-compare", "/no/such.json", "/also/missing.json"}, nil, &out); err == nil {
		t.Error("missing compare files accepted")
	}
	if err := run([]string{"a.txt", "b.txt"}, nil, &out); err == nil {
		t.Error("two input files accepted")
	}
	if err := run([]string{"-assert", "BenchmarkA>=5"}, strings.NewReader(benchFixture), &out); err == nil {
		t.Error("-assert without -compare accepted")
	}
}
