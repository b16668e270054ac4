// Command benchjson turns `go test -bench` output into a compact,
// machine-readable JSON document — benchmark name → ns/op, B/op and
// allocs/op, averaged over -count repetitions — and compares two such
// documents. It is the converter behind the BENCH_*.json perf
// trajectory: CI runs the benchmarks, converts with benchjson, uploads
// the JSON as an artifact and benchstat/benchjson-compares it against
// the committed baseline (report-only).
//
// Usage:
//
//	go test -run=- -bench=. -benchtime=3x -count=3 -benchmem | benchjson -o BENCH_PR4.json
//	benchjson -o BENCH_PR4.json bench.txt
//	benchjson -compare OLD.json NEW.json
//	benchjson -compare OLD.json -assert "BenchmarkMutationMatrix>=5" NEW.json
//	benchjson -compare OLD.json -assert "BenchmarkMutationMatrix:allocs>=2" NEW.json
//
// The compare mode is report-only by default: it prints per-benchmark
// deltas and exits 0 on valid input, so a perf regression shows up in
// the log without blocking the merge. -assert turns named speedups into
// a hard gate: every benchmark whose normalized name starts with NAME
// must be at least FACTOR× faster (old ns/op ÷ new ns/op) than the old
// document, and a spec matching no benchmark is itself an error — a
// renamed benchmark must not silently disarm the gate. NAME:allocs>=FACTOR
// gates allocations the same way: old allocs/op ÷ new allocs/op must be
// at least FACTOR.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// Metrics are the averaged measurements of one benchmark.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Runs counts the -count repetitions averaged into the values.
	Runs int `json:"runs"`
}

// Doc is the BENCH_*.json document shape.
type Doc struct {
	Benchmarks map[string]*Metrics `json:"benchmarks"`
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(out)
	outFile := fs.String("o", "", "write the JSON document here instead of stdout")
	compare := fs.String("compare", "", "compare OLD.json against the NEW.json positional argument")
	assert := fs.String("assert", "",
		"with -compare: comma-separated NAME>=FACTOR speedup or NAME:allocs>=FACTOR allocation gates, e.g. \"BenchmarkMutationMatrix>=5\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fmt.Errorf("-compare OLD.json needs exactly one NEW.json argument")
		}
		return runCompare(*compare, fs.Arg(0), *assert, out)
	}
	if *assert != "" {
		return fmt.Errorf("-assert needs -compare")
	}
	var err error
	switch fs.NArg() {
	case 0:
	case 1:
		var f *os.File
		if f, err = os.Open(fs.Arg(0)); err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("at most one input file")
	}
	doc, err := Parse(in)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *outFile != "" {
		return os.WriteFile(*outFile, b, 0o644)
	}
	_, err = out.Write(b)
	return err
}

// normalizeName strips the trailing "-N" GOMAXPROCS suffix go test
// appends on multi-core machines (it is omitted at GOMAXPROCS=1), so
// documents produced on differently-sized machines — a 1-CPU
// container seeding the baseline, a multi-core CI runner comparing
// against it — key the same benchmark identically.
func normalizeName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// Parse reads `go test -bench` output and averages repeated runs of
// the same benchmark (from -count) into one Metrics per name,
// normalized via normalizeName. Non-benchmark lines (goos/pkg
// headers, PASS, ok) are ignored.
func Parse(r io.Reader) (*Doc, error) {
	type sums struct {
		ns, bytes, allocs float64
		runs              int
	}
	acc := map[string]*sums{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// BenchmarkName-8  iterations  N ns/op [ N B/op  N allocs/op ]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. "BenchmarkX ... --- FAIL" shapes
		}
		name := normalizeName(fields[0])
		s := acc[name]
		if s == nil {
			s = &sums{}
			acc[name] = s
		}
		got := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.ns += v
				got = true
			case "B/op":
				s.bytes += v
			case "allocs/op":
				s.allocs += v
			}
		}
		if got {
			s.runs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc := &Doc{Benchmarks: map[string]*Metrics{}}
	for name, s := range acc {
		if s.runs == 0 {
			continue
		}
		n := float64(s.runs)
		doc.Benchmarks[name] = &Metrics{
			NsPerOp:     s.ns / n,
			BytesPerOp:  s.bytes / n,
			AllocsPerOp: s.allocs / n,
			Runs:        s.runs,
		}
	}
	return doc, nil
}

func loadDoc(path string) (*Doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &doc, nil
}

// speedupGate is one parsed -assert spec: every benchmark whose
// normalized name starts with prefix must be at least factor× faster,
// or with allocs set, allocate factor× less.
type speedupGate struct {
	prefix string
	factor float64
	allocs bool
}

// ratio is old ÷ new of the gated metric, and whether the old document
// measured it.
func (g speedupGate) ratio(om, nm *Metrics) (float64, bool) {
	if g.allocs {
		return om.AllocsPerOp / nm.AllocsPerOp, om.AllocsPerOp > 0
	}
	return om.NsPerOp / nm.NsPerOp, om.NsPerOp > 0
}

// parseAsserts parses the comma-separated NAME>=FACTOR and
// NAME:allocs>=FACTOR list.
func parseAsserts(spec string) ([]speedupGate, error) {
	var gates []speedupGate
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, factorText, ok := strings.Cut(part, ">=")
		if !ok {
			return nil, fmt.Errorf("assert %q: want NAME>=FACTOR", part)
		}
		factor, err := strconv.ParseFloat(strings.TrimSpace(factorText), 64)
		if err != nil || factor <= 0 {
			return nil, fmt.Errorf("assert %q: bad factor", part)
		}
		name, allocs := strings.CutSuffix(strings.TrimSpace(name), ":allocs")
		gates = append(gates, speedupGate{prefix: name, factor: factor, allocs: allocs})
	}
	if len(gates) == 0 {
		return nil, fmt.Errorf("assert %q: no gates", spec)
	}
	return gates, nil
}

// runCompare prints an aligned per-benchmark delta table. Report-only
// unless asserts is non-empty; then every gate must hold or the exit
// is non-zero.
func runCompare(oldPath, newPath, asserts string, out io.Writer) error {
	var gates []speedupGate
	if asserts != "" {
		var err error
		if gates, err = parseAsserts(asserts); err != nil {
			return err
		}
	}
	oldDoc, err := loadDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDoc(newPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(newDoc.Benchmarks))
	for name := range newDoc.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(out, "benchjson compare: %s -> %s\n", oldPath, newPath)
	fmt.Fprintf(out, "%-56s %14s %14s %8s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range names {
		nm := newDoc.Benchmarks[name]
		om, ok := oldDoc.Benchmarks[name]
		if !ok || om.NsPerOp == 0 {
			fmt.Fprintf(out, "%-56s %14s %14.0f %8s\n", name, "-", nm.NsPerOp, "new")
			continue
		}
		delta := (nm.NsPerOp - om.NsPerOp) / om.NsPerOp * 100
		fmt.Fprintf(out, "%-56s %14.0f %14.0f %+7.1f%%\n", name, om.NsPerOp, nm.NsPerOp, delta)
	}
	for name := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[name]; !ok {
			fmt.Fprintf(out, "%-56s vanished (present only in %s)\n", name, oldPath)
		}
	}

	var failed []string
	for _, g := range gates {
		matched := 0
		for _, name := range names {
			if !strings.HasPrefix(name, g.prefix) {
				continue
			}
			om, ok := oldDoc.Benchmarks[name]
			if !ok {
				continue
			}
			speedup, measured := g.ratio(om, newDoc.Benchmarks[name])
			if !measured {
				continue
			}
			matched++
			label := name
			if g.allocs {
				label += " allocs"
			}
			status := "ok"
			if speedup < g.factor {
				status = "FAIL"
				failed = append(failed,
					fmt.Sprintf("%s: %.2fx < %gx", label, speedup, g.factor))
			}
			fmt.Fprintf(out, "assert %-49s %6.2fx >= %gx  %s\n", label, speedup, g.factor, status)
		}
		if matched == 0 {
			failed = append(failed, fmt.Sprintf("%s: no benchmark matches", g.prefix))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("speedup gate violated: %s", strings.Join(failed, "; "))
	}
	return nil
}
