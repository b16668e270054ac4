// Command bench is the repository's benchmark: four seeded workloads
// driven through the public API of comptest, comptest/mutation,
// comptest/explore, comptest/serve and comptest/dist, each measured end
// to end and, in a separate traced run, layer by layer. Every output is
// checked for correctness. See README.md for the workloads, the metrics
// and what each layer metric should move.
//
// Run it from the root of a checkout through bench/run.sh, which builds
// it first:
//
//	bash bench/run.sh --seed 1 --out a.json          # all workloads, interleaved rounds
//	bash bench/run.sh --workload serve_mixed --seed 7 --seconds 18 --trace 0
//	bash bench/run.sh --trace 1 --spans spans        # per-layer metrics, spans to files
//	bash bench/run.sh --compare a.json b.json        # two runs against the bounds
//
// Each round of each workload runs in a process of its own, so garbage
// collector state, pools and peak memory never carry over.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// workloads are the benchmark's workloads in the order rounds
// interleave them.
var workloads = []string{"campaign_matrix", "mutation_matrix", "explore_paper", "serve_mixed"}

const (
	rounds = 3               // per workload, each in a process of its own
	warmup = 2 * time.Second // untimed, at the start of every round
	// anatomyReps runs every unit 20 times over the rounds of a traced run.
	anatomyReps = (20 + rounds - 1) / rounds
	specFile    = "BENCHMARK.json"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload and print its result line (default: all, rounds interleaved)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "timed seconds per workload, split evenly over the rounds")
	trace := fs.Int("trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", "", "traced run: write each round's spans to PREFIX.<workload>.<round>.ndjson")
	out := fs.String("out", "", "write the detailed result (every metric, per-round values) to this file")
	cmp := fs.Bool("compare", false, "compare two -out files against "+specFile+": -compare A.json B.json")
	golden := fs.String("write-golden", "", "recompute the goldens into this file and exit")
	round := fs.Bool("round", false, "run one round in this process and print it as JSON (the parent process uses this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ctx := context.Background()

	switch {
	case *cmp:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		regressed, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case *golden != "":
		if err := writeGoldens(ctx, *golden); err != nil {
			return fail(err)
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("-trace is 0 or 1, got %d", *trace))
	}
	if *seconds <= 0 {
		return fail(errors.New("-seconds must be positive"))
	}
	names := workloads
	if *workload != "" {
		if !slices.Contains(workloads, *workload) {
			return fail(fmt.Errorf("unknown workload %q (have %v)", *workload, workloads))
		}
		names = []string{*workload}
	}
	cfg := roundConfig{seed: *seed, trace: *trace == 1, reps: anatomyReps}

	if *round {
		cfg.workload, cfg.window, cfg.spans = names[0], time.Duration(*seconds*float64(time.Second)), *spans
		r, err := runRound(ctx, cfg)
		if err != nil {
			return fail(err)
		}
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			return fail(err)
		}
		return 0
	}

	var sp *spec
	if *workload != "" {
		var err error
		if sp, err = readSpec(specFile); err != nil {
			return fail(err)
		}
	}
	cfg.window = time.Duration(*seconds / rounds * float64(time.Second))
	byName := map[string][]*Round{}
	for k := 0; k < rounds; k++ {
		for _, name := range names {
			c := cfg
			c.workload = name
			if *spans != "" {
				c.spans = fmt.Sprintf("%s.%s.%d.ndjson", *spans, name, k)
			}
			fmt.Fprintf(stderr, "bench: %s round %d/%d\n", name, k+1, rounds)
			r, err := spawn(ctx, c, stderr)
			if err != nil {
				return fail(err)
			}
			byName[name] = append(byName[name], r)
		}
	}
	res := &Result{Seed: *seed, Traced: cfg.trace, Rounds: rounds, Seconds: *seconds,
		Workloads: map[string]*WorkloadResult{}}
	correct := true
	for _, name := range names {
		res.Workloads[name] = aggregate(byName[name])
		correct = correct && res.Workloads[name].Correct
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeResult(*out, res); err != nil {
			return fail(err)
		}
	}
	if sp != nil {
		metrics := sp.EndToEnd
		if cfg.trace {
			metrics = sp.PerLayer
		}
		l, err := resultLine(res.Workloads[*workload], metrics)
		if err != nil {
			return fail(err)
		}
		b, err := json.Marshal(l)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if !correct {
		return 1
	}
	return 0
}

// runRound runs one round of one workload in this process.
func runRound(ctx context.Context, cfg roundConfig) (*Round, error) {
	switch cfg.workload {
	case "campaign_matrix":
		return runBatch(ctx, &campaignMatrix{}, cfg)
	case "mutation_matrix":
		return runBatch(ctx, &mutationMatrix{}, cfg)
	case "explore_paper":
		return runBatch(ctx, &exploreCycle{offset: cycleStart(cfg.seed)}, cfg)
	case "serve_mixed":
		return runServe(ctx, cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// spawn runs one round in a child process of this binary and waits for
// it.
func spawn(ctx context.Context, cfg roundConfig, stderr io.Writer) (*Round, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-round", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.window.Seconds(), 'f', -1, 64),
		"-spans", cfg.spans}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(ctx, warmup+cfg.window+150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round: %w", cfg.workload, err)
	}
	var r Round
	if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
		return nil, fmt.Errorf("%s round: %w", cfg.workload, err)
	}
	return &r, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// compareFiles compares two -out files and reports whether a gated
// metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	s, err := readSpec(specFile)
	if err != nil {
		return false, err
	}
	return compare(w, a, b, s), nil
}
