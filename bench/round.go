package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// parallelism is the in-process worker-pool bound of the batch
// workloads. It is fixed so that runs on machines with different core
// counts still execute the same schedule.
const parallelism = 2

// roundConfig is one round of one workload: set up, warm up, measure.
type roundConfig struct {
	workload string
	seed     int64
	window   time.Duration // timed window; ignored when ops > 0
	ops      int           // > 0: measure exactly this many operations, no warm-up
	trace    bool          // alternate traced and untraced operations, then sweep the layers
	reps     int           // repetitions per unit in the anatomy sweep
	spans    string        // write the round's spans here (NDJSON), if set
}

// Round is what one round reports to the process that aggregates the
// rounds. Samples are pooled across rounds; Values are per-round scalars
// whose run value is their median.
type Round struct {
	Workload  string               `json:"workload"`
	SetupS    float64              `json:"setup_s"`
	WindowS   float64              `json:"window_s"`
	Ops       int                  `json:"ops"` // operations completed inside the window
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`    // window operations that failed
	Incorrect int                  `json:"incorrect"` // outputs anywhere in the round that failed a check
	Errors    []string             `json:"errors,omitempty"`
	CPUS      float64              `json:"cpu_s"`  // process user+sys time over the window
	Allocs    float64              `json:"allocs"` // heap objects allocated over the window
	RSSMiB    float64              `json:"rss_mib"`
	Samples   map[string][]float64 `json:"samples"`
	Values    map[string]measure   `json:"values"`
}

// measure is a value with its unit.
type measure struct {
	V    float64 `json:"v"`
	Unit string  `json:"unit"`
}

func newRound(cfg roundConfig) *Round {
	return &Round{Workload: cfg.workload,
		Samples: map[string][]float64{}, Values: map[string]measure{}}
}

func (r *Round) sample(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

func (r *Round) set(name, unit string, v float64) { r.Values[name] = measure{v, unit} }

// wrong records an output that failed its correctness check. Only the
// first few messages are kept; the count is exact.
func (r *Round) wrong(err error) {
	r.Incorrect++
	r.note(err)
}

func (r *Round) note(err error) {
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// usage is the process's CPU time and allocation count at one instant.
type usage struct {
	cpu    time.Duration
	allocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), allocs: s[0].Value.Uint64()}
}

func (r *Round) account(from, to usage) {
	r.CPUS = (to.cpu - from.cpu).Seconds()
	r.Allocs = float64(to.allocs - from.allocs)
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// timeSetup runs setup several times and returns the median duration in
// seconds; the state of the last run is kept. A single set-up takes
// from well under a millisecond (one workbook) to a few hundred (kill
// statistics), so the repetitions run until 200 ms have passed, at
// least three and at most fifty times.
func timeSetup(ctx context.Context, setup func(context.Context) error, teardown func()) (float64, error) {
	var durs []float64
	begin := time.Now()
	for len(durs) < 3 || (len(durs) < 50 && time.Since(begin) < 200*time.Millisecond) {
		if len(durs) > 0 {
			teardown()
		}
		t0 := time.Now()
		if err := setup(ctx); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return median(durs), nil
}

// batch is a closed-loop workload: one client issues the next operation
// when the previous one has completed.
type batch interface {
	setup(ctx context.Context) error
	// reference checks the workload's inputs against the goldens and
	// computes the untimed references the operations are checked
	// against.
	reference(ctx context.Context) error
	// op runs operation i and checks its outputs. It returns the
	// operation's latency and the time to its first result; tr is nil
	// for an untraced operation, otherwise the spans share the op ID.
	op(ctx context.Context, i int, tr *tracer) (latency, ttfr time.Duration, err error)
	// cycle is the number of operations that cover the inputs once; the
	// window ends on a cycle boundary so every input is equally
	// represented.
	cycle() int
	// anatomy lists the workload's workbooks and distinct units.
	anatomy() ([]string, []anatomyUnit)
	// layers adds the workload's own layer metrics from the round's
	// spans and unit costs.
	layers(r *Round, spans []span, costs []unitCost)
}

// runBatch runs one round of a closed-loop workload.
func runBatch(ctx context.Context, w batch, cfg roundConfig) (*Round, error) {
	r := newRound(cfg)
	var err error
	if r.SetupS, err = timeSetup(ctx, w.setup, func() {}); err != nil {
		return nil, err
	}
	if err := w.reference(ctx); err != nil {
		r.wrong(err)
	}
	runtime.GC()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Traced rounds alternate whole cycles between traced and untraced,
	// so trace.overhead_share compares the same inputs.
	boundary := w.cycle()
	if cfg.trace {
		boundary *= 2
	}
	traced := func(i int) *tracer {
		if (i/w.cycle())%2 == 1 {
			return tr
		}
		return nil
	}

	i := 0
	if cfg.ops == 0 {
		for end := time.Now().Add(warmup); time.Now().Before(end); i++ {
			if _, _, err := w.op(ctx, i, traced(i)); err != nil {
				r.wrong(fmt.Errorf("warm-up op %d: %w", i, err))
			}
		}
	}
	// The window starts on a boundary too, so it covers whole cycles.
	for i%boundary != 0 {
		if _, _, err := w.op(ctx, i, traced(i)); err != nil {
			r.wrong(fmt.Errorf("warm-up op %d: %w", i, err))
		}
		i++
	}

	u0, t0 := readUsage(), time.Now()
	for n := 0; ; n, i = n+1, i+1 {
		done := time.Since(t0) >= cfg.window
		if cfg.ops > 0 {
			done = n >= cfg.ops
		}
		if done && n%boundary == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := traced(i)
		r.Attempted++
		lat, ttfr, err := w.op(ctx, i, t)
		if err != nil {
			r.Failed++
			r.wrong(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		r.Ops++
		if t != nil {
			r.sample("traced_op_ms", ms(lat))
			continue
		}
		r.sample("op_ms", ms(lat))
		r.sample("ttfr_ms", ms(ttfr))
	}
	r.WindowS = time.Since(t0).Seconds()
	r.account(u0, readUsage())

	if cfg.trace {
		books, units := w.anatomy()
		costs, err := sweep(ctx, r, books, units, cfg.reps)
		if err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		w.layers(r, spans, costs)
		overhead(r)
		if err := writeSpans(cfg.spans, spans); err != nil {
			return nil, err
		}
	}
	r.RSSMiB = peakRSSMiB()
	return r, nil
}

// overhead sets trace.overhead_share from the traced and untraced
// operations of one round.
func overhead(r *Round) {
	if t, u := median(r.Samples["traced_op_ms"]), median(r.Samples["op_ms"]); u > 0 {
		r.set("trace.overhead_share", "ratio", t/u-1)
	}
}

// spanStats summarises the spans of one name, in ns: their median
// duration and the sums of their durations and self times.
type spanStats struct {
	dur, total, self float64
}

func summarise(spans []span) map[string]spanStats {
	durs, selfs := byName(spans)
	out := make(map[string]spanStats, len(durs))
	for name, d := range durs {
		st := spanStats{dur: median(d)}
		for k := range d {
			st.total += d[k]
			st.self += selfs[name][k]
		}
		out[name] = st
	}
	return out
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
