package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"repro/comptest"
)

// campaignMatrix is the campaign_matrix workload: every script of every
// built-in workbook on every stand profile (48 units) as one Campaign,
// streamed in unit order as NDJSON into a hashing writer. Execution is
// dominated by the stand layer with fast-forward on and stands pooled
// across operations; no observer, no HTTP and no mutation is involved.
type campaignMatrix struct {
	golden *goldens
	books  []string
	plans  map[string]*comptest.Plan
	units  []comptest.Unit
	runner *comptest.Runner
	sink   *switchSink
}

// switchSink forwards to the sink of the current operation. A Runner's
// sinks are fixed when it is built, but Ordered must be fresh per
// campaign; the Runner (and its stand pool) lives across operations.
type switchSink struct{ cur comptest.Sink }

func (s *switchSink) Emit(r comptest.Result) { s.cur.Emit(r) }

func (w *campaignMatrix) setup(ctx context.Context) error {
	w.books, w.units, w.plans = nil, nil, map[string]*comptest.Plan{}
	for _, dut := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			return err
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			return err
		}
		plan, err := comptest.Compile(suite)
		if err != nil {
			return err
		}
		w.books = append(w.books, wb)
		w.plans[dut] = plan
		w.units = append(w.units, plan.Units(comptest.StandNames(), dut)...)
	}
	w.sink = &switchSink{}
	var err error
	w.runner, err = comptest.NewRunner(comptest.WithParallelism(parallelism), comptest.WithSink(w.sink))
	return err
}

func (w *campaignMatrix) reference(context.Context) error {
	var err error
	w.golden, err = loadGoldens()
	return err
}

func (w *campaignMatrix) cycle() int { return 1 }

// hashWriter digests the NDJSON stream and notes when its first line
// arrived.
type hashWriter struct {
	h     hash.Hash
	first time.Time
}

func (h *hashWriter) Write(p []byte) (int, error) {
	if h.first.IsZero() {
		h.first = time.Now()
	}
	return h.h.Write(p)
}

// encodeSpans wraps the NDJSON sink in report.encode spans.
type encodeSpans struct {
	inner      comptest.Sink
	tr         *tracer
	op, parent int
}

func (s encodeSpans) Emit(r comptest.Result) {
	_, end := s.tr.begin("report.encode", s.op, s.parent)
	s.inner.Emit(r)
	end()
}

// emitEvents records the instant each unit's result reaches the
// runner's sinks, before Ordered re-sequences it.
type emitEvents struct {
	inner      comptest.Sink
	tr         *tracer
	op, parent int
}

func (s emitEvents) Emit(r comptest.Result) {
	now := time.Now()
	s.tr.add("comptest.emit", s.op, s.parent, now, now)
	s.inner.Emit(r)
}

// campaignRun is the outcome of one execution of the matrix.
type campaignRun struct {
	digest     string
	sum        comptest.Summary
	start      time.Time
	first, end time.Time // first stream line, Campaign returned
}

// run executes the matrix once as operation op.
func (w *campaignMatrix) run(ctx context.Context, tr *tracer, op int) (campaignRun, error) {
	hw := &hashWriter{h: sha256.New()}
	nd := comptest.NDJSON(hw)
	parent, end := tr.begin("comptest.campaign", op, 0)
	w.sink.cur = comptest.Ordered(nd)
	if tr != nil {
		w.sink.cur = emitEvents{comptest.Ordered(encodeSpans{nd, tr, op, parent}), tr, op, parent}
	}
	run := campaignRun{start: time.Now()}
	var err error
	run.sum, err = w.runner.Campaign(ctx, w.units)
	run.end = time.Now()
	end()
	if err == nil {
		err = nd.Err()
	}
	run.digest, run.first = hex.EncodeToString(hw.h.Sum(nil)), hw.first
	return run, err
}

func (w *campaignMatrix) op(ctx context.Context, i int, tr *tracer) (time.Duration, time.Duration, error) {
	run, err := w.run(ctx, tr, i)
	if err != nil {
		return 0, 0, err
	}
	g := w.golden.Campaign
	if run.sum != g.Summary {
		return 0, 0, fmt.Errorf("campaign summary %s, golden %s", run.sum, g.Summary)
	}
	if run.digest != g.Digest {
		return 0, 0, fmt.Errorf("campaign stream digest %s, golden %s", run.digest, g.Digest)
	}
	return run.end.Sub(run.start), run.first.Sub(run.start), nil
}

func (w *campaignMatrix) anatomy() ([]string, []anatomyUnit) {
	var units []anatomyUnit
	for _, dut := range comptest.DUTNames() {
		units = append(units, planUnits(w.plans[dut], comptest.StandNames(), dut)...)
	}
	return w.books, units
}

// layers adds comptest.unaccounted_share: the share of the campaign's
// worker time not spent running, re-aligning and encoding units — the
// runner's scheduling, pooling and emit overhead. Busy time is the sum
// of the units' median pooled run + align + encode from the anatomy
// sweep (operations run on pooled stands); available time is the
// median traced campaign span times the parallelism.
func (w *campaignMatrix) layers(r *Round, spans []span, costs []unitCost) {
	st := summarise(spans)
	busy := 0.0
	for _, c := range costs {
		busy += c.pooled + c.align + c.encode
	}
	if c, ok := st["comptest.campaign"]; ok && c.dur > 0 {
		r.set("comptest.unaccounted_share", "ratio", 1-busy*1e3/(c.dur*parallelism))
	}
}
