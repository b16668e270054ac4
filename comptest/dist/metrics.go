package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/comptest/serve"
	"repro/internal/obs"
	"repro/internal/report"
)

// Coordinator-side metric names. The dist_* families sit in the same
// registry as the embedded serve.Server's comptest_* families, so one
// scrape of the coordinator covers admission, execution and fleet
// health.
const (
	MetricWorkersLive       = "dist_workers_live"
	MetricWorkersRegistered = "dist_workers_registered"
	MetricShardRequeues     = "dist_shard_requeues_total"
	MetricLeaseExpiries     = "dist_lease_expiries_total"
	MetricShardsCompleted   = "dist_shards_completed_total"
	MetricShardsLocal       = "dist_shards_local_total"
	MetricShardsStolen      = "dist_shards_stolen_total"
	MetricShardsReadopted   = "dist_shards_readopted_total"
	MetricJobsRecovered     = "dist_jobs_recovered_total"
	MetricJournalRecords    = "dist_journal_records_total"
	MetricJournalBytes      = "dist_journal_bytes_total"
	MetricMergerPending     = "dist_merger_pending_lines"
	MetricScrapeErrors      = "dist_scrape_errors_total"
	MetricShardRoundtrip    = "dist_shard_roundtrip_seconds"
	MetricScrapeSeconds     = "dist_scrape_seconds"
)

// Histogram bucket bounds. Shard round-trips span dispatch + remote
// execution + stream merge, so the range runs to the 2m shardTimeout;
// scrapes are one bounded HTTP GET, so theirs tops out at the 2s
// default ScrapeTimeout.
var (
	shardRoundtripBounds = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120}
	scrapeSecondsBounds  = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2}
)

// registerMetrics wires the coordinator's telemetry into its registry.
// Fleet state (live/registered workers, buffered merge lines) is
// func-backed — read at collect time; dispatch events (requeues, lease
// expiries, completed/local shards) are real counters incremented at
// the point the event is decided.
func (c *Coordinator) registerMetrics() {
	reg := c.metrics
	reg.GaugeFunc(MetricWorkersLive, "registered workers within their heartbeat lease",
		func() float64 { return float64(c.reg.LiveCount()) })
	reg.GaugeFunc(MetricWorkersRegistered, "registered workers, live or lost",
		func() float64 {
			c.reg.mu.Lock()
			defer c.reg.mu.Unlock()
			return float64(len(c.reg.recs))
		})
	reg.GaugeFunc(MetricMergerPending, "out-of-order result lines buffered by active shard mergers",
		func() float64 { return float64(c.pendingMergeLines()) })
	c.mRequeues = reg.Counter(MetricShardRequeues, "shard dispatches retried on another worker")
	c.mLeaseExpiries = reg.Counter(MetricLeaseExpiries, "workers whose heartbeat lease lapsed")
	c.mShardsCompleted = reg.Counter(MetricShardsCompleted, "shards merged to completion")
	c.mShardsLocal = reg.Counter(MetricShardsLocal, "shards executed by the local fallback")
	c.mShardsStolen = reg.Counter(MetricShardsStolen, "shards stolen by the local executor from a saturated fleet")
	c.mShardsReadopted = reg.Counter(MetricShardsReadopted, "recovered shards re-attached to workers that retained them")
	c.mJobsRecovered = reg.Counter(MetricJobsRecovered, "in-flight jobs resumed from the journal at startup")
	c.mJournalRecords = reg.Counter(MetricJournalRecords, "records appended to the coordination journal")
	c.mJournalBytes = reg.Counter(MetricJournalBytes, "bytes appended to the coordination journal")
	c.mScrapeErrors = reg.Counter(MetricScrapeErrors, "failed worker /metrics scrapes during fleet aggregation")
	c.mShardRoundtrip = reg.Histogram(MetricShardRoundtrip,
		"seconds from shard dispatch to its stream fully merged", shardRoundtripBounds)
	c.mScrapeSeconds = reg.Histogram(MetricScrapeSeconds,
		"seconds per worker /metrics scrape during fleet aggregation", scrapeSecondsBounds)
}

// Metrics returns the coordinator's registry (shared with the embedded
// serve.Server), for mounting on extra listeners.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// MetricsHandler returns the fleet-aggregated exposition handler, for
// mounting on a dedicated listener (the CLI's -metrics-addr).
func (c *Coordinator) MetricsHandler() http.Handler {
	return http.HandlerFunc(c.handleMetrics)
}

// trackMerger adds a running job's line Sequencer to the pending-lines
// gauge; the returned func removes it when the job ends.
func (c *Coordinator) trackMerger(m *report.Sequencer[[]byte]) func() {
	c.mergerMu.Lock()
	c.mergers[m] = struct{}{}
	c.mergerMu.Unlock()
	return func() {
		c.mergerMu.Lock()
		delete(c.mergers, m)
		c.mergerMu.Unlock()
	}
}

// pendingMergeLines sums the out-of-order buffers of every running
// job's line Sequencer — the live measure of how much re-ordering the
// requeue/dedup machinery is doing right now (satellite telemetry for
// ShardStatus.Requeued bug-proofing: buffered lines must drain to zero
// by the time the merge completes).
func (c *Coordinator) pendingMergeLines() int {
	c.mergerMu.Lock()
	defer c.mergerMu.Unlock()
	n := 0
	for m := range c.mergers {
		n += m.Pending()
	}
	return n
}

// fleetSnapshot merges the coordinator's own snapshot with a scrape of
// every live worker's /metrics?format=json, each re-exported under a
// worker="w-NNNN" label. Lost workers are skipped (their last state is
// stale by definition); scrape failures are counted and skipped so one
// dead node cannot poison the fleet view.
func (c *Coordinator) fleetSnapshot(ctx context.Context) obs.Snapshot {
	var remote []obs.Snapshot
	for _, w := range c.reg.Snapshot() {
		if w.State != "live" {
			continue
		}
		t0 := c.clock()
		snap, err := c.scrapeWorker(ctx, w.URL)
		c.mScrapeSeconds.Observe(c.clock().Sub(t0).Seconds())
		if err != nil {
			c.mScrapeErrors.Inc()
			continue
		}
		remote = append(remote, snap.WithLabel("worker", w.ID))
	}
	// Own snapshot last, so errors counted DURING this scrape are in it;
	// merged first, so unlabeled coordinator cells lead each family.
	return obs.Merge(append([]obs.Snapshot{c.metrics.Snapshot()}, remote...)...)
}

func (c *Coordinator) scrapeWorker(ctx context.Context, baseURL string) (obs.Snapshot, error) {
	sctx, cancel := context.WithTimeout(ctx, c.opts.ScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, baseURL+"/metrics?format=json", nil)
	if err != nil {
		return obs.Snapshot{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("dist: scrape: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return obs.Snapshot{}, err
	}
	return obs.ParseJSON(body)
}

// handleMetrics serves the fleet-aggregated exposition: the
// coordinator's own series plus every live worker's, relabeled. It
// shadows the embedded server's /metrics on the coordinator mux, so
// `curl coordinator/metrics` answers for the whole fleet while
// `curl worker/metrics` stays node-local.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := c.fleetSnapshot(r.Context())
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WriteText(w)
}

// handleSLO evaluates SLO objectives against the FLEET-aggregated
// snapshot: worker-labelled cells of one histogram family fold into a
// single quantile estimate, so the verdict covers latency wherever a
// unit actually ran. It shadows the embedded server's node-local /slo
// on the coordinator mux, like /metrics.
func (c *Coordinator) handleSLO(w http.ResponseWriter, r *http.Request) {
	serve.WriteSLO(w, r, c.fleetSnapshot(r.Context()), c.opts.Serve.Objectives)
}
