package serve

import (
	"repro/internal/obs"
)

// Metric names exported by every Server. Shared as constants so the
// health handler, the dist coordinator's fleet aggregation and the
// tests all key the same series.
const (
	MetricWorkers       = "comptest_workers"
	MetricWorkersBusy   = "comptest_workers_busy"
	MetricQueueDepth    = "comptest_queue_depth"
	MetricQueueCapacity = "comptest_queue_capacity"
	MetricJobs          = "comptest_jobs"
	MetricCacheHits     = "comptest_cache_hits_total"
	MetricCacheMisses   = "comptest_cache_misses_total"
	MetricUnits         = "comptest_units_total"
	MetricStreamBytes   = "comptest_stream_bytes_total"
	MetricJobSeconds    = "comptest_job_duration_seconds"
	MetricUnitRate      = "comptest_job_units_per_second"
	MetricQueueWait     = "comptest_queue_wait_seconds"
	MetricUnitSeconds   = "comptest_unit_seconds"
	MetricQuotaRejected = "comptest_quota_rejected_total"
	MetricTenantsActive = "comptest_tenants_active"
)

// jobSecondsBounds buckets job wall-clock durations: the paper's
// 4-unit campaign completes in well under a second on one worker,
// while mutation matrices and remote shard dispatch reach into
// minutes.
var jobSecondsBounds = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// unitRateBounds buckets per-job unit throughput (NDJSON result lines
// per wall-clock second at job completion).
var unitRateBounds = []float64{1, 5, 25, 100, 500, 2500}

// queueWaitBounds buckets the accepted→started latency. On a healthy
// server this is microseconds; a saturated queue reaches seconds.
var queueWaitBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// unitSecondsBounds buckets one unit's wall-clock execution, from the
// Runner taking its stand to the finished report (Result.Elapsed), for
// every job kind that runs units. The paper's units simulate in
// single-digit milliseconds.
var unitSecondsBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// registerMetrics wires the server's telemetry into reg. Everything
// that has live state (queue, job table, worker pool, artifact cache)
// is func-backed — read at collect time — so the /metrics and /healthz
// surfaces can never disagree; only event-shaped data (units streamed,
// bytes written, completed-job durations) uses real cells.
func (s *Server) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc(MetricWorkers, "size of the job worker pool",
		func() float64 { return float64(s.opts.Workers) })
	reg.GaugeFunc(MetricWorkersBusy, "workers currently executing a job",
		func() float64 { return float64(s.busy.Load()) })
	reg.GaugeFunc(MetricQueueDepth, "accepted-but-unstarted jobs",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc(MetricQueueCapacity, "job queue admission bound",
		func() float64 { return float64(s.opts.QueueDepth) })
	reg.GaugeFuncVec(MetricJobs, "jobs in the table by lifecycle state",
		[]string{"state"}, s.jobsByState)
	reg.CounterFunc(MetricCacheHits, "workbook artifact cache hits",
		func() float64 { return float64(s.cache.Hits()) })
	reg.CounterFunc(MetricCacheMisses, "workbook artifact cache misses",
		func() float64 { return float64(s.cache.Misses()) })
	s.units = reg.Counter(MetricUnits, "NDJSON result lines streamed to job logs")
	s.streamBytes = reg.Counter(MetricStreamBytes, "bytes appended to job result logs")
	s.jobSeconds = reg.Histogram(MetricJobSeconds, "wall-clock duration of finished jobs", jobSecondsBounds)
	s.unitRate = reg.Histogram(MetricUnitRate, "result lines per second of finished jobs", unitRateBounds)
	s.queueWait = reg.Histogram(MetricQueueWait, "seconds jobs waited between acceptance and start", queueWaitBounds)
	s.unitSeconds = reg.Histogram(MetricUnitSeconds, "wall-clock seconds of executed units, from taking the stand to the finished report", unitSecondsBounds)
	s.mQuotaRejected = reg.Counter(MetricQuotaRejected, "submissions rejected by per-tenant quota (429)")
	reg.GaugeFunc(MetricTenantsActive, "tenants with at least one queued or running job",
		func() float64 { return float64(s.quota.activeTenants()) })
}

// jobsByState scans the live job table — the same data the list and
// health endpoints serve — into one gauge cell per lifecycle state.
// Every state is always present (zero-valued when empty) so dashboards
// and the health handler see a fixed series shape.
func (s *Server) jobsByState() []obs.FuncCell {
	counts := map[State]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
	}
	s.mu.Lock()
	for _, job := range s.jobs {
		counts[job.currentState()]++
	}
	s.mu.Unlock()
	cells := make([]obs.FuncCell, 0, len(counts))
	for st, n := range counts {
		cells = append(cells, obs.FuncCell{Values: []string{string(st)}, Value: float64(n)})
	}
	return cells
}

// Metrics returns the server's registry, for mounting on extra
// listeners (comptest serve -metrics-addr) or merging into a
// coordinator's fleet aggregation.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// noteLine records one appended result-log line in the throughput
// counters (the resultLog append hook).
func (s *Server) noteLine(n int) {
	s.units.Inc()
	s.streamBytes.Add(int64(n))
}
