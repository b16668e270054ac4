// Package serve is the campaign-execution service: a long-lived HTTP
// JSON job API in front of the deterministic comptest engine. It turns
// the paper's batch-oriented test stand into a serving layer — jobs
// are submitted over HTTP, executed by a bounded worker pool, and
// their per-unit reports streamed back as NDJSON while they run.
//
//	POST   /v1/jobs             submit a job (kind: campaign | mutate | explore)
//	GET    /v1/jobs             list job statuses
//	GET    /v1/jobs/{id}        one job's status and summary
//	GET    /v1/jobs/{id}/stream live NDJSON stream of report.Report objects
//	DELETE /v1/jobs/{id}        cancel (running scripts stop at the next
//	                            step boundary, remaining checks SKIP)
//	GET    /healthz             liveness + queue/cache counters
//
// Three design points carry the load:
//
//   - A bounded job queue feeding a fixed worker pool: submission is
//     admission-controlled (503 when the queue is full) so a traffic
//     burst degrades into back-pressure, not unbounded goroutines.
//     Each job runs as ONE comptest.Campaign / mutation.Run / explore
//     run, inheriting their per-unit parallelism and determinism.
//
//   - A content-addressed artifact cache (SHA-256 of the workbook
//     bytes → parsed suite + generated scripts): repeated submissions
//     of the same workbook skip parsing and script generation on the
//     hot path. Cached artifacts are shared read-only across jobs —
//     every execution layer below builds fresh stands and DUTs per
//     unit, and mutation clones workbook artefacts before transforming
//     them, so sharing is safe by construction.
//
//   - Per-job context cancellation riding the existing
//     stand.RunCompiled plumbing: DELETE cancels the job's context,
//     undispatched units are skipped, and a script that is mid-run
//     stops at the next step boundary with every remaining check
//     reported as SKIP — the same semantics as an operator abort on
//     real hardware.
//
// Execution itself is pluggable: Options.Executor replaces the
// in-process engines while keeping the queue, cache, status and
// stream API intact — the seam comptest/dist uses to shard campaign
// jobs across remote workers (a JobSpec's Scripts field selects the
// shard's script subset; ShardStatus reports distribution progress).
// Whatever runs a job reports its summary through one status seam,
// Execution.Publish: the update sets summary blocks on the job's
// status under the job's lock, and a published block is never written
// again, so status snapshots share blocks rather than copy them.
//
// The server is observable in production terms: GET /metrics exposes
// an internal/obs registry (queue depth, jobs by state, worker-pool
// utilization, cache hits/misses, unit throughput, NDJSON bytes,
// queue-wait and per-unit latency histograms) in Prometheus text or
// JSON, /healthz derives from the same registry so the two can never
// disagree, and a trace-enabled campaign job serves its span log at
// GET /v1/jobs/{id}/trace. Every job lifecycle transition is a
// structured slog event carrying the job id: teed to Options.Logger
// (the process log) and to a bounded per-job ring replayed at
// GET /v1/jobs/{id}/events as NDJSON. GET /slo evaluates the latency
// histograms against objectives (Options.Objectives or ?objective=)
// and renders a pass/fail verdict per quantile bound.
//
// The serve CLI subcommand (cmd/comptest) wraps this package; tests
// drive it through net/http/httptest.
package serve
