// Package dist distributes campaign execution across remote workers:
// a Coordinator in front of the comptest/serve job API shards each
// campaign's unit matrix into bounded chunks and fans them out to a
// fleet of Workers, merging the streamed per-unit reports back into
// one ordered sequence that is byte-identical to a single-node run.
//
//	            POST /v1/jobs            POST /v1/jobs (shard: scripts subset)
//	client ───────────────► Coordinator ───────────────► Worker (serve engine)
//	                            │        ◄─── NDJSON ───     │
//	       GET /v1/jobs/…/stream│   merge (ordered,          │ content-addressed
//	client ◄────────────────────┘   exactly-once)            │ artifact cache
//
// The design leans entirely on two properties the repository already
// guarantees: campaign units are independent (each gets a fresh stand
// and DUT, so any unit can run on any node), and execution is
// deterministic (the same unit produces the same report bytes
// anywhere — which is what makes "byte-identical merge" a testable
// contract rather than a hope).
//
// # Workers
//
// A worker (comptest worker -join URL) is nothing but a serve.Server
// on its own listener plus a registration loop: it POSTs a handshake
// to the coordinator's /v1/workers — advertised URL, capability lists
// (kinds, DUTs, stands), capacity, and the build's version/protocol
// (internal/version) — and then heartbeats to keep its lease alive. A
// protocol mismatch is rejected at registration (409), so an
// incompatible build fails before it can corrupt a merge. Shards
// arrive as ordinary jobs over the ordinary wire format; the
// workbook travels inline with every shard but the worker's
// content-addressed artifact cache parses it once per node.
//
// # Sharding and the exactly-once merge
//
// The coordinator chunks a campaign's script list into shards of at
// most Options.ShardUnits units. Chunks are contiguous, so line i of
// a shard stream is global unit base+i; a report.Sequencer orders
// lines by that global sequence, buffers early arrivals and drops
// re-deliveries (a sequence already released or pending). That dedup is what makes failure handling simple: a
// worker that dies mid-shard is marked lost and the WHOLE shard is
// requeued on a survivor — units the dead worker already delivered
// are dropped as duplicates, units it never reached merge from the
// retry. After three remote tries (or with no live worker at
// all) the coordinator executes the shard in-process through
// serve.Server.ExecuteLocal — exactly what a worker runs for that
// shard — so a coordinator alone degrades gracefully into exactly a
// single-node serve.Server. Per-job cancellation propagates: cancelling the
// coordinator job cancels every in-flight shard dispatch and sends a
// best-effort DELETE for the remote jobs.
//
// Mutate, explore and vet jobs take the same path as one open-ended
// shard at base 0 with no unit list. Their streams are deterministic
// (unit order at every parallelism), so line i is sequence i and the
// same positional dedup makes their requeue, local fallback and crash
// recovery exactly-once. The shard is complete when the remote job is
// done; its verdict and engine status are relayed to the job.
//
// The coordinator's GET /metrics answers for the whole fleet: it
// scrapes every live worker's registry (each scrape bounded by
// Options.ScrapeTimeout and timed into dist_scrape_seconds), relabels
// each series with worker="w-NNNN", and merges them with its own
// dist_* counters (shard requeues, lease expiries, shards
// completed/local, pending merge lines, scrape errors, shard
// round-trip latency) — a dead node costs one
// dist_scrape_errors_total increment, never the exposition. GET /slo
// evaluates latency objectives against the same fleet snapshot,
// folding the worker-labelled histogram cells into one deployment-wide
// quantile per family.
//
// Traced campaigns distribute like untraced ones: the trace flag
// travels with each shard, the coordinator fetches the completed
// shard's span log from the worker's trace endpoint, and
// report.TraceMerger re-bases the shard-local unit indices and time
// offsets onto the global sequence — the merged span log is
// byte-identical to a single-node run, with requeue duplicates dropped
// exactly-once by the same Sequencer dedup as result lines.
//
// Lifecycle transitions (worker registration and loss, shard
// dispatch/merge/requeue) are logged as structured slog events with
// worker and shard correlation attrs via Options.Logger.
//
//lint:deterministic
package dist
