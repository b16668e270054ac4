// Package repro is a from-scratch Go reproduction of Brinkmeyer,
// "A New Approach to Component Testing" (DATE 2005): a test-stand-
// independent methodology for defining and executing component tests of
// automotive ECUs.
//
// The public API lives in the comptest package (Runner, functional
// options, stand/DUT registries, concurrent campaigns — see README.md
// for a quickstart). Execution is compile-once: comptest.Compile turns
// a loaded Suite into an immutable Plan (validated scripts lowered to
// executable programs), and runners, campaigns, the CLI, the serve
// cache and the distributed engine all execute Plans, and a stand has
// exactly one step loop (stand.RunCompiled). The mutation-testing
// subsystem lives in
// comptest/mutation (mutant enumeration, kill-matrix campaigns with
// early-kill short-circuits ordered by historical kill probability,
// test-strength reports) and coverage-guided scenario exploration in
// comptest/explore (seeded random-walk generation, behavioural
// coverage, shrinking, promotion of discovered scenarios into
// workbook tests), the campaign-execution service in
// comptest/serve (HTTP JSON job API, bounded queue + worker pool,
// content-addressed artifact cache, NDJSON report streaming), and
// distributed execution in comptest/dist (a coordinator shards
// campaign unit matrices across registered remote workers —
// heartbeat leases, shard requeue on node loss, exactly-once ordered
// merge byte-identical to a single-node run). Static analysis runs on
// both sides of the tool chain: internal/lint is a pluggable analyzer
// registry over workbooks (surfaced as `comptest vet`: positioned
// findings, severities, SARIF, a ratcheting baseline and a vet job
// kind in comptest/serve), while internal/goanalysis + internal/golint
// implement a stdlib-only go/analysis-style framework with the repo's
// own determinism, context-path and lock-discipline analyzers,
// multichecked by cmd/comptest-lint in CI. Production observability
// is stdlib-only too: internal/obs is a small metrics registry
// (Prometheus text + JSON exposition, snapshot relabel/merge for
// fleet aggregation, quantile estimation and SLO evaluation behind
// /slo and `comptest slo`) behind serve's /metrics, internal/report
// carries deterministic trace spans (campaign → unit → step) written
// by `comptest run -trace` and re-based across shards by
// report.TraceMerger so distributed traces stay byte-identical (one
// report.Sequencer orders and dedups every unit-ordered stream),
// structured slog event logs correlate job/shard/worker across the
// fleet, and opt-in pprof rides a -debug-addr listener. The
// building blocks live under internal/, the command line tools under
// cmd/comptest, cmd/comptest-lint and cmd/benchjson, runnable
// examples under examples/, and bench_test.go regenerates every table
// and figure of the paper.
package repro
