// Package comptest is the public API of the component-test tool chain —
// the reproduction of Brinkmeyer, "A New Approach to Component Testing"
// (DATE 2005) — redesigned for concurrent, configurable, cancellable
// execution:
//
//	workbook (signal/status/test sheets)
//	   │  LoadSuite / LoadSuiteString / LoadSuiteFile
//	   ▼
//	Suite ── Compile ──► Plan (validated scripts + compiled programs)
//	   │                   │
//	   │                   ▼  run on ANY registered stand
//	   │       Runner ── RunPlan / Campaign ──► streamed report.Reports
//
// Execution is a two-phase API: Compile turns a loaded Suite into a
// Plan — every generated script validated and lowered once into its
// executable form (see internal/stand.CompileScript) — and Runners
// execute Plans. The compile step is pure front-end work (generation,
// validation, symbolic-limit folding, step routing), so its cost is
// paid once per suite instead of once per unit; a Plan is immutable
// and safe to share across goroutines, runners, the serve cache and
// the mutation engine. Plan.Units expands the M scripts × N stands
// matrix into campaign Units that carry their compiled program
// alongside the script; Cross and the mutation and exploration engines
// build their units compiled too, so the Runner never compiles a
// script a unit-maker already did.
//
// The entry point is the Runner, built with functional options:
//
//	r, err := comptest.NewRunner(
//		comptest.WithStand("paper_stand"),
//		comptest.WithDUT("interior_light"),
//		comptest.WithParallelism(4),
//		comptest.WithSink(sink),
//	)
//
// A Runner executes a Campaign: M scripts × N stand configs fanned out
// over a bounded worker pool, each result streamed to the configured
// sinks, and to the sinks passed to that Campaign call, the moment it
// completes. RunScript (one unit) and RunPlan (a plan's scripts as one
// in-order Group) are thin calls into the same loop. context.Context is
// honoured throughout; cancellation takes effect at the next step
// boundary (see stand.RunContext).
//
// Stands and DUT models are looked up in process-wide registries
// (RegisterStand, RegisterDUT) keyed by name — the four built-in stand
// profiles (paper_stand, full_lab, mini_bench, hil_rack) and the four
// built-in ECU models (interior_light, central_locking, window_lifter,
// exterior_light) are pre-registered. A unit names its stand and DUT
// and carries injected faults by name (Unit.Faults, validated with
// CheckFaults), so faulted units pool stands like clean ones. Stands
// live in one process-wide cache, not in a Runner: each (stand name,
// harness) pair is built once per process into a shared stand.Profile,
// and the stands built from it return there after each run, so the
// routing of a script onto a stand, and the stand itself, outlive
// every Runner. The comptest/mutation subpackage runs full
// mutation-testing campaigns this way (mutant enumeration, kill matrix,
// test-strength reports) on top of Campaign, and the comptest/explore
// subpackage searches the stimulus space for scenarios that kill the
// mutants mutation leaves alive — campaign units carry an optional
// stand.Observer (Unit.Observer) through which exploration records
// behavioural traces.
//
// Results stream to pluggable sinks (Sink, SinkFunc, Collector,
// Ordered); NDJSON writes each result as one report.Report JSON line,
// the wire format of the comptest/serve campaign-execution service —
// a long-lived HTTP job API that runs campaigns, mutation matrices
// and exploration as queued jobs with live report streaming. The
// comptest/dist subpackage scales that service past one node: a
// coordinator shards campaign unit matrices over registered remote
// workers (comptest worker -join) and merges the streamed reports
// back exactly-once, in unit order, byte-identical to a single-node
// run — unit independence makes the matrix embarrassingly shardable,
// determinism makes the merge verifiable.
//
// Loaded suites carry their raw workbook (Suite.Workbook), which feeds
// the static-analysis engine in internal/lint: `comptest vet` runs a
// registry of workbook analyzers (coverage gaps, limit-band interval
// analysis against stand profiles, dead steps, duplicate scenarios,
// settle-time conflicts, mutation-informed weak checks) with sheet/row
// positions, per-row "lint:ignore CODE" suppression and a ratcheting
// baseline; the serve job API exposes the same engine as the "vet" job
// kind, streaming one finding per NDJSON line.
//
// A Tracer (NewTracer, attached via WithSink) records every campaign
// as a span tree — campaign → unit → step, with simulated-time
// durations — on the as-if-sequential timeline the deterministic
// scheduler already guarantees, so the NDJSON trace a run emits is
// byte-identical across -parallel settings and reruns.
package comptest
