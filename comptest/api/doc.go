// Package api holds the versioned v1 wire types of the comptest
// service surface: the job API of comptest/serve (JobSpec, JobStatus
// and the per-engine status blocks), the coordinator↔worker handshake
// of comptest/dist (RegisterRequest, RegisterResponse, WorkerInfo),
// the NDJSON error-line shape of the merged report stream (ErrorLine),
// the structured-event record of GET /v1/jobs/{id}/events (Event) and
// the /slo evaluation payload (Objective, SLOResult, SLOReport).
//
// The definitions here are canonical: comptest/serve, comptest/dist,
// internal/report and internal/obs alias these types rather than
// declaring their own, so the wire format cannot drift between the
// client and server halves of the tool chain. External consumers —
// a worker written against an old build, a dashboard decoding the
// stream — import only this package and the standard library.
//
// Compatibility contract: within v1 fields are only ever ADDED, always
// with `omitempty`, never renamed or retyped. TestFixtureRoundTrip pins
// the exact JSON of every type against checked-in fixtures; a change
// that breaks an old decoder fails that test and must bump the protocol
// revision (internal/version.Protocol) instead. The revision also moves
// when the wire stays but its meaning changes: revision 2 kept every v1
// type and changed how the coordinator merges worker streams.
package api
