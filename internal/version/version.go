// Package version is the single source of the tool chain's identity
// string: the module version baked into the binary plus the Go
// toolchain it was built with. The CLI prints it (comptest version)
// and the distributed layer exchanges it in the worker↔coordinator
// handshake, so a mixed-version fleet is visible in /v1/workers
// instead of failing mysteriously mid-campaign.
package version

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Protocol is the coordinator↔worker wire-protocol revision. A worker
// whose Protocol differs from the coordinator's is rejected at
// registration — shard specs and merge semantics are only defined
// within one revision. Revision 2: every job kind streams in unit
// order and merges by line position, so mutate, explore and vet jobs
// requeue like campaign shards; a revision-1 worker streams mutate and
// explore lines in completion order.
const Protocol = 2

// Module returns the module version stamped into the binary by the Go
// toolchain, or "(devel)" for test and development builds.
func Module() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "(devel)"
}

// String renders the full identity line: module version, Go toolchain
// and platform. This exact string travels in the registration
// handshake and is what `comptest version` prints.
func String() string {
	return fmt.Sprintf("comptest %s %s %s/%s", Module(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
