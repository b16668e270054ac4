//go:build race

package comptest

// The race detector makes sync.Pool drop a random share of the stands
// put back, so stand counts are only asserted without it.
func init() { raceEnabled = true }
