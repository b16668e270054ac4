package comptest

import "strings"

// ProfileAllocations sums the allocator calls of the shared stand
// profiles built for the named stand, over every harness.
func ProfileAllocations(standName string) uint64 {
	profiles.mu.RLock()
	defer profiles.mu.RUnlock()
	var n uint64
	for k, p := range profiles.m {
		if strings.HasPrefix(k, standName+"\x00") {
			n += p.Allocations()
		}
	}
	return n
}
