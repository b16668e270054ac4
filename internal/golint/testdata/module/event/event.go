// Package event mirrors the repo's event package closely enough to
// exercise the ctxpath allowlist: Scheduler.RunUntil is a pure
// virtual-time pump and must not be flagged.
package event

import "time"

type Scheduler struct{}

// RunUntil matches the allowlist entry "event.Scheduler.RunUntil": no
// finding.
func (s *Scheduler) RunUntil(t time.Duration) {}
