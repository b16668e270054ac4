package stand

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
)

// countdownCtx is a context.Context whose Err flips to Canceled after
// its Err method has been consulted n times — a deterministic way to
// cancel an otherwise synchronous run between two specific steps.
type countdownCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestRunContextPreCancelled(t *testing.T) {
	sc := paperScript(t)
	s := paperStand(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := s.RunContext(ctx, sc)
	if rep.FatalErr == "" {
		t.Fatal("cancelled run has no FatalErr")
	}
	if rep.Passed() {
		t.Fatal("cancelled run passed")
	}
	if len(rep.Steps) != len(sc.Steps) {
		t.Fatalf("cancelled run recorded %d steps, want %d skipped", len(rep.Steps), len(sc.Steps))
	}
	for _, step := range rep.Steps {
		for _, c := range step.Checks {
			if c.Verdict != report.Skip {
				t.Fatalf("step %d check %s: verdict %v, want SKIP", step.Nr, c.Signal, c.Verdict)
			}
		}
	}
}

func TestRunContextCancelsBetweenSteps(t *testing.T) {
	sc := paperScript(t)
	s := paperStand(t)
	// Budget: one Err check before the init block, then one per step.
	// Two steps execute, the rest are skipped.
	ctx := &countdownCtx{Context: context.Background(), left: 3}
	rep := s.RunContext(ctx, sc)
	if rep.FatalErr == "" {
		t.Fatal("aborted run has no FatalErr")
	}
	if len(rep.Steps) != len(sc.Steps) {
		t.Fatalf("aborted run recorded %d steps, want %d", len(rep.Steps), len(sc.Steps))
	}
	executed := 0
	for _, step := range rep.Steps {
		skipped := false
		for _, c := range step.Checks {
			if c.Verdict == report.Skip {
				skipped = true
			}
		}
		if !skipped {
			executed++
		}
	}
	if executed != 2 {
		t.Fatalf("executed %d steps before the cancellation took effect, want 2", executed)
	}
}

func TestRunContextDeadline(t *testing.T) {
	// A context whose deadline already passed behaves like pre-cancel.
	sc := paperScript(t)
	s := paperStand(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep := s.RunContext(ctx, sc)
	if rep.Passed() || rep.FatalErr == "" {
		t.Fatalf("expired-deadline run: passed=%v fatal=%q", rep.Passed(), rep.FatalErr)
	}
}
