package explore

import (
	"context"
	"slices"

	"repro/internal/testdef"
)

// shrink minimises a retained walk while preserving what made it worth
// keeping: its novel coverage keys and its oracle kills. Three greedy
// passes — drop whole steps (last to first), shorten hold durations,
// drop individual stimuli — each re-execute the candidate, re-pin the
// observed behaviour and re-score; an edit is kept only when the novel
// keys are still covered and every kill still lands. The stand
// executions spent are bounded by Options.ShrinkBudget.
//
// Shrinking is deterministic (no randomness), so the shrunk corpus is
// a pure function of the seed.
func (e *Explorer) shrink(ctx context.Context, tc *testdef.TestCase, promo *Promotion,
	keys, novel, kills []string) (*Promotion, []string) {

	budget := e.opts.ShrinkBudget
	if budget < 0 {
		return promo, keys
	}
	best := tc.Clone()
	bestPromo, bestKeys := promo, keys
	shrunk := false

	// attempt re-executes an edited walk and adopts it when the novel
	// coverage and the kills survive. Cost per attempt: one traced run
	// plus one run per preserved kill.
	attempt := func(cand *testdef.TestCase) bool {
		cost := 1 + len(kills)
		if budget < cost {
			budget = -1
			return false
		}
		budget -= cost
		sc, err := e.scripts.Generate(cand)
		if err != nil {
			return false
		}
		tr, rep := e.execTraced(ctx, sc)
		if rep == nil || !rep.Passed() {
			return false
		}
		p, err := e.pin.pin(cand, tr)
		if err != nil {
			return false
		}
		ks := e.keys.keysOf(cand, tr, p)
		if !containsAll(ks, novel) {
			return false
		}
		if len(e.kills(ctx, p.Script, kills)) < len(kills) {
			return false
		}
		best, bestPromo, bestKeys = cand, p, ks
		shrunk = true
		return true
	}

	// Pass 1: drop steps, last to first (later steps depend on earlier
	// held state, so removing from the back perturbs least).
	for i := len(best.Steps) - 1; i >= 0 && budget >= 0; i-- {
		if len(best.Steps) < 2 || i >= len(best.Steps) {
			continue
		}
		attempt(dropStep(best, i))
	}
	// Pass 2: shorten holds to the smallest pool duration, else halve.
	minDur := e.opts.Durations[0]
	for _, d := range e.opts.Durations {
		if d < minDur {
			minDur = d
		}
	}
	for i := 0; i < len(best.Steps) && budget >= 0; i++ {
		if best.Steps[i].Dt > minDur && !attempt(withDt(best, i, minDur)) {
			if half := best.Steps[i].Dt / 2; half >= minDur {
				attempt(withDt(best, i, half))
			}
		}
	}
	// Pass 3: drop individual stimuli, last to first.
	for i := len(best.Steps) - 1; i >= 0 && budget >= 0; i-- {
		for j := len(best.Steps[i].Assign) - 1; j >= 0 && budget >= 0; j-- {
			if j >= len(best.Steps[i].Assign) {
				continue
			}
			attempt(dropAssign(best, i, j))
		}
	}

	if !shrunk {
		return promo, keys
	}
	// The shrunk promotion must uphold the green-baseline contract; if
	// the final verification fails, fall back to the already-verified
	// original.
	if !e.runPasses(ctx, bestPromo.Script) {
		return promo, keys
	}
	return bestPromo, bestKeys
}

// dropStep clones the walk without step i, renumbering 0..n-1.
func dropStep(tc *testdef.TestCase, i int) *testdef.TestCase {
	c := tc.Clone()
	c.Steps = slices.Delete(c.Steps, i, i+1)
	renumber(c)
	return c
}

// withDt clones the walk with step i's duration replaced.
func withDt(tc *testdef.TestCase, i int, dt float64) *testdef.TestCase {
	c := tc.Clone()
	c.Steps[i].Dt = dt
	return c
}

// dropAssign clones the walk without assignment j of step i. Steps may
// end up with no assignments — they become pure holds.
func dropAssign(tc *testdef.TestCase, i, j int) *testdef.TestCase {
	c := tc.Clone()
	c.Steps[i].Assign = slices.Delete(c.Steps[i].Assign, j, j+1)
	renumber(c)
	return c
}

// renumber rewrites step indices 0..n-1 and prunes signal columns no
// assignment references anymore. It edits tc's own Steps and Signals,
// so tc must be a clone.
func renumber(tc *testdef.TestCase) {
	for i := range tc.Steps {
		tc.Steps[i].Index = i
	}
	tc.Signals = slices.DeleteFunc(tc.Signals, func(col string) bool {
		for _, step := range tc.Steps {
			for _, a := range step.Assign {
				if a.Signal == col {
					return false
				}
			}
		}
		return true
	})
}
