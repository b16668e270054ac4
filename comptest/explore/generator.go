package explore

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/comptest"
	"repro/internal/lint"
	"repro/internal/sigdef"
	"repro/internal/testdef"
)

// Generator synthesises candidate scenarios by seeded random walks over
// the DUT's stimulus space: each step reassigns a weighted random
// subset of the suite's input signals to a legal stimulus status and
// holds the new state for a random duration. All randomness flows
// through the injected *rand.Rand, so a seed reproduces the exact
// candidate sequence (the repo-wide determinism rule).
//
// The walk is biased two ways:
//
//   - Reassignments always pick a status DIFFERENT from the signal's
//     current one when an alternative exists, so every step is an
//     input event rather than a no-op — random-walk exploration wants
//     transitions, not states.
//   - Signals named by the suite's lint coverage gaps (unstimulated
//     inputs, never-toggled inputs — the findings that explain the
//     surviving mutants of EXPERIMENTS.md C2) carry gapWeight instead
//     of weight 1, steering the walk toward exactly the stimuli the
//     hand-written tests never exercise.
type Generator struct {
	rng *rand.Rand

	inputs  []*sigdef.Signal
	legal   [][]string // parallel to inputs: legal stimulus statuses, table order
	weights []int      // parallel to inputs
	total   int

	durations []float64
	minSteps  int
	maxSteps  int
	maxAssign int

	seq int

	// Scratch reused by every Next, so a walk allocates only its own
	// test case: the current status and whether the column was emitted
	// (parallel to inputs), pick's candidate and result positions, and
	// nextStatus' alternatives.
	cur    []string
	seen   []bool
	idx    []int
	picked []int
	alts   []string
}

// gapWeight is the selection weight of a coverage-gap signal relative
// to the default weight 1.
const gapWeight = 4

// newGenerator builds the walk generator for a suite. Defaults: steps
// uniform in [minSteps, maxSteps], durations drawn from the pool, every
// input eligible.
func newGenerator(suite *comptest.Suite, rng *rand.Rand, minSteps, maxSteps int, durations []float64) (*Generator, error) {
	g := &Generator{
		rng:       rng,
		durations: durations,
		minSteps:  minSteps,
		maxSteps:  maxSteps,
	}
	for _, sig := range suite.Signals.Inputs() {
		var statuses []string
		for _, name := range suite.Statuses.Names() {
			st, _ := suite.Statuses.Lookup(name)
			if !st.Desc.IsStimulus() {
				continue
			}
			if sigdef.CheckAssignment(sig, name, suite.Statuses) != nil {
				continue
			}
			// A bit payload must fit the CAN signal's length.
			if _, width, err := st.BitsValue(); err == nil && sig.Length > 0 && width > sig.Length {
				continue
			}
			statuses = append(statuses, name)
		}
		if len(statuses) == 0 {
			continue // no legal stimulus: the walk cannot move this signal
		}
		g.inputs = append(g.inputs, sig)
		g.legal = append(g.legal, statuses)
	}
	if len(g.inputs) == 0 {
		return nil, fmt.Errorf("explore: suite has no stimulable input signals")
	}
	g.maxAssign = min(3, len(g.inputs))
	g.cur = make([]string, len(g.inputs))
	g.seen = make([]bool, len(g.inputs))
	g.idx = make([]int, 0, len(g.inputs))
	g.picked = make([]int, 0, g.maxAssign)

	gaps := lint.CoverageGaps(lint.Check(suite.Signals, suite.Statuses, suite.Tests))
	g.weights = make([]int, len(g.inputs))
	for i, sig := range g.inputs {
		g.weights[i] = 1
		for _, f := range gaps {
			if f.Mentions(sig.Name) {
				g.weights[i] = gapWeight
				break
			}
		}
		g.total += g.weights[i]
	}
	return g, nil
}

// Next synthesises the next candidate walk as a stimulus-only test
// case. Step indices run 0..n-1, every step carries at least one
// assignment, and the set of signal columns is the set of signals the
// walk actually touches (first-use order).
//
// The steps' assignments share one backing array, each step's capped
// at its own length, so a walk costs the same few allocations however
// many steps it has, and appending to one step never reaches the next.
func (g *Generator) Next() *testdef.TestCase {
	n := g.minSteps + g.rng.Intn(g.maxSteps-g.minSteps+1)

	// current status per signal, seeded from the init column so the
	// "pick a different status" rule measures change against the state
	// the DUT actually starts in.
	for i, sig := range g.inputs {
		g.cur[i] = sig.Init
		g.seen[i] = false
	}

	tc := &testdef.TestCase{
		Name:    fmt.Sprintf("Explore%04d", g.seq),
		Signals: make([]string, 0, len(g.inputs)),
		Steps:   make([]testdef.Step, n),
	}
	g.seq++
	// Every step assigns at most maxAssign signals, so the slab never
	// grows and the sub-slices handed out stay on it.
	slab := make([]testdef.Assignment, 0, n*g.maxAssign)
	for i := range tc.Steps {
		step := &tc.Steps[i]
		step.Index = i
		step.Dt = g.durations[g.rng.Intn(len(g.durations))]
		from := len(slab)
		for _, p := range g.pick(1 + g.rng.Intn(g.maxAssign)) {
			status := g.nextStatus(p)
			g.cur[p] = status
			name := g.inputs[p].Name
			slab = append(slab, testdef.Assignment{Signal: name, Status: status})
			if !g.seen[p] {
				g.seen[p] = true
				tc.Signals = append(tc.Signals, name)
			}
		}
		step.Assign = slab[from:len(slab):len(slab)]
	}
	return tc
}

// pick draws k distinct inputs, weighted, without replacement, and
// returns their positions. The result is scratch, valid until the next
// call.
func (g *Generator) pick(k int) []int {
	idx := g.idx[:0]
	for i := range g.inputs {
		idx = append(idx, i)
	}
	total := g.total
	out := g.picked[:0]
	for len(out) < k && len(idx) > 0 {
		r := g.rng.Intn(total)
		for j, i := range idx {
			r -= g.weights[i]
			if r < 0 {
				out = append(out, i)
				total -= g.weights[i]
				idx = append(idx[:j], idx[j+1:]...)
				break
			}
		}
	}
	g.idx, g.picked = idx, out
	return out
}

// nextStatus picks a legal status for input p, different from its
// current one whenever an alternative exists.
func (g *Generator) nextStatus(p int) string {
	statuses := g.legal[p]
	alts := g.alts[:0]
	for _, s := range statuses {
		if !strings.EqualFold(s, g.cur[p]) {
			alts = append(alts, s)
		}
	}
	g.alts = alts
	if len(alts) == 0 {
		return statuses[0]
	}
	return alts[g.rng.Intn(len(alts))]
}
