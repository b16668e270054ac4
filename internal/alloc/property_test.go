package alloc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/resource"
	"repro/internal/topology"
)

// TestPlanInvariantsProperty allocates many random request sets against
// the paper's stand and verifies that every returned plan respects the
// physical constraints:
//
//  1. a resource other than a CAN adapter serves at most one signal,
//  2. no two closed entries fight over one multiplexer group,
//  3. every electrical assignment has exactly one entry per pin, and
//  4. disconnects carry neither resource nor entries.
//
// It also checks allocator monotonicity: whenever Backtracking fails,
// Greedy fails too (Greedy's solutions are a subset of Backtracking's).
func TestPlanInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	doors := []string{"DS_FL", "DS_FR", "DS_RL", "DS_RR"}
	resistances := []string{"0", "5000", "150000", "500000", "INF"}

	for iter := 0; iter < 500; iter++ {
		var reqs []Request
		// Random subset of doors with random resistances.
		for _, pin := range doors {
			switch rng.Intn(3) {
			case 0:
				// skip this door
			default:
				r := resistances[rng.Intn(len(resistances))]
				reqs = append(reqs, reqPutR(t, pin, pin, r))
			}
		}
		// Sometimes add the lamp measurement.
		if rng.Intn(2) == 0 {
			reqs = append(reqs, reqGetU(t, "INT_ILL", "INT_ILL_F", "INT_ILL_R"))
		}
		if len(reqs) == 0 {
			continue
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

		back := paperAllocator(t, Backtracking)
		plan, errBack := back.Allocate(reqs, nil)

		greedy := paperAllocator(t, Greedy)
		_, errGreedy := greedy.Allocate(reqs, nil)
		if errBack != nil && errGreedy == nil {
			t.Fatalf("iter %d: greedy solved a set backtracking could not: %v", iter, reqs)
		}
		if errBack != nil {
			continue
		}
		checkPlanInvariants(t, iter, plan)
	}
}

func checkPlanInvariants(t *testing.T, iter int, plan *Plan) {
	t.Helper()
	// (1) resource exclusivity.
	seenRes := map[string]string{}
	for _, a := range plan.Assignments {
		if a.Resource == nil {
			// (4) disconnects are bare.
			if len(a.Entries) != 0 {
				t.Fatalf("iter %d: resource-less assignment has entries: %+v", iter, a)
			}
			continue
		}
		key := strings.ToLower(a.Resource.ID)
		if prev, taken := seenRes[key]; taken && !strings.EqualFold(prev, a.Request.Signal) &&
			a.Resource.Kind != resource.CANAdapter {
			t.Fatalf("iter %d: resource %s serves %s and %s", iter, a.Resource.ID, prev, a.Request.Signal)
		}
		seenRes[key] = a.Request.Signal
		// (3) one entry per pin, matching pin names.
		if len(a.Entries) != len(a.Request.Pins) {
			t.Fatalf("iter %d: %d entries for %d pins: %+v", iter, len(a.Entries), len(a.Request.Pins), a)
		}
		for i, e := range a.Entries {
			if !strings.EqualFold(e.Pin, a.Request.Pins[i]) {
				t.Fatalf("iter %d: entry %d routes pin %s, want %s", iter, i, e.Pin, a.Request.Pins[i])
			}
		}
	}
	// (2) mux exclusivity across the whole plan.
	var all []topology.Entry
	for _, a := range plan.Assignments {
		all = append(all, a.Entries...)
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if topology.Conflicts(all[i], all[j]) {
				t.Fatalf("iter %d: plan closes conflicting entries %s and %s",
					iter, all[i].Elem.Name, all[j].Elem.Name)
			}
		}
	}
}

// TestPreferenceNeverBreaksFeasibility: adding a preference must never
// turn a solvable set unsolvable for the backtracking allocator.
func TestPreferenceNeverBreaksFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doors := []string{"DS_FL", "DS_FR", "DS_RL", "DS_RR"}
	for iter := 0; iter < 200; iter++ {
		var reqs []Request
		for _, pin := range doors {
			if rng.Intn(2) == 0 {
				reqs = append(reqs, reqPutR(t, pin, pin, "5000"))
			}
		}
		if len(reqs) == 0 {
			continue
		}
		al := paperAllocator(t, Backtracking)
		if _, err := al.Allocate(reqs, nil); err != nil {
			continue // unsolvable anyway (three+ finite doors)
		}
		prefer := map[string]string{}
		for _, r := range reqs {
			if rng.Intn(2) == 0 {
				prefer[strings.ToLower(r.Signal)] = []string{"Ress2", "Ress3"}[rng.Intn(2)]
			}
		}
		if _, err := al.Allocate(reqs, prefer); err != nil {
			t.Fatalf("iter %d: preference %v broke feasibility: %v", iter, prefer, err)
		}
	}
}
