package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/comptest"
	"repro/internal/paper"
	"repro/internal/sigdef"
	"repro/internal/testdef"
)

// refGenerator is the walk generator as it was before Next reused its
// scratch: a per-walk status map keyed by lower-cased signal name, a
// fresh slice per pick and per status choice, and one Assign slice per
// step. It draws from the embedded Generator's rng, inputs and weights.
type refGenerator struct {
	*Generator
	legalByName map[string][]string
}

func newRefGenerator(g *Generator) *refGenerator {
	r := &refGenerator{Generator: g, legalByName: map[string][]string{}}
	for i, sig := range g.inputs {
		r.legalByName[strings.ToLower(sig.Name)] = g.legal[i]
	}
	return r
}

func (g *refGenerator) Next() *testdef.TestCase {
	n := g.minSteps + g.rng.Intn(g.maxSteps-g.minSteps+1)
	cur := map[string]string{}
	for _, sig := range g.inputs {
		cur[strings.ToLower(sig.Name)] = sig.Init
	}
	tc := &testdef.TestCase{Name: fmt.Sprintf("Explore%04d", g.seq)}
	g.seq++
	seenCol := map[string]bool{}
	for i := 0; i < n; i++ {
		step := testdef.Step{
			Index: i,
			Dt:    g.durations[g.rng.Intn(len(g.durations))],
		}
		for _, sig := range g.pick(1 + g.rng.Intn(g.maxAssign)) {
			key := strings.ToLower(sig.Name)
			status := g.nextStatus(key, cur[key])
			cur[key] = status
			step.Assign = append(step.Assign, testdef.Assignment{Signal: sig.Name, Status: status})
			if !seenCol[key] {
				seenCol[key] = true
				tc.Signals = append(tc.Signals, sig.Name)
			}
		}
		tc.Steps = append(tc.Steps, step)
	}
	return tc
}

func (g *refGenerator) pick(k int) []*sigdef.Signal {
	idx := make([]int, len(g.inputs))
	for i := range idx {
		idx[i] = i
	}
	total := g.total
	var out []*sigdef.Signal
	for len(out) < k && len(idx) > 0 {
		r := g.rng.Intn(total)
		for j, i := range idx {
			r -= g.weights[i]
			if r < 0 {
				out = append(out, g.inputs[i])
				total -= g.weights[i]
				idx = append(idx[:j], idx[j+1:]...)
				break
			}
		}
	}
	return out
}

func (g *refGenerator) nextStatus(key, current string) string {
	statuses := g.legalByName[key]
	var alts []string
	for _, s := range statuses {
		if !strings.EqualFold(s, current) {
			alts = append(alts, s)
		}
	}
	if len(alts) == 0 {
		return statuses[0]
	}
	return alts[g.rng.Intn(len(alts))]
}

// builtinSuites loads the built-in workbook of every registered DUT
// that has one, by DUT name.
func builtinSuites(t *testing.T) map[string]*comptest.Suite {
	t.Helper()
	suites := map[string]*comptest.Suite{}
	for _, dut := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			continue
		}
		suites[dut] = loadSuite(t, wb)
	}
	if len(suites) == 0 {
		t.Fatal("no DUT has a built-in workbook")
	}
	return suites
}

// TestGeneratorMatchesReference: the scratch-reusing walk generator
// draws exactly the walks of the reference generator, the same rng
// calls in the same order, for every built-in suite and seeds 1–20.
func TestGeneratorMatchesReference(t *testing.T) {
	opts := Options{}.withDefaults()
	for dut, suite := range builtinSuites(t) {
		for seed := int64(1); seed <= 20; seed++ {
			gen, err := newGenerator(suite, rand.New(rand.NewSource(seed)), opts.MinSteps, opts.MaxSteps, opts.Durations)
			if err != nil {
				t.Fatal(err)
			}
			base, err := newGenerator(suite, rand.New(rand.NewSource(seed)), opts.MinSteps, opts.MaxSteps, opts.Durations)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefGenerator(base)
			for w := 0; w < 50; w++ {
				got, want := gen.Next(), ref.Next()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s seed %d walk %d:\ngot  %+v\nwant %+v", dut, seed, w, got, want)
				}
			}
		}
	}
}

// TestGeneratorNextAllocs: a warmed generator allocates per walk, not
// per step: a 24-step walk costs what a 4-step walk does.
func TestGeneratorNextAllocs(t *testing.T) {
	suite := loadSuite(t, paper.Workbook)
	allocs := func(steps int) float64 {
		gen, err := newGenerator(suite, rand.New(rand.NewSource(1)), steps, steps, Options{}.withDefaults().Durations)
		if err != nil {
			t.Fatal(err)
		}
		gen.Next()
		return testing.AllocsPerRun(100, func() { gen.Next() })
	}
	// The walk's name comes from fmt, whose printer pool a GC or the
	// race detector may drain: that adds up to one allocation per walk
	// on either side. A cost per step would add at least 20.
	short, long := allocs(4), allocs(24)
	if long > short+1 {
		t.Errorf("Next allocates %v per 4-step walk, %v per 24-step walk", short, long)
	}
	t.Logf("Next: %v allocations per walk", short)
}

// TestGeneratorStepsDoNotAlias: appending to one step's assignments
// of a generated walk leaves the next step as it was.
func TestGeneratorStepsDoNotAlias(t *testing.T) {
	ex, err := New(loadSuite(t, paper.Workbook), interiorOpts())
	if err != nil {
		t.Fatal(err)
	}
	tc := ex.gen.Next()
	want := tc.Clone()
	for i := range tc.Steps[:len(tc.Steps)-1] {
		tc.Steps[i].Assign = append(tc.Steps[i].Assign, testdef.Assignment{Signal: "x", Status: "y"})
		if next := tc.Steps[i+1].Assign; !slices.Equal(next, want.Steps[i+1].Assign) {
			t.Fatalf("append to step %d changed step %d: %v, want %v", i, i+1, next, want.Steps[i+1].Assign)
		}
	}
}
