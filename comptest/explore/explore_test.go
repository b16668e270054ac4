package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/comptest"
	"repro/comptest/mutation"
	"repro/internal/ecu"
	"repro/internal/paper"
	"repro/internal/workbooks"
)

func loadSuite(t testing.TB, workbook string) *comptest.Suite {
	t.Helper()
	suite, err := comptest.LoadSuiteString(workbook)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// interiorOpts is the pinned acceptance configuration for the paper's
// DUT: a fixed seed and a bounded budget that discovers only_fl
// killers (EXPERIMENTS.md C3).
func interiorOpts() Options {
	return Options{
		DUT:    "interior_light",
		Seed:   1,
		Budget: 16,
		Oracle: []string{"only_fl"},
	}
}

// lifterOpts is the pinned acceptance configuration for the window
// lifter: longer walks with second-scale holds so the walk can
// accumulate the 30 s thermal budget across press/release cycles.
func lifterOpts() Options {
	return Options{
		DUT:       "window_lifter",
		Seed:      1,
		Budget:    12,
		MinSteps:  16,
		MaxSteps:  28,
		Durations: []float64{1, 2, 3},
		Oracle:    []string{"no_thermal"},
	}
}

func runExploration(t testing.TB, workbook string, opts Options) *Result {
	t.Helper()
	ex, err := New(loadSuite(t, workbook), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// verifyPromotedKills feeds the exploration result back through the
// mutation subsystem: the promoted workbook (original tests + corpus
// scenarios) must yield a passing baseline and kill the named fault.
// This is the acceptance loop of the issue — discovered scenarios
// become first-class workbook tests that close the kill-matrix gap.
func verifyPromotedKills(t *testing.T, res *Result, fault string) {
	t.Helper()
	wb, err := res.Workbook()
	if err != nil {
		t.Fatal(err)
	}
	augmented, err := comptest.LoadSuiteString(wb)
	if err != nil {
		t.Fatalf("promoted workbook does not load: %v", err)
	}
	plan, err := mutation.Enumerate(res.DUT, res.Stand, augmented)
	if err != nil {
		t.Fatal(err)
	}
	// The oracle claim concerns the fault mutants; dropping the script
	// mutants keeps the verification matrix small.
	var faults []mutation.Mutant
	for _, m := range plan.Mutants {
		if m.Kind == mutation.FaultMutant {
			faults = append(faults, m)
		}
	}
	plan.Mutants = faults
	mat, err := mutation.Run(context.Background(), plan, mutation.Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("mutation run on promoted workbook: %v", err)
	}
	for _, o := range mat.Outcomes {
		if o.Mutant.Fault.Name == fault {
			if !o.Killed {
				t.Fatalf("promoted suite does not kill %s", fault)
			}
			t.Logf("killed %s — witness: %s", fault, o.Witness)
			return
		}
	}
	t.Fatalf("fault %s not in the mutant matrix", fault)
}

// TestExploreKillsOnlyFL is the first half of the C3 acceptance
// criterion: the paper suite leaves only_fl alive (C2); exploration of
// the interior light with a fixed seed and bounded budget discovers,
// shrinks and promotes scenarios that kill it.
func TestExploreKillsOnlyFL(t *testing.T) {
	res := runExploration(t, paper.Workbook, interiorOpts())
	killers := res.Corpus.Killers()
	if len(killers) == 0 {
		t.Fatalf("no only_fl killer discovered (corpus %d, %d keys)",
			res.Corpus.Len(), res.Coverage.Len())
	}
	// The killing scenario must open a rear door — the exact stimulus
	// the paper's table never applies (lint's unstimulated-input gap).
	var opensRear bool
	for _, e := range killers {
		for _, step := range e.Promotion.Test.Steps {
			for _, a := range step.Assign {
				sig := strings.ToLower(a.Signal)
				if (sig == "ds_rl" || sig == "ds_rr") && strings.EqualFold(a.Status, "Open") {
					opensRear = true
				}
			}
		}
	}
	if !opensRear {
		t.Error("only_fl killer does not open a rear door — kill is implausible")
	}
	verifyPromotedKills(t, res, "only_fl")
}

// TestExploreKillsNoThermal is the second half of the C3 acceptance
// criterion: the window lifter's no_thermal mutant survives its suite
// because no test soaks a motor for the 30 s thermal budget;
// exploration accumulates it across random press/release cycles.
func TestExploreKillsNoThermal(t *testing.T) {
	res := runExploration(t, workbooks.WindowLifter, lifterOpts())
	if len(res.Corpus.Killers()) == 0 {
		t.Fatalf("no no_thermal killer discovered (corpus %d, %d keys)",
			res.Corpus.Len(), res.Coverage.Len())
	}
	verifyPromotedKills(t, res, "no_thermal")
}

// TestExploreShrinksKillers: shrinking must actually minimise. The
// interior-light killers need only a handful of steps (night on, rear
// door open, lamp checked), so with the pinned seed at least one
// shrinks below the generator's minimum walk length. Thermal killers
// are the counter-case — they cannot shrink below the 30 s duty budget
// that makes them kill — so here only the upper bound is asserted.
func TestExploreShrinksKillers(t *testing.T) {
	opts := interiorOpts()
	res := runExploration(t, paper.Workbook, opts)
	killers := res.Corpus.Killers()
	if len(killers) == 0 {
		t.Fatal("no killers to shrink")
	}
	shrunkOne := false
	for _, e := range killers {
		if e.Steps() > e.GeneratedSteps {
			t.Errorf("%s grew from %d to %d steps", e.Name, e.GeneratedSteps, e.Steps())
		}
		if e.Steps() < e.GeneratedSteps {
			shrunkOne = true
		}
		// Shrunk scenarios must still carry what made them corpus-worthy.
		if len(e.NewKeys) == 0 && len(e.Kills) == 0 {
			t.Errorf("%s retained without new keys or kills", e.Name)
		}
	}
	if !shrunkOne {
		t.Error("no killer lost steps to shrinking")
	}
}

// TestExploreDeterminism pins the repo's determinism rule for the new
// subsystem: a fixed seed reproduces the corpus byte for byte, and the
// worker-pool bound must not leak into the result.
func TestExploreDeterminism(t *testing.T) {
	base := interiorOpts()
	fp := func(par int) string {
		opts := base
		opts.Parallelism = par
		res := runExploration(t, paper.Workbook, opts)
		s, err := res.Corpus.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := fp(1), fp(1)
	if a != b {
		t.Fatal("same seed, same options: corpora differ")
	}
	if c := fp(4); a != c {
		t.Fatal("parallelism changed the corpus")
	}
	if a == "" {
		t.Fatal("fingerprint is empty — corpus was not exercised")
	}
	// A different seed explores differently.
	opts := base
	opts.Seed = 99
	res := runExploration(t, paper.Workbook, opts)
	d, err := res.Corpus.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Error("different seeds produced identical corpora")
	}
}

// TestExploreFingerprintsPinned pins the corpora of seeds 1–7 of the
// paper configuration to committed SHA-256 sums of their fingerprints
// (testdata/fingerprints.json, the same sums the benchmark's goldens
// hold), at parallelism 1 and 2. Exploration observes every stand run,
// so this is what holds the observed fast-forward to the corpora that
// tick-by-tick execution produced. The budget spans several batches,
// so the corpora are also those of reused traces: every batch slot's
// trace is reset and refilled by each later batch, and the probe trace
// by every shrink attempt.
func TestExploreFingerprintsPinned(t *testing.T) {
	want := pinnedFingerprints(t)
	suite := loadSuite(t, paper.Workbook)
	for seed := int64(1); seed <= 7; seed++ {
		for _, par := range []int{1, 2} {
			opts := interiorOpts()
			opts.Seed, opts.Parallelism = seed, par
			if batch := max(4, 2*par); opts.Budget <= batch {
				t.Fatalf("budget %d fits one batch of %d: no slot trace is reused", opts.Budget, batch)
			}
			ex, err := New(suite, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got, w := fingerprintSum(t, res), want[strconv.FormatInt(seed, 10)]; got != w {
				t.Errorf("seed %d, parallelism %d: fingerprint sha256 %s, pinned %s", seed, par, got, w)
			}
		}
	}
}

// pinnedFingerprints reads the committed fingerprint sums by seed.
func pinnedFingerprints(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fingerprints.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// fingerprintSum is the SHA-256 of the corpus fingerprint, as pinned.
func fingerprintSum(t *testing.T, res *Result) string {
	t.Helper()
	fp, err := res.Corpus.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:])
}

// TestSurvivingFaults computes the oracle set the C2 experiment
// documents: the paper suite leaves exactly only_fl alive.
func TestSurvivingFaults(t *testing.T) {
	suite := loadSuite(t, paper.Workbook)
	got, err := SurvivingFaults(context.Background(), "interior_light", "", suite, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "only_fl" {
		t.Fatalf("SurvivingFaults = %v, want [only_fl]", got)
	}
}

// TestPromotedWorkbookRunsGreen: the promoted workbook must be a valid,
// fully passing suite on the exploration stand — discovered scenarios
// are first-class tests, not fixtures.
func TestPromotedWorkbookRunsGreen(t *testing.T) {
	res := runExploration(t, paper.Workbook, interiorOpts())
	if res.Corpus.Len() == 0 {
		t.Fatal("empty corpus")
	}
	wb, err := res.Workbook()
	if err != nil {
		t.Fatal(err)
	}
	augmented, err := comptest.LoadSuiteString(wb)
	if err != nil {
		t.Fatal(err)
	}
	if len(augmented.Tests) != len(res.suite.Tests)+res.Corpus.Len() {
		t.Errorf("augmented suite has %d tests, want %d original + %d promoted",
			len(augmented.Tests), len(res.suite.Tests), res.Corpus.Len())
	}
	scripts, err := augmented.GenerateScripts()
	if err != nil {
		t.Fatal(err)
	}
	collector := &comptest.Collector{}
	r, err := comptest.NewRunner(
		comptest.WithStand(res.Stand),
		comptest.WithDUT(res.DUT),
		comptest.WithParallelism(2),
		comptest.WithSink(collector),
	)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Campaign(context.Background(), comptest.Cross(scripts, []string{res.Stand}, res.DUT))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Passed != sum.Units {
		for _, cres := range collector.Results() {
			if cres.Report != nil && !cres.Report.Passed() {
				t.Logf("failing: %s", cres.Report.Summary())
			}
		}
		t.Fatalf("promoted workbook not green: %s", sum)
	}
}

// TestExplorationReport exercises the result→report conversion.
func TestExplorationReport(t *testing.T) {
	res := runExploration(t, paper.Workbook, interiorOpts())
	x := res.Exploration()
	if x.DUT != "interior_light" || x.Stand != "paper_stand" || x.Seed != 1 {
		t.Errorf("report header: %+v", x)
	}
	if x.Candidates != res.Candidates || x.Executions != res.Executions {
		t.Errorf("report tallies: %+v", x)
	}
	if len(x.Entries) != res.Corpus.Len() {
		t.Errorf("report entries = %d, corpus = %d", len(x.Entries), res.Corpus.Len())
	}
	if len(x.Killers()) != len(res.Corpus.Killers()) {
		t.Errorf("report killers = %d, corpus killers = %d", len(x.Killers()), len(res.Corpus.Killers()))
	}
}

// TestNewErrors covers constructor validation.
func TestNewErrors(t *testing.T) {
	suite := loadSuite(t, paper.Workbook)
	if _, err := New(nil, Options{DUT: "interior_light"}); err == nil {
		t.Error("nil suite accepted")
	}
	if _, err := New(suite, Options{}); err == nil {
		t.Error("missing DUT accepted")
	}
	if _, err := New(suite, Options{DUT: "ghost"}); err == nil {
		t.Error("unknown DUT accepted")
	}
	if _, err := New(suite, Options{DUT: "interior_light", Oracle: []string{"ghost_fault"}}); err == nil {
		t.Error("unknown oracle fault accepted")
	}
	if _, err := New(suite, Options{DUT: "interior_light", Stand: "ghost_stand"}); err == nil {
		t.Error("unknown stand accepted")
	}
	if _, err := New(suite, Options{DUT: "interior_light", MinSteps: 8, MaxSteps: 2}); err == nil {
		t.Error("MaxSteps below MinSteps accepted")
	}
	// A non-finite hold would reach the stand's clock as a step
	// duration; New rejects it before any walk runs.
	for _, d := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		if _, err := New(suite, Options{DUT: "interior_light", Durations: []float64{d, 1}}); err == nil {
			t.Errorf("duration %v accepted", d)
		}
	}
}

// TestExploreCancellation: a cancelled context stops the run and
// surfaces the context error with a partial result.
func TestExploreCancellation(t *testing.T) {
	ex, err := New(loadSuite(t, paper.Workbook), interiorOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ex.Run(ctx)
	if err != context.Canceled {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
	if res == nil || res.Corpus.Len() != 0 {
		t.Errorf("pre-cancelled run produced a corpus")
	}
}

// TestGeneratorGapBias: the rear-door signals flagged by lint's
// coverage gaps must carry the boosted weight.
func TestGeneratorGapBias(t *testing.T) {
	ex, err := New(loadSuite(t, paper.Workbook), interiorOpts())
	if err != nil {
		t.Fatal(err)
	}
	weights := map[string]int{}
	for i, sig := range ex.gen.inputs {
		weights[strings.ToLower(sig.Name)] = ex.gen.weights[i]
	}
	for _, gap := range []string{"ds_rl", "ds_rr"} {
		if weights[gap] != gapWeight {
			t.Errorf("gap signal %s has weight %d, want %d", gap, weights[gap], gapWeight)
		}
	}
	if weights["ds_fl"] != 1 {
		t.Errorf("covered signal ds_fl has weight %d, want 1", weights["ds_fl"])
	}
}

// TestGeneratorWalksAreValid: every generated walk must compile to a
// valid script and respect the configured bounds.
func TestGeneratorWalksAreValid(t *testing.T) {
	suite := loadSuite(t, workbooks.WindowLifter)
	ex, err := New(suite, lifterOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tc := ex.gen.Next()
		if len(tc.Steps) < 16 || len(tc.Steps) > 28 {
			t.Fatalf("walk %d has %d steps, want 16..28", i, len(tc.Steps))
		}
		for _, step := range tc.Steps {
			if len(step.Assign) == 0 {
				t.Fatalf("walk %d has an empty step", i)
			}
		}
		if err := tc.Validate(suite.Signals, suite.Statuses); err != nil {
			t.Fatalf("walk %d invalid: %v", i, err)
		}
	}
}

// TestCoverageSet covers the coverage primitives.
func TestCoverageSet(t *testing.T) {
	c := NewCoverage()
	keys := []string{"a", "b", "c"}
	if got := c.Missing(keys); len(got) != 3 {
		t.Fatalf("Missing on empty set = %v", got)
	}
	if n := c.Merge(keys); n != 3 {
		t.Fatalf("Merge = %d, want 3", n)
	}
	if n := c.Merge(keys); n != 0 {
		t.Fatalf("re-Merge = %d, want 0", n)
	}
	if got := c.Missing([]string{"b", "d"}); len(got) != 1 || got[0] != "d" {
		t.Fatalf("Missing = %v, want [d]", got)
	}
	if c.Len() != 3 || len(c.Keys()) != 3 {
		t.Fatalf("Len/Keys inconsistent: %d %v", c.Len(), c.Keys())
	}
}

// countingDUT registers interior_light under a name no earlier call
// used, so no stand of it is idle yet, and returns the name with the
// count of stands its instances were attached to: one per stand
// instance built. (Oracle validation instantiates the model too, but
// never attaches it.)
var countingDUTs atomic.Int64

type countedLight struct {
	*ecu.InteriorLight
	attached *atomic.Int64
}

func (l countedLight) Attach(env *ecu.Env) error {
	l.attached.Add(1)
	return l.InteriorLight.Attach(env)
}

func countingDUT(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("counting_interior_light_%d", countingDUTs.Add(1))
	attached := new(atomic.Int64)
	err := comptest.RegisterDUT(name, func() ecu.ECU { return countedLight{ecu.NewInteriorLight(), attached} }, paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	return name, attached
}

// TestExploreReusesStands: one exploration runs every candidate walk,
// pin check, oracle run and shrink probe on pooled stands, and pooling
// leaves the pinned corpus unchanged.
func TestExploreReusesStands(t *testing.T) {
	want := pinnedFingerprints(t)["1"]
	for _, par := range []int{1, 2} {
		dut, attached := countingDUT(t)
		opts := interiorOpts()
		opts.DUT, opts.Stand, opts.Parallelism = dut, "paper_stand", par
		res := runExploration(t, paper.Workbook, opts)
		built := attached.Load()
		if par == 1 && built > 2 {
			t.Errorf("parallelism 1: %d stands built for %d executions, want at most 2", built, res.Executions)
		}
		if built == 0 {
			t.Errorf("parallelism %d: no stand built from the counting DUT", par)
		}
		if got := fingerprintSum(t, res); got != want {
			t.Errorf("parallelism %d: fingerprint sha256 %s, pinned %s", par, got, want)
		}
	}
}

// TestExploreUnitsCarryCompiled: every execution of an exploration —
// walks, pin checks, oracle runs and shrink probes — reaches the sink
// with its script compiled.
func TestExploreUnitsCarryCompiled(t *testing.T) {
	collector := &comptest.Collector{}
	opts := interiorOpts()
	opts.Sink = collector
	res := runExploration(t, paper.Workbook, opts)
	results := collector.Results()
	if len(results) != res.Executions {
		t.Fatalf("sink saw %d results, exploration ran %d", len(results), res.Executions)
	}
	for _, r := range results {
		if r.Unit.Compiled == nil || r.Unit.Compiled.Script != r.Unit.Script {
			t.Fatalf("execution %d (%s) carries no compilation of its script", r.Seq, r.Unit.Script.Name)
		}
	}
}

// TestDuplicateOracles: naming an oracle twice neither runs it twice
// nor lists its kill twice.
func TestDuplicateOracles(t *testing.T) {
	unique := runExploration(t, paper.Workbook, interiorOpts())
	opts := interiorOpts()
	opts.Oracle = []string{"only_fl", "only_fl"}
	dup := runExploration(t, paper.Workbook, opts)
	if a, b := fingerprintSum(t, unique), fingerprintSum(t, dup); a != b {
		t.Errorf("duplicated oracle changed the corpus fingerprint: %s, want %s", b, a)
	}
	if dup.Executions != unique.Executions || dup.Candidates != unique.Candidates {
		t.Errorf("duplicated oracle: %d executions, %d candidates; want %d, %d",
			dup.Executions, dup.Candidates, unique.Executions, unique.Candidates)
	}
	if !reflect.DeepEqual(dup.Exploration(), unique.Exploration()) {
		t.Errorf("duplicated oracle changed the exploration record")
	}
}
