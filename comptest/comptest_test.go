package comptest

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/ecu"
	"repro/internal/paper"
	"repro/internal/script"
	"repro/internal/stand"
)

func paperScript(t testing.TB) *script.Script {
	t.Helper()
	suite, err := LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := suite.GenerateScript("InteriorIllumination")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// ------------------------------------------------------------ options --

func TestOptionPlumbing(t *testing.T) {
	sink := &Collector{}
	r, err := NewRunner(
		WithStand("hil_rack"),
		WithDUT("window_lifter"),
		WithAllocStrategy(alloc.Greedy),
		WithSettleTime(250*time.Millisecond),
		WithParallelism(3),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if r.Parallelism() != 3 {
		t.Errorf("Parallelism() = %d, want 3", r.Parallelism())
	}
	cfg, err := r.standConfig("", paperScript(t))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "hil_rack" {
		t.Errorf("stand = %q, want hil_rack", cfg.Name)
	}
	if cfg.Strategy != alloc.Greedy {
		t.Errorf("strategy = %v, want greedy", cfg.Strategy)
	}
	if cfg.SettleTime != 250*time.Millisecond {
		t.Errorf("settle = %v, want 250ms", cfg.SettleTime)
	}
	dut, err := r.newDUT("", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dut == nil || dut.Name() != ecu.NewWindowLifter().Name() {
		t.Errorf("default DUT = %v, want window lifter", dut)
	}
}

func TestOptionErrors(t *testing.T) {
	cases := map[string]Option{
		"unknown stand":      WithStand("warp_core"),
		"unknown DUT":        WithDUT("flux_capacitor"),
		"zero parallelism":   WithParallelism(0),
		"negative settle":    WithSettleTime(-time.Second),
		"nil sink":           WithSink(nil),
		"empty stand config": WithStandConfig(stand.Config{}),
	}
	for name, opt := range cases {
		if _, err := NewRunner(opt); err == nil {
			t.Errorf("%s: NewRunner succeeded", name)
		}
	}
}

func TestDefaultRunnerUsesPaperStand(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := r.standConfig("", paperScript(t))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "paper_stand" {
		t.Errorf("default stand = %q, want paper_stand", cfg.Name)
	}
}

// ---------------------------------------------------------- registries --

func TestRegistryLookupErrors(t *testing.T) {
	if _, err := BuildStand("ghost", nil, stand.Harness{}); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("BuildStand(ghost) = %v", err)
	}
	if _, err := NewDUT("ghost"); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Errorf("NewDUT(ghost) = %v", err)
	}
	if _, err := BuiltinWorkbook("ghost"); err == nil {
		t.Error("BuiltinWorkbook(ghost) succeeded")
	}
}

func TestRegistryRejectsDuplicatesAndNil(t *testing.T) {
	if err := RegisterStand("paper_stand", stand.FullLab); err == nil {
		t.Error("duplicate stand registration accepted")
	}
	if err := RegisterStand("", stand.FullLab); err == nil {
		t.Error("empty stand name accepted")
	}
	if err := RegisterStand("x", nil); err == nil {
		t.Error("nil stand builder accepted")
	}
	if err := RegisterDUT("interior_light", func() ecu.ECU { return ecu.NewInteriorLight() }, ""); err == nil {
		t.Error("duplicate DUT registration accepted")
	}
	if err := RegisterDUT("", func() ecu.ECU { return ecu.NewInteriorLight() }, ""); err == nil {
		t.Error("empty DUT name accepted")
	}
	if err := RegisterDUT("x", nil, ""); err == nil {
		t.Error("nil DUT factory accepted")
	}
}

func TestRegistryListsBuiltins(t *testing.T) {
	stands := strings.Join(StandNames(), ",")
	for _, want := range []string{"paper_stand", "full_lab", "mini_bench", "hil_rack"} {
		if !strings.Contains(stands, want) {
			t.Errorf("StandNames() lacks %q: %s", want, stands)
		}
	}
	duts := strings.Join(DUTNames(), ",")
	for _, want := range []string{"interior_light", "central_locking", "window_lifter", "exterior_light"} {
		if !strings.Contains(duts, want) {
			t.Errorf("DUTNames() lacks %q: %s", want, duts)
		}
	}
	for _, dut := range DUTNames() {
		wb, err := BuiltinWorkbook(dut)
		if err != nil {
			t.Errorf("BuiltinWorkbook(%s): %v", dut, err)
			continue
		}
		if _, err := LoadSuiteString(wb); err != nil {
			t.Errorf("builtin workbook of %s does not load: %v", dut, err)
		}
	}
}

func TestRegisteredCustomStandIsUsable(t *testing.T) {
	if err := RegisterStand("custom_lab_test", stand.FullLab); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(WithStand("custom_lab_test"), WithDUT("interior_light"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunScript(context.Background(), paperScript(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("paper script failed on custom-registered stand: %s", rep.Summary())
	}
}

// -------------------------------------------------------------- runner --

func TestRunScriptOnPaperStand(t *testing.T) {
	r, err := NewRunner(WithStand("paper_stand"), WithDUT("interior_light"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunScript(context.Background(), paperScript(t))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("paper pipeline failed: %s", rep.Summary())
	}
}

func TestRunPlanStreamsToSinks(t *testing.T) {
	collector := &Collector{}
	r, err := NewRunner(
		WithStand("paper_stand"),
		WithDUT("interior_light"),
		WithSink(collector),
	)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(suite)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := r.RunPlan(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || !reps[0].Passed() {
		t.Fatalf("RunPlan = %d reports", len(reps))
	}
	got := collector.Results()
	if len(got) != 1 || got[0].Report != reps[0] {
		t.Fatalf("sink saw %d results, want the returned report", len(got))
	}
}

func TestRunPlanCancelled(t *testing.T) {
	r, err := NewRunner(WithDUT("interior_light"))
	if err != nil {
		t.Fatal(err)
	}
	suite, err := LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(suite)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunPlan(ctx, plan); err != context.Canceled {
		t.Errorf("RunPlan on cancelled ctx = %v, want context.Canceled", err)
	}
}

// ------------------------------------------------------------ campaign --

// builtinStands and builtinDUTs pin the 4×4 acceptance matrix: other
// tests may register extra profiles in the shared registry, and the
// covered matrix must not depend on test order.
var (
	builtinStands = []string{"full_lab", "hil_rack", "mini_bench", "paper_stand"}
	builtinDUTs   = []string{"central_locking", "exterior_light", "interior_light", "window_lifter"}
)

// matrixUnits is the full 4-stand × 4-DUT campaign of the acceptance
// criterion.
func matrixUnits(t testing.TB) []Unit {
	t.Helper()
	var units []Unit
	for _, dut := range builtinDUTs {
		wb, err := BuiltinWorkbook(dut)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := LoadSuiteString(wb)
		if err != nil {
			t.Fatal(err)
		}
		scripts, err := suite.GenerateScripts()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range builtinStands {
			units = append(units, Cross(scripts, []string{st}, dut)...)
		}
	}
	return units
}

func TestCampaignPreCancelledSkipsEverything(t *testing.T) {
	units := matrixUnits(t)
	collector := &Collector{}
	r, err := NewRunner(WithParallelism(4), WithSink(collector))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := r.Campaign(ctx, units)
	if err != context.Canceled {
		t.Fatalf("pre-cancelled campaign returned %v, want context.Canceled", err)
	}
	if sum.Skipped != len(units) {
		t.Errorf("pre-cancelled campaign dispatched units: %s, want all %d skipped", sum, len(units))
	}
	if got := collector.Results(); len(got) != 0 {
		t.Errorf("pre-cancelled campaign emitted %d results, want 0", len(got))
	}
}

// verdictCounts tallies pass/fail/error check verdicts over a result set.
func verdictCounts(results []Result) [3]int {
	var out [3]int
	for _, res := range results {
		if res.Report == nil {
			continue
		}
		p, f, e, _ := res.Report.Counts()
		out[0] += p
		out[1] += f
		out[2] += e
	}
	return out
}

func TestCampaignParallelMatchesSequential(t *testing.T) {
	units := matrixUnits(t)
	run := func(parallel int) (Summary, []Result) {
		collector := &Collector{}
		r, err := NewRunner(WithParallelism(parallel), WithSink(collector))
		if err != nil {
			t.Fatal(err)
		}
		sum, err := r.Campaign(context.Background(), units)
		if err != nil {
			t.Fatal(err)
		}
		return sum, collector.Results()
	}
	seqSum, seqResults := run(1)
	parSum, parResults := run(4)
	if seqSum != parSum {
		t.Errorf("summaries differ: sequential %s, parallel %s", seqSum, parSum)
	}
	if len(seqResults) != len(units) || len(parResults) != len(units) {
		t.Fatalf("results: sequential %d, parallel %d, want %d each",
			len(seqResults), len(parResults), len(units))
	}
	if sv, pv := verdictCounts(seqResults), verdictCounts(parResults); sv != pv {
		t.Errorf("verdict counts differ: sequential %v, parallel %v", sv, pv)
	}
	if seqSum.Errored > 0 || seqSum.Skipped > 0 {
		t.Errorf("matrix campaign degraded: %s", seqSum)
	}
	if seqSum.Passed == 0 {
		t.Error("matrix campaign passed nothing")
	}
}

func TestCampaignSinkOrderingUnderParallelism(t *testing.T) {
	units := matrixUnits(t)
	var seqs []int
	sink := Ordered(SinkFunc(func(res Result) {
		seqs = append(seqs, res.Seq) // serialised by the runner: no lock needed
	}))
	r, err := NewRunner(WithParallelism(8), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Campaign(context.Background(), units); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(units) {
		t.Fatalf("sink saw %d results, want %d", len(seqs), len(units))
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("ordered sink emitted seq %d at position %d", seq, i)
		}
	}
}

// stopGroups splits units into groups of three, every other one
// stopping after its first unit, and returns the Seqs that execute.
func stopGroups(units []Unit) ([]Group, []int) {
	var (
		groups []Group
		want   []int
	)
	stopFirst := func(Result) bool { return true }
	for base, gi := 0, 0; base < len(units); base, gi = base+3, gi+1 {
		end := min(base+3, len(units))
		g := Group{Units: units[base:end]}
		if gi%2 == 0 {
			g.Stop = stopFirst // runs only its first unit
			want = append(want, base)
		} else {
			for seq := base; seq < end; seq++ {
				want = append(want, seq)
			}
		}
		groups = append(groups, g)
	}
	return groups, want
}

// TestCampaignGroupsStopOrdered: an Ordered sink over a campaign whose
// groups short-circuit must see exactly the units that ran, in Seq
// order — a stopped group's skipped Seqs must not hold back the units
// after them.
func TestCampaignGroupsStopOrdered(t *testing.T) {
	units := matrixUnits(t)
	groups, want := stopGroups(units)
	var seqs []int
	sink := Ordered(SinkFunc(func(res Result) {
		seqs = append(seqs, res.Seq) // serialised by the runner: no lock needed
	}))
	r, err := NewRunner(WithParallelism(4), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.CampaignGroups(context.Background(), groups)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != len(units)-len(want) {
		t.Errorf("summary %s, want %d skipped", sum, len(units)-len(want))
	}
	if !slices.Equal(seqs, want) {
		t.Errorf("ordered sink saw %d results %v,\nwant the %d executed units %v", len(seqs), seqs, len(want), want)
	}
}

// TestCampaignCallSinks: an Ordered call sink gets the same skip
// notices as a Runner sink, so it streams exactly the executed units in
// Seq order; it serves its own call only, while the Runner's sinks see
// every call.
func TestCampaignCallSinks(t *testing.T) {
	units := matrixUnits(t)
	groups, want := stopGroups(units)
	var all int
	r, err := NewRunner(WithParallelism(4), WithSink(SinkFunc(func(Result) { all++ })))
	if err != nil {
		t.Fatal(err)
	}
	calls := make([][]int, 3)
	for i := range calls {
		sink := Ordered(SinkFunc(func(res Result) { calls[i] = append(calls[i], res.Seq) }))
		if _, err := r.CampaignGroups(context.Background(), groups, sink); err != nil {
			t.Fatal(err)
		}
	}
	for i, seqs := range calls {
		if !slices.Equal(seqs, want) {
			t.Errorf("call %d: ordered call sink saw %d results %v,\nwant the %d executed units %v",
				i, len(seqs), seqs, len(want), want)
		}
	}
	if all != len(calls)*len(want) {
		t.Errorf("runner sink saw %d results, want %d", all, len(calls)*len(want))
	}
}

func TestCampaignCancelledMidway(t *testing.T) {
	units := matrixUnits(t)
	ctx, cancel := context.WithCancel(context.Background())
	emitted := 0
	sink := SinkFunc(func(res Result) {
		emitted++
		if emitted == 2 {
			cancel() // cancel after the second result lands
		}
	})
	r, err := NewRunner(WithParallelism(2), WithSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := r.Campaign(ctx, units)
	if err != context.Canceled {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
	if sum.Skipped == 0 {
		t.Errorf("cancelled campaign skipped nothing: %s", sum)
	}
	if got := sum.Passed + sum.Failed + sum.Errored + sum.Skipped; got != sum.Units {
		t.Errorf("summary does not account for every unit: %s", sum)
	}
}

func TestCampaignReportsBadUnits(t *testing.T) {
	r, err := NewRunner(WithSink(&Collector{}))
	if err != nil {
		t.Fatal(err)
	}
	sc := paperScript(t)
	units := []Unit{
		{Script: nil},
		{Script: sc, Stand: "ghost_stand"},
		{Script: sc, DUT: "ghost_dut"},
	}
	sum, err := r.Campaign(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Errored != 3 {
		t.Errorf("bad units: %s, want 3 errored", sum)
	}
}

func TestCrossBuildsFullMatrix(t *testing.T) {
	sc := paperScript(t)
	units := Cross([]*script.Script{sc, sc}, []string{"a", "b", "c"}, "d")
	if len(units) != 6 {
		t.Fatalf("Cross produced %d units, want 6", len(units))
	}
	for _, u := range units {
		if u.DUT != "d" || u.Script != sc {
			t.Fatalf("malformed unit %+v", u)
		}
	}
}
