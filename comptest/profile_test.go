package comptest_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/comptest"
	"repro/comptest/mutation"
	"repro/internal/ecu"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/stand"
)

// aliasStand registers, once per test binary, base's builder under a
// name of its own, so a test starts from profiles no other test has
// warmed. The configurations (and so the reports) are base's.
var aliases sync.Map // alias name → *sync.Once

func aliasStand(t *testing.T, base, alias string) string {
	t.Helper()
	once, _ := aliases.LoadOrStore(alias, new(sync.Once))
	once.(*sync.Once).Do(func() {
		err := comptest.RegisterStand(alias, func(reg *method.Registry, h stand.Harness) (stand.Config, error) {
			return comptest.BuildStand(base, reg, h)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	return alias
}

// TestRepeatMutationRunAllocatesNothing: the script-to-stand binding
// and the stands built from it outlive Runners. A second mutation.Run
// of a freshly enumerated Plan, on a new Runner, reaches the allocator
// 0 times, builds 0 stands and produces the same kill matrix.
func TestRepeatMutationRunAllocatesNothing(t *testing.T) {
	standName := aliasStand(t, "paper_stand", "repeat_mutation_stand")
	dut, attached := comptest.CountingDUT(t)
	run := func() *mutation.Matrix {
		suite, err := comptest.LoadSuiteString(paper.Workbook)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mutation.Enumerate(dut, standName, suite)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := mutation.Run(context.Background(), plan, mutation.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}
	outcomes := func(m *mutation.Matrix) []string {
		var out []string
		for _, o := range m.Outcomes {
			out = append(out, fmt.Sprintf("%s %v %s %d/%d %v", o.Mutant.ID, o.Killed, o.Witness, o.Failed, o.Runs, o.Err))
		}
		return out
	}

	first := run()
	calls, built := comptest.ProfileAllocations(standName), attached.Load()
	if calls == 0 || built == 0 {
		t.Fatalf("first run reached the allocator %d times and built %d stands, want both > 0", calls, built)
	}
	second := run()
	if got := comptest.ProfileAllocations(standName) - calls; got != 0 {
		t.Errorf("repeat run called the allocator %d times, want 0 (first run: %d)", got, calls)
	}
	if got := attached.Load() - built; got != 0 {
		t.Errorf("repeat run built %d stands, want 0 (first run: %d)", got, built)
	}
	if a, b := outcomes(first), outcomes(second); !reflect.DeepEqual(a, b) {
		t.Errorf("repeat kill matrix differs:\n%v\n%v", b, a)
	}
}

// TestConcurrentRunnersShareProfile: Runners running concurrently on
// cold shared profiles — routing, failing allocations (mini_bench) and
// rendering expectations at once — produce the reports of stands that
// never ran before (comptest.RunFresh). So do concurrent Runners that
// draw the idle stands the first ones left, and a later Runner builds
// no stand at all. Run it with -race.
func TestConcurrentRunnersShareProfile(t *testing.T) {
	type job struct {
		dut   string
		stand string // base stand; the concurrent Runners use an alias
	}
	jobs := []job{
		{"interior_light", "paper_stand"},
		{"central_locking", "full_lab"},
		{"central_locking", "mini_bench"},
		{"window_lifter", "mini_bench"},
	}
	var aliasNames []string
	units := func(alias bool) []comptest.Unit {
		var us []comptest.Unit
		for _, j := range jobs {
			wb, err := comptest.BuiltinWorkbook(j.dut)
			if err != nil {
				t.Fatal(err)
			}
			suite, err := comptest.LoadSuiteString(wb)
			if err != nil {
				t.Fatal(err)
			}
			scripts, err := suite.GenerateScripts()
			if err != nil {
				t.Fatal(err)
			}
			name := j.stand
			if alias {
				name = aliasStand(t, j.stand, "concurrent_"+j.stand)
				if !slices.Contains(aliasNames, name) {
					aliasNames = append(aliasNames, name)
				}
			}
			us = append(us, comptest.Cross(scripts, []string{name}, j.dut)...)
		}
		return us
	}
	encode := func(b *bytes.Buffer, rep *report.Report, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		line, err := report.EncodeJSON(rep)
		if err != nil {
			t.Error(err)
		}
		b.Write(line)
	}
	run := func(par int, units []comptest.Unit) []byte {
		r, err := comptest.NewRunner(comptest.WithParallelism(par))
		if err != nil {
			t.Error(err)
			return nil
		}
		var buf bytes.Buffer
		_, err = r.Campaign(context.Background(), units, comptest.Ordered(comptest.SinkFunc(func(res comptest.Result) {
			encode(&buf, res.Report, res.Err)
		})))
		if err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	idle := func() int {
		n := 0
		for _, name := range aliasNames {
			n += comptest.IdleStands(name)
		}
		return n
	}

	var fresh bytes.Buffer
	for _, u := range units(false) {
		rep, err := comptest.RunFresh(context.Background(), u)
		encode(&fresh, rep, err)
	}
	want := fresh.Bytes()
	if !bytes.Contains(want, []byte(`"ERROR"`)) || !bytes.Contains(want, []byte("alloc: no resource")) {
		t.Fatal("the fresh-stand run has no allocation failure to share")
	}
	shared := units(true)
	for round := range 2 {
		got := make([][]byte, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run(2, shared)
			}()
		}
		wg.Wait()
		for i, b := range got {
			if !bytes.Equal(b, want) {
				t.Errorf("round %d, runner %d: reports differ from fresh stands (%d vs %d bytes)", round, i, len(b), len(want))
			}
		}
	}
	before := idle()
	if before == 0 {
		t.Fatal("the concurrent Runners left no idle stand")
	}
	if b := run(1, shared); !bytes.Equal(b, want) {
		t.Errorf("a later Runner's reports differ from fresh stands (%d vs %d bytes)", len(b), len(want))
	}
	if after := idle(); after != before {
		t.Errorf("a later Runner built %d stands, want 0", after-before)
	}
}

// noClearLight is interior_light with ClearFaults hidden, counting the
// stands it is attached to: a stand whose DUT carries its faults
// cannot be cleaned for reuse.
type noClearLight struct {
	resettableECU
	attached *atomic.Int64
}

type resettableECU interface {
	ecu.ECU
	ResetComms()
}

func (l noClearLight) Attach(env *ecu.Env) error {
	l.attached.Add(1)
	return l.resettableECU.Attach(env)
}

var noClearDUTs atomic.Int64

// TestFaultedStandNeverLeaks: a stand that ran a faulted unit on a DUT
// that cannot clear its faults is dropped, not pooled. A later clean
// unit of the same configuration on another Runner builds a new stand
// and reports byte for byte what a never-run stand reports.
func TestFaultedStandNeverLeaks(t *testing.T) {
	name := fmt.Sprintf("no_clear_light_%d", noClearDUTs.Add(1))
	var attached atomic.Int64
	err := comptest.RegisterDUT(name, func() ecu.ECU { return noClearLight{ecu.NewInteriorLight(), &attached} }, paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := comptest.Compile(suite)
	if err != nil {
		t.Fatal(err)
	}
	clean := plan.Units([]string{"paper_stand"}, name)[0]
	faulted := clean
	faulted.Faults = []string{"stuck_off"}
	run := func(u comptest.Unit) []byte {
		r, err := comptest.NewRunner()
		if err != nil {
			t.Fatal(err)
		}
		var c comptest.Collector
		if _, err := r.Campaign(context.Background(), []comptest.Unit{u}, &c); err != nil {
			t.Fatal(err)
		}
		res := c.Results()[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		b, err := report.EncodeJSON(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rep, err := comptest.RunFresh(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.EncodeJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(run(faulted), want) {
		t.Fatal("the faulted unit reports what a clean one does")
	}
	before := attached.Load()
	if got := run(clean); !bytes.Equal(got, want) {
		t.Errorf("clean unit after a faulted one differs from a never-run stand (%d vs %d bytes)", len(got), len(want))
	}
	if built := attached.Load() - before; built != 1 {
		t.Errorf("clean unit after an uncleared fault built %d stands, want 1", built)
	}
}

// TestCheckStand: a stand name is validated by a registry lookup with
// WithStand's error text, without building anything.
func TestCheckStand(t *testing.T) {
	if err := comptest.CheckStand("paper_stand"); err != nil {
		t.Fatal(err)
	}
	err := comptest.CheckStand("garage")
	_, werr := comptest.NewRunner(comptest.WithStand("garage"))
	if err == nil || werr == nil || err.Error() != werr.Error() {
		t.Errorf("CheckStand(garage) = %v, WithStand(garage) = %v; want the same error", err, werr)
	}
	if n := testing.AllocsPerRun(100, func() { _ = comptest.CheckStand("paper_stand") }); n > 1 {
		t.Errorf("CheckStand allocates %.1f times, want at most 1", n)
	}
}
