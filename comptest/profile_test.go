package comptest_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/comptest"
	"repro/comptest/mutation"
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
// outlives Runners. A second mutation.Run of a freshly enumerated Plan,
// on a fresh Runner and fresh stands, reaches the allocator 0 times and
// produces the same kill matrix.
func TestRepeatMutationRunAllocatesNothing(t *testing.T) {
	standName := aliasStand(t, "paper_stand", "repeat_mutation_stand")
	run := func() *mutation.Matrix {
		suite, err := comptest.LoadSuiteString(paper.Workbook)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mutation.Enumerate("interior_light", standName, suite)
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
	calls := comptest.ProfileAllocations(standName)
	if calls == 0 {
		t.Fatal("first run never reached the allocator")
	}
	second := run()
	if got := comptest.ProfileAllocations(standName) - calls; got != 0 {
		t.Errorf("repeat run called the allocator %d times, want 0 (first run: %d)", got, calls)
	}
	if a, b := outcomes(first), outcomes(second); !reflect.DeepEqual(a, b) {
		t.Errorf("repeat kill matrix differs:\n%v\n%v", b, a)
	}
}

// TestConcurrentRunnersShareProfile: Runners running concurrently on
// cold shared profiles — routing, failing allocations (mini_bench) and
// rendering expectations at once — produce the reports a sequential
// Runner produces on profiles of its own. Run it with -race.
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
			}
			us = append(us, comptest.Cross(scripts, []string{name}, j.dut)...)
		}
		return us
	}
	encode := func(units []comptest.Unit) []byte {
		r, err := comptest.NewRunner(comptest.WithParallelism(2))
		if err != nil {
			t.Error(err)
			return nil
		}
		var buf bytes.Buffer
		_, err = r.Campaign(context.Background(), units, comptest.Ordered(comptest.SinkFunc(func(res comptest.Result) {
			if res.Err != nil {
				t.Error(res.Err)
				return
			}
			b, err := report.EncodeJSON(res.Report)
			if err != nil {
				t.Error(err)
			}
			buf.Write(b)
		})))
		if err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}

	want := encode(units(false))
	if !bytes.Contains(want, []byte(`"ERROR"`)) || !bytes.Contains(want, []byte("alloc: no resource")) {
		t.Fatal("the sequential run has no allocation failure to share")
	}
	shared := units(true)
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = encode(shared)
		}()
	}
	wg.Wait()
	for i, b := range got {
		if !bytes.Equal(b, want) {
			t.Errorf("runner %d: reports differ from the sequential run (%d vs %d bytes)", i, len(b), len(want))
		}
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
