package comptest

import (
	"strings"
	"testing"

	"repro/internal/paper"
	"repro/internal/script"
	"repro/internal/stand"
)

// builtinScripts returns the scripts of the paper workbook and of every
// registered DUT's built-in workbook.
func builtinScripts(t *testing.T) []*script.Script {
	t.Helper()
	books := []string{paper.Workbook}
	for _, dut := range DUTNames() {
		if wb, err := BuiltinWorkbook(dut); err == nil {
			books = append(books, wb)
		}
	}
	var out []*script.Script
	for _, wb := range books {
		suite, err := LoadSuiteString(wb)
		if err != nil {
			t.Fatal(err)
		}
		scripts, err := suite.GenerateScripts()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, scripts...)
	}
	return out
}

// TestStandKeyMatchesHarness: the buffer-built stand cache key has the
// bytes of the stand and the joined stand.HarnessFromScript pins, for
// every built-in script and for declarations that repeat or omit pins.
func TestStandKeyMatchesHarness(t *testing.T) {
	scripts := append(builtinScripts(t), &script.Script{Decls: []*script.SignalDecl{
		{Pin: "X1"}, {PinRet: "GND"}, {Pin: "X2", PinRet: "GND"},
		{Pin: "X1", PinRet: "R1"}, {}, {Pin: "X3", PinRet: "R1"},
	}}, &script.Script{})
	for _, sc := range scripts {
		for _, standName := range []string{"paper_stand", "full_lab"} {
			h := stand.HarnessFromScript(sc)
			want := standName + "\x00" + strings.Join(h.Forward, ",") + "|" + strings.Join(h.Return, ",")
			if got := string(appendProfileKey(nil, standName, sc)); got != want {
				t.Errorf("%s on %s: key %q, want %q", sc.Name, standName, got, want)
			}
		}
	}
}

// TestTakeStandAllocsNothingWhenSeen: for a configuration the process
// has seen before, looking up its stand cache entry, taking an idle
// stand and returning it allocate nothing.
func TestTakeStandAllocsNothingWhenSeen(t *testing.T) {
	sc := paperScript(t)
	dut, _ := CountingDUT(t)
	first, err := profileFor("paper_stand", sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.acquire(dut)
	if err != nil {
		t.Fatal(err)
	}
	first.release(dut, st, false)
	if n := testing.AllocsPerRun(100, func() {
		e, err := profileFor("paper_stand", sc)
		if err != nil || e != first {
			t.Fatal("stand cache entry changed")
		}
		got, err := e.acquire(dut)
		if err != nil || got != st {
			t.Fatal("idle stand not reused")
		}
		e.release(dut, got, false)
	}); n != 0 {
		t.Errorf("a seen configuration allocates %.1f times, want 0", n)
	}
}
