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

// TestStandKeyMatchesHarness: the buffer-built pool key has the bytes
// of stand, DUT and the joined stand.HarnessFromScript pins, for every
// built-in script and for declarations that repeat or omit pins.
func TestStandKeyMatchesHarness(t *testing.T) {
	r, err := NewRunner(WithDUT("interior_light"))
	if err != nil {
		t.Fatal(err)
	}
	scripts := append(builtinScripts(t), &script.Script{Decls: []*script.SignalDecl{
		{Pin: "X1"}, {PinRet: "GND"}, {Pin: "X2", PinRet: "GND"},
		{Pin: "X1", PinRet: "R1"}, {}, {Pin: "X3", PinRet: "R1"},
	}}, &script.Script{})
	for _, sc := range scripts {
		for _, u := range []Unit{{Script: sc}, {Script: sc, Stand: "full_lab", DUT: "central_locking"}} {
			standPart, dut := u.Stand, u.DUT
			if standPart == "" {
				standPart, dut = "paper_stand", "interior_light"
			}
			h := stand.HarnessFromScript(sc)
			want := standPart + "\x00" + dut + "\x00" +
				strings.Join(h.Forward, ",") + "|" + strings.Join(h.Return, ",")
			if got := string(r.appendStandKey(nil, u)); got != want {
				t.Errorf("%s on %q: key %q, want %q", sc.Name, u.Stand, got, want)
			}
		}
	}
}

// TestTakeStandAllocsNothingWhenSeen: the idle list of a configuration
// the Runner has seen before is looked up without allocating.
func TestTakeStandAllocsNothingWhenSeen(t *testing.T) {
	r, err := NewRunner(WithDUT("interior_light"))
	if err != nil {
		t.Fatal(err)
	}
	u := Unit{Script: paperScript(t)}
	first, _ := r.takeStand(u)
	if n := testing.AllocsPerRun(100, func() {
		if free, st := r.takeStand(u); free != first || st != nil {
			t.Fatal("idle list changed")
		}
	}); n != 0 {
		t.Errorf("takeStand of a seen configuration allocates %.1f times, want 0", n)
	}
}
