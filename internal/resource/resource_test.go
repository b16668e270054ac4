package resource

import (
	"math"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/sheet"
	"repro/internal/unit"
)

func paperCatalog(t *testing.T) *Catalog {
	t.Helper()
	wb, err := sheet.ReadWorkbookString(paper.ResourceSheet)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := ParseSheet(wb.Sheet("Resources"), method.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestParsePaperTable(t *testing.T) {
	cat := paperCatalog(t)
	if cat.Len() != 3 {
		t.Fatalf("Len = %d, want 3", cat.Len())
	}
	ids := cat.IDs()
	want := []string{"Ress1", "Ress2", "Ress3"}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v", ids)
		}
	}
	dvm, ok := cat.Lookup("Ress1")
	if !ok || dvm.Kind != DVM {
		t.Errorf("Ress1 = %+v", dvm)
	}
	cap, ok := dvm.Supports("get_u")
	if !ok {
		t.Fatal("Ress1 does not support get_u")
	}
	if cap.Range.Min != -60 || cap.Range.Max != 60 || cap.Range.U != unit.Volt {
		t.Errorf("Ress1 get_u range = %v", cap.Range)
	}
	dec2, _ := cat.Lookup("ress2") // case-insensitive
	if dec2 == nil || dec2.Kind != ResistorDecade {
		t.Fatalf("Ress2 = %+v", dec2)
	}
	cap, _ = dec2.Supports("put_r")
	if cap.Range.Max != 1e6 {
		t.Errorf("Ress2 put_r max = %v, want 1e6 (German 1,00E+06)", cap.Range.Max)
	}
	dec3, _ := cat.Lookup("Ress3")
	cap, _ = dec3.Supports("put_r")
	if cap.Range.Max != 2e5 {
		t.Errorf("Ress3 put_r max = %v, want 2e5", cap.Range.Max)
	}
}

func TestTerminals(t *testing.T) {
	cat := paperCatalog(t)
	dvm, _ := cat.Lookup("Ress1")
	if dvm.Terminals() != 2 {
		t.Errorf("DVM terminals = %d, want 2", dvm.Terminals())
	}
	dec, _ := cat.Lookup("Ress2")
	if dec.Terminals() != 1 {
		t.Errorf("decade terminals = %d, want 1", dec.Terminals())
	}
	can := &Resource{ID: "X", Kind: CANAdapter, Caps: []Capability{{Method: "put_can"}}}
	if can.Terminals() != 0 || can.Electrical() {
		t.Error("CAN adapter must have no electrical terminals")
	}
	if !dvm.Electrical() {
		t.Error("DVM must be electrical")
	}
}

func TestCheckAttrsWithinRange(t *testing.T) {
	cat := paperCatalog(t)
	reg := method.Builtin()
	env := evalIn(expr.MapEnv{"ubatt": 12})

	dvm, _ := cat.Lookup("Ress1")
	capGetU, _ := dvm.Supports("get_u")
	d, _ := reg.Lookup("get_u")
	// The paper's Ho limits at 12 V: 8.4 … 13.2 V, well inside ±60 V.
	attrs := map[string]string{"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"}
	if err := capGetU.CheckAttrs(d, attrs, env); err != nil {
		t.Errorf("Ho limits rejected: %v", err)
	}
	// 100 V limit exceeds the DVM range.
	attrs = map[string]string{"u_min": "0", "u_max": "100"}
	if err := capGetU.CheckAttrs(d, attrs, env); err == nil {
		t.Error("100 V limit accepted by ±60 V DVM")
	}
}

func TestCheckAttrsDecadeRange(t *testing.T) {
	cat := paperCatalog(t)
	reg := method.Builtin()
	env := evalIn(expr.MapEnv{})
	d, _ := reg.Lookup("put_r")
	dec3, _ := cat.Lookup("Ress3") // 0 … 200 kΩ
	cap, _ := dec3.Supports("put_r")
	if err := cap.CheckAttrs(d, map[string]string{"r": "5000"}, env); err != nil {
		t.Errorf("5 kΩ rejected: %v", err)
	}
	if err := cap.CheckAttrs(d, map[string]string{"r": "500000"}, env); err == nil {
		t.Error("500 kΩ accepted by the 200 kΩ decade")
	}
	if err := cap.CheckAttrs(d, map[string]string{"r": "-1"}, env); err == nil {
		t.Error("negative resistance accepted")
	}
	if err := cap.CheckAttrs(d, map[string]string{"r": "bogus("}, env); err == nil {
		t.Error("malformed attribute accepted")
	}
	// Fits is CheckAttrs without the reason.
	for _, r := range []string{"5000", "500000", "-1", "bogus("} {
		attrs := map[string]string{"r": r}
		if fits, err := cap.Fits(d, attrs, env), cap.CheckAttrs(d, attrs, env); fits != (err == nil) {
			t.Errorf("r=%s: Fits=%v, CheckAttrs=%v", r, fits, err)
		}
	}
}

// evalIn is the uncached evaluator over env.
func evalIn(env expr.Env) func(string) (float64, error) {
	return func(v string) (float64, error) { return EvalNumber(v, env) }
}

func TestCandidates(t *testing.T) {
	cat := paperCatalog(t)
	decs := cat.Candidates("put_r")
	if len(decs) != 2 || decs[0].ID != "Ress2" || decs[1].ID != "Ress3" {
		t.Errorf("put_r candidates = %v", decs)
	}
	if got := cat.Candidates("put_can"); len(got) != 0 {
		t.Errorf("put_can candidates = %v", got)
	}
}

func TestSupportedMethods(t *testing.T) {
	cat := paperCatalog(t)
	got := cat.SupportedMethods()
	want := []string{"get_u", "put_r"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("SupportedMethods = %v", got)
	}
}

func TestToSheetRoundTrip(t *testing.T) {
	reg := method.Builtin()
	cat := paperCatalog(t)
	out := cat.ToSheet("Resources", reg)
	cat2, err := ParseSheet(out, reg)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if cat2.Len() != cat.Len() {
		t.Fatalf("round-trip len %d != %d", cat2.Len(), cat.Len())
	}
	for _, id := range cat.IDs() {
		a, _ := cat.Lookup(id)
		b, ok := cat2.Lookup(id)
		if !ok || a.Kind != b.Kind || len(a.Caps) != len(b.Caps) {
			t.Errorf("resource %q changed: %+v vs %+v", id, a, b)
			continue
		}
		for i := range a.Caps {
			if a.Caps[i] != b.Caps[i] {
				t.Errorf("resource %q cap %d: %+v vs %+v", id, i, a.Caps[i], b.Caps[i])
			}
		}
	}
}

func TestMultiCapabilityResource(t *testing.T) {
	reg := method.Builtin()
	wb, _ := sheet.ReadWorkbookString(`== R ==
resource;method;attribut;min;max;unit
DVM1;get_u;u;-100;100;V
DVM1;get_r;r;0;1,00E+07;Ohm
`)
	cat, err := ParseSheet(wb.Sheet("R"), reg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := cat.Lookup("DVM1")
	if len(r.Caps) != 2 {
		t.Fatalf("caps = %v", r.Caps)
	}
	if _, ok := r.Supports("get_r"); !ok {
		t.Error("get_r capability lost")
	}
}

func TestExplicitKindColumn(t *testing.T) {
	reg := method.Builtin()
	wb, _ := sheet.ReadWorkbookString(`== R ==
resource;method;attribut;min;max;unit;kind
CAN1;put_can;data;0;255;;can_adapter
`)
	cat, err := ParseSheet(wb.Sheet("R"), reg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := cat.Lookup("CAN1")
	if r.Kind != CANAdapter {
		t.Errorf("kind = %v", r.Kind)
	}
}

func TestParseErrors(t *testing.T) {
	reg := method.Builtin()
	bad := map[string]string{
		"missing cols":   "== R ==\nfoo;bar\n",
		"unknown method": "== R ==\nresource;method;min;max\nR1;zorch;0;1\n",
		"bad min":        "== R ==\nresource;method;min;max\nR1;put_r;zz;1\n",
		"bad max":        "== R ==\nresource;method;min;max\nR1;put_r;0;zz\n",
		"bad unit":       "== R ==\nresource;method;min;max;unit\nR1;put_r;0;1;parsec\n",
		"no id":          "== R ==\nresource;method;min;max\n;put_r;0;1\n",
		"dup method":     "== R ==\nresource;method;min;max\nR1;put_r;0;1\nR1;put_r;0;2\n",
		"wrong attr":     "== R ==\nresource;method;attribut;min;max\nR1;put_r;u;0;1\n",
		"empty":          "== R ==\nresource;method;min;max\n",
	}
	for name, in := range bad {
		wb, err := sheet.ReadWorkbookString(in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSheet(wb.Sheet("R"), reg); err == nil {
			t.Errorf("%s: ParseSheet succeeded", name)
		}
	}
	if _, err := ParseSheet(nil, reg); err == nil {
		t.Error("ParseSheet(nil) succeeded")
	}
}

func TestCatalogAddErrors(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Add(&Resource{ID: ""}); err == nil {
		t.Error("empty id accepted")
	}
	if err := cat.Add(&Resource{ID: "R1"}); err == nil {
		t.Error("resource without capabilities accepted")
	}
	ok := &Resource{ID: "R1", Caps: []Capability{{Method: "put_r", Range: unit.NewRange(0, 1, unit.Ohm)}}}
	if err := cat.Add(ok); err != nil {
		t.Fatal(err)
	}
	if err := cat.Add(&Resource{ID: "r1", Caps: ok.Caps}); err == nil {
		t.Error("duplicate id accepted")
	}
	if ok.Kind != ResistorDecade {
		t.Errorf("kind not inferred: %v", ok.Kind)
	}
}

func TestCheckAttrsIgnoresNonRangeAttrs(t *testing.T) {
	// put_u's optional ri attribute is not range-checked against the u
	// capability range.
	reg := method.Builtin()
	d, _ := reg.Lookup("put_u")
	cap := Capability{Method: "put_u", Range: unit.NewRange(0, 20, unit.Volt)}
	attrs := map[string]string{"u": "12", "ri": "100000"}
	if err := cap.CheckAttrs(d, attrs, evalIn(expr.MapEnv{})); err != nil {
		t.Errorf("ri range-checked against u range: %v", err)
	}
}

func TestUnbounded(t *testing.T) {
	r := Unbounded(unit.Ohm)
	if !r.Contains(math.Inf(1)) || !r.Contains(-1e300) {
		t.Error("Unbounded range not unbounded")
	}
}

func TestKindInference(t *testing.T) {
	cases := map[string]Kind{
		"get_u": DVM, "get_r": DVM, "get_i": DVM,
		"put_r": ResistorDecade, "put_u": PowerSupply, "put_i": ELoad,
		"put_can": CANAdapter, "get_can": CANAdapter,
		"get_t": Counter, "get_f": Counter, "put_pwm": PWMGenerator,
	}
	for m, want := range cases {
		if got := kindForMethod(m); got != want {
			t.Errorf("kindForMethod(%s) = %v, want %v", m, got, want)
		}
	}
	if kindForMethod("wait") != "" {
		t.Error("wait should have no kind")
	}
}

func TestErrorsMentionRange(t *testing.T) {
	cat := paperCatalog(t)
	reg := method.Builtin()
	dec3, _ := cat.Lookup("Ress3")
	cap, _ := dec3.Supports("put_r")
	d, _ := reg.Lookup("put_r")
	err := cap.CheckAttrs(d, map[string]string{"r": "500000"}, evalIn(expr.MapEnv{}))
	if err == nil || !strings.Contains(err.Error(), "range") {
		t.Errorf("range error unhelpful: %v", err)
	}
}
