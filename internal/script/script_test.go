package script

import (
	"math"
	"strings"
	"testing"

	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
)

func paperParts(t *testing.T) (*testdef.TestCase, *sigdef.List, *status.Table) {
	t.Helper()
	wb, err := sheet.ReadWorkbookString(paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := sigdef.ParseSheet(wb.Sheet("SignalDefinition"))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := status.ParseSheet(wb.Sheet("StatusDefinition"), method.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	tcs, err := testdef.ParseAll(wb)
	if err != nil {
		t.Fatal(err)
	}
	return tcs[0], sigs, tbl
}

func generated(t *testing.T) *Script {
	t.Helper()
	tc, sigs, tbl := paperParts(t)
	sc, err := Generate(tc, sigs, tbl)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestGenerateBasics(t *testing.T) {
	sc := generated(t)
	if sc.Name != "InteriorIllumination" || sc.Version != Version {
		t.Errorf("script meta = %q %q", sc.Name, sc.Version)
	}
	if len(sc.Steps) != 10 {
		t.Fatalf("steps = %d, want 10", len(sc.Steps))
	}
	if len(sc.Decls) != 7 {
		t.Errorf("decls = %d, want 7", len(sc.Decls))
	}
	// Init applies the six stimulus inits (INT_ILL's init "Lo" is a
	// measurement and is not applied).
	if len(sc.Init) != 6 {
		t.Errorf("init statements = %d, want 6", len(sc.Init))
	}
}

func TestGenerateMatchesPaperXMLFragment(t *testing.T) {
	// The paper prints the generated encoding of "Ho" on int_ill:
	//   <signal name="int_ill">
	//     <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />
	//   </signal>
	sc := generated(t)
	xmlText, err := EncodeString(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(xmlText, `<signal name="int_ill">`) {
		t.Error("generated XML lacks the int_ill signal statement")
	}
	if !strings.Contains(xmlText, `u_max="(1.1*ubatt)"`) {
		t.Error("generated XML lacks u_max=\"(1.1*ubatt)\"")
	}
	if !strings.Contains(xmlText, `u_min="(0.7*ubatt)"`) {
		t.Error("generated XML lacks u_min=\"(0.7*ubatt)\"")
	}
	// Attribute order matches the paper: u_max before u_min.
	iMax := strings.Index(xmlText, "u_max")
	iMin := strings.Index(xmlText, "u_min")
	if iMax < 0 || iMin < 0 || iMax > iMin {
		t.Error("attribute order differs from the paper (u_max must precede u_min)")
	}
}

func TestStepContents(t *testing.T) {
	sc := generated(t)
	s0 := sc.Steps[0]
	if s0.Nr != 0 || s0.Dt != 0.5 || len(s0.Signals) != 5 {
		t.Errorf("step 0 = %+v", s0)
	}
	// Find the IGN_ST statement: put_can with data 0001B.
	var ign *SignalStmt
	for _, st := range s0.Signals {
		if st.Name == "ign_st" {
			ign = st
		}
	}
	if ign == nil {
		t.Fatal("step 0 lacks ign_st")
	}
	if ign.Call.Method != "put_can" || ign.Call.Attrs["data"] != "0001B" {
		t.Errorf("ign_st call = %+v", ign.Call)
	}
	// Step 7: soak with only the Ho measurement.
	s7 := sc.Steps[7]
	if s7.Dt != 280 || len(s7.Signals) != 1 || s7.Signals[0].Call.Method != "get_u" {
		t.Errorf("step 7 = %+v", s7)
	}
}

func TestClosedBecomesINF(t *testing.T) {
	sc := generated(t)
	var closed *SignalStmt
	for _, st := range sc.Init {
		if st.Name == "ds_fl" {
			closed = st
		}
	}
	if closed == nil {
		t.Fatal("init lacks ds_fl")
	}
	if closed.Call.Method != "put_r" || closed.Call.Attrs["r"] != "INF" {
		t.Errorf("ds_fl init = %+v", closed.Call)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sc := generated(t)
	text, err := EncodeString(sc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeString(text)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, text)
	}
	if back.Name != sc.Name || back.Version != sc.Version {
		t.Errorf("meta changed: %+v", back)
	}
	if len(back.Steps) != len(sc.Steps) || len(back.Init) != len(sc.Init) || len(back.Decls) != len(sc.Decls) {
		t.Fatalf("shape changed: %d/%d/%d vs %d/%d/%d",
			len(back.Steps), len(back.Init), len(back.Decls),
			len(sc.Steps), len(sc.Init), len(sc.Decls))
	}
	for i := range sc.Steps {
		a, b := sc.Steps[i], back.Steps[i]
		if a.Nr != b.Nr || a.Dt != b.Dt || a.Remark != b.Remark || len(a.Signals) != len(b.Signals) {
			t.Errorf("step %d changed: %+v vs %+v", i, a, b)
			continue
		}
		for j := range a.Signals {
			x, y := a.Signals[j], b.Signals[j]
			if x.Name != y.Name || x.Call.Method != y.Call.Method {
				t.Errorf("step %d stmt %d changed: %+v vs %+v", i, j, x, y)
			}
			for k, v := range x.Call.Attrs {
				if y.Call.Attrs[k] != v {
					t.Errorf("step %d stmt %d attr %s: %q vs %q", i, j, k, v, y.Call.Attrs[k])
				}
			}
		}
	}
	// Round-tripped script still validates.
	if err := Validate(back, method.Builtin()); err != nil {
		t.Errorf("round-tripped script invalid: %v", err)
	}
}

func TestValidateGenerated(t *testing.T) {
	sc := generated(t)
	if err := Validate(sc, method.Builtin()); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	reg := method.Builtin()
	fresh := func() *Script { return generated(t) }

	sc := fresh()
	sc.Version = "9.9"
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}

	sc = fresh()
	sc.Name = ""
	if err := Validate(sc, reg); err == nil {
		t.Error("missing name accepted")
	}

	sc = fresh()
	sc.Steps[0].Signals[0].Call.Method = "zorch"
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("unknown method: %v", err)
	}

	sc = fresh()
	sc.Steps[0].Signals[0].Name = "ghost"
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("undeclared signal: %v", err)
	}

	sc = fresh()
	sc.Steps[0].Dt = 0
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "dt") {
		t.Errorf("bad dt: %v", err)
	}

	for _, dt := range []float64{math.NaN(), math.Inf(1)} {
		sc = fresh()
		sc.Steps[0].Dt = dt
		if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "non-finite dt") {
			t.Errorf("dt %v: %v", dt, err)
		}
	}

	for _, wait := range []string{"-5", "INF", "NaN", "-INF"} {
		sc = fresh()
		sc.Steps[0].Signals = append(sc.Steps[0].Signals, &SignalStmt{Name: "ds_fl",
			Call: MethodCall{Method: "wait", Attrs: map[string]string{"t": wait}}})
		if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "negative or not finite") {
			t.Errorf("wait t=%s: %v", wait, err)
		}
	}

	// Finite steps and waits whose sum overflows a stand's clock.
	sc = fresh()
	sc.Steps[0].Dt = 1e300
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "stand clock") {
		t.Errorf("dt 1e300: %v", err)
	}
	sc = fresh()
	sc.Steps[0].Signals = append(sc.Steps[0].Signals, &SignalStmt{Name: "ds_fl",
		Call: MethodCall{Method: "wait", Attrs: map[string]string{"t": "1e10"}}})
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "stand clock") {
		t.Errorf("wait 1e10: %v", err)
	}

	sc = fresh()
	sc.Decls = nil
	if err := Validate(sc, reg); err == nil {
		t.Error("script without declarations accepted")
	}

	sc = fresh()
	sc.Decls = append(sc.Decls, &SignalDecl{Name: "IGN_ST", Direction: "in", Class: "can", Message: "M", Length: 1})
	if err := Validate(sc, reg); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate decl: %v", err)
	}

	sc = fresh()
	for _, st := range sc.Steps[7].Signals {
		st.Call.Attrs["u_max"] = "1.1*)( bad"
	}
	if err := Validate(sc, reg); err == nil {
		t.Error("malformed limit expression accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"not xml at all",
		"<testscript><step nr='0' dt='1'><signal name='x'></signal></step></testscript>",                 // no method
		"<testscript><step nr='0' dt='1'><signal><get_u/></signal></step></testscript>",                  // no name
		"<testscript><step nr='0' dt='1'><signal name='x'><get_u/><get_u/></signal></step></testscript>", // two methods
	}
	for _, in := range bad {
		if _, err := DecodeString(in); err == nil {
			t.Errorf("DecodeString(%q) succeeded", in)
		}
	}
}

func TestUsedMethods(t *testing.T) {
	sc := generated(t)
	got := sc.UsedMethods()
	want := []string{"get_u", "put_can", "put_r"}
	if len(got) != len(want) {
		t.Fatalf("UsedMethods = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UsedMethods = %v, want %v", got, want)
		}
	}
}

func TestDuration(t *testing.T) {
	sc := generated(t)
	if d := sc.Duration(); d != 309 {
		t.Errorf("Duration = %v, want 309", d)
	}
}

func TestDeclLookup(t *testing.T) {
	sc := generated(t)
	d := sc.Decl("INT_ILL")
	if d == nil || d.Pin != "INT_ILL_F" || d.PinRet != "INT_ILL_R" {
		t.Errorf("Decl(INT_ILL) = %+v", d)
	}
	if sc.Decl("ghost") != nil {
		t.Error("Decl(ghost) non-nil")
	}
}

func TestGenerateAll(t *testing.T) {
	tc, sigs, tbl := paperParts(t)
	scripts, err := GenerateAll([]*testdef.TestCase{tc}, sigs, tbl)
	if err != nil || len(scripts) != 1 {
		t.Fatalf("GenerateAll = %v, %v", scripts, err)
	}
}

func TestGenerateRejectsInvalidTest(t *testing.T) {
	_, sigs, tbl := paperParts(t)
	bad := &testdef.TestCase{Name: "X", Signals: []string{"GHOST"},
		Steps: []testdef.Step{{Dt: 1}}}
	if _, err := Generate(bad, sigs, tbl); err == nil {
		t.Error("Generate with invalid test succeeded")
	}
}

func TestCANDeclsCarryPacking(t *testing.T) {
	sc := generated(t)
	d := sc.Decl("night")
	if d == nil || d.Message != "BCM_STAT" || d.StartBit != 4 || d.Length != 1 {
		t.Errorf("night decl = %+v", d)
	}
}
