package stand

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"weak"

	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/script"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/workbooks"
)

// refHeld is one held stimulus as refRoute sees it.
type refHeld struct {
	stmt *script.SignalStmt
	res  string
}

// refRoute is the map-based merge that routed a step before statements
// were resolved in script.Compile, kept as the reference for route: the
// request order (lower signal names), each request's statement and
// whether it is a stimulus, and the plan key, or the error.
func refRoute(sc *script.Script, reg *method.Registry, held map[string]refHeld,
	stimuli, measures []*script.SignalStmt) (order []string, stmts []*script.SignalStmt, stimulus []bool, key []byte, err error) {
	merged := map[string]*script.SignalStmt{}
	stimulusKeys := map[string]bool{}
	for key, h := range held {
		merged[key] = h.stmt
		order = append(order, key)
	}
	sort.Strings(order)
	for _, st := range stimuli {
		key := strings.ToLower(st.Name)
		if _, seen := merged[key]; !seen {
			order = append(order, key)
		}
		merged[key] = st
	}
	for _, key := range order {
		stimulusKeys[key] = true
	}
	for _, st := range measures {
		key := strings.ToLower(st.Name)
		if stimulusKeys[key] {
			return nil, nil, nil, nil, fmt.Errorf("signal %q is both stimulated and measured in one step", st.Name)
		}
		merged[key] = st
		order = append(order, key)
	}
	for _, k := range order {
		st := merged[k]
		decl := sc.Decl(st.Name)
		if decl == nil {
			return nil, nil, nil, nil, fmt.Errorf("undeclared signal %q", st.Name)
		}
		if _, ok := reg.Lookup(st.Call.Method); !ok {
			return nil, nil, nil, nil, fmt.Errorf("unknown method %q", st.Call.Method)
		}
		h, ok := held[k]
		key = refReqKey(key, st, decl, h.res, ok && h.res != "")
		stmts = append(stmts, st)
		stimulus = append(stimulus, stimulusKeys[k])
	}
	return order, stmts, stimulus, key, nil
}

// refReqKey is the request encoder refRoute was written against.
func refReqKey(b []byte, st *script.SignalStmt, decl *script.SignalDecl, prefer string, preferred bool) []byte {
	field := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	b = field(field(b, st.Name), st.Call.Method)
	names := slices.Sorted(func(yield func(string) bool) {
		for k := range st.Call.Attrs {
			if !yield(k) {
				return
			}
		}
	})
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, k := range names {
		b = field(field(b, k), st.Call.Attrs[k])
	}
	b = field(field(field(b, decl.Class), decl.Pin), decl.PinRet)
	if !preferred {
		return append(b, 0)
	}
	return field(append(b, 1), prefer)
}

// routeScripts are the hand-built steps no built-in script reaches: a
// signal held from an earlier step and then measured, a signal
// stimulated and measured in one step, and one signal measured twice in
// a step.
func routeScripts() *script.Script {
	put := func(name, r string) *script.SignalStmt {
		return &script.SignalStmt{Name: name, Call: script.MethodCall{Method: "put_r", Attrs: map[string]string{"r": r}}}
	}
	get := func(name, hi string) *script.SignalStmt {
		return &script.SignalStmt{Name: name, Call: script.MethodCall{Method: "get_u",
			Attrs: map[string]string{"u_min": "0", "u_max": hi}}}
	}
	return &script.Script{Name: "route_cases", Version: script.Version,
		Decls: []*script.SignalDecl{
			{Name: "DS_FL", Direction: "in", Class: "digital", Pin: "DS_FL"},
			{Name: "INT_ILL", Direction: "out", Class: "analog", Pin: "INT_ILL"},
		},
		Steps: []*script.Step{
			{Nr: 0, Dt: 1, Signals: []*script.SignalStmt{put("ds_fl", "0"), get("int_ill", "1")}},
			{Nr: 1, Dt: 1, Signals: []*script.SignalStmt{get("DS_FL", "1")}},
			{Nr: 2, Dt: 1, Signals: []*script.SignalStmt{put("Int_Ill", "INF"), get("int_ill", "1")}},
			{Nr: 3, Dt: 1, Signals: []*script.SignalStmt{get("int_ill", "1"), get("INT_ILL", "20")}},
		}}
}

// TestRouteMatchesReference routes every built-in script, and the
// hand-built cases, step by step on every stand profile, and checks
// each step against refRoute: the same request order, statements,
// stimulus flags and plan-key bytes, or the same error text.
func TestRouteMatchesReference(t *testing.T) {
	reg := method.Builtin()
	var scripts []*script.Script
	for _, src := range []string{paper.Workbook, workbooks.CentralLocking, workbooks.ExteriorLight, workbooks.WindowLifter} {
		wb, err := sheet.ReadWorkbookString(src)
		if err != nil {
			t.Fatal(err)
		}
		sigs, err := sigdef.ParseSheet(wb.Sheet("SignalDefinition"))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := status.ParseSheet(wb.Sheet("StatusDefinition"), reg)
		if err != nil {
			t.Fatal(err)
		}
		tcs, err := testdef.ParseAll(wb)
		if err != nil {
			t.Fatal(err)
		}
		scs, err := script.GenerateAll(tcs, sigs, tbl)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, scs...)
	}
	scripts = append(scripts, routeScripts())

	// rejected counts the hand-built steps route rejected, by step.
	rejected := map[int]int{}
	twice := 0
	for _, sc := range scripts {
		c, err := script.Compile(sc, reg)
		if err != nil {
			t.Fatal(err)
		}
		cfgs, err := Profiles(reg, HarnessFromScript(sc))
		if err != nil {
			t.Fatal(err)
		}
		paperCfg, err := PaperConfig(reg)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range append(cfgs, paperCfg) {
			s := MustNew(cfg, reg)
			s.resetRun()
			check := func(label string, nr int, stimuli, measures []script.Stmt) {
				held := map[string]refHeld{}
				for _, h := range s.held {
					held[h.st.Key] = refHeld{stmt: h.st.SignalStmt, res: h.res}
				}
				order, stmts, stimulus, key, refErr := refRoute(sc, reg, held, stmtsOf(stimuli), stmtsOf(measures))
				sp, err := s.route(stimuli, measures)
				where := fmt.Sprintf("%s on %s, %s", sc.Name, cfg.Name, label)
				if refErr != nil || err != nil {
					if fmt.Sprint(err) != fmt.Sprint(refErr) {
						t.Errorf("%s: error %v, want %v", where, err, refErr)
					}
					if sc.Name == "route_cases" {
						rejected[nr]++
					}
					return
				}
				var gotOrder []string
				var gotStmts []*script.SignalStmt
				var gotStimulus []bool
				for _, a := range s.asg {
					gotOrder = append(gotOrder, a.st.Key)
					gotStmts = append(gotStmts, a.st.SignalStmt)
					gotStimulus = append(gotStimulus, a.stimulus)
				}
				if !slices.Equal(gotOrder, order) || !slices.Equal(gotStmts, stmts) || !slices.Equal(gotStimulus, stimulus) {
					t.Errorf("%s: requests %v %v %v, want %v %v %v", where, gotOrder, gotStmts, gotStimulus, order, stmts, stimulus)
				}
				if !bytes.Equal(s.stepKey, key) {
					t.Errorf("%s: plan key %q, want %q", where, s.stepKey, key)
				}
				if len(order) > 1 && order[len(order)-1] == order[len(order)-2] {
					twice++
				}
				s.replayStep(sp, nil) // a programming error leaves the held state as a run does
			}
			if len(c.Init) > 0 {
				check("init", -1, c.Init, nil)
			}
			for i := range c.Steps {
				nr := c.Steps[i].Step.Nr
				check(fmt.Sprintf("step %d", nr), nr, c.Steps[i].Stimuli, c.Steps[i].Measures)
			}
		}
	}
	// Every hand-built case was reached: step 1 measures a held signal
	// (held only where step 0's allocation succeeded), step 2 stimulates
	// and measures one, step 3 measures one twice.
	if rejected[1] == 0 || rejected[2] == 0 || len(rejected) != 2 || twice == 0 {
		t.Errorf("hand-built steps rejected %v, %d steps measured a signal twice", rejected, twice)
	}
}

func stmtsOf(stmts []script.Stmt) []*script.SignalStmt {
	var out []*script.SignalStmt
	for _, st := range stmts {
		out = append(out, st.SignalStmt)
	}
	return out
}

// TestRunDoesNotRetainScript: a stand that has run a script, and then
// another, keeps neither the first script nor its steps alive.
func TestRunDoesNotRetainScript(t *testing.T) {
	s := paperStand(t)
	sc, step := func() (weak.Pointer[script.Script], weak.Pointer[script.Step]) {
		sc := paperScript(t)
		if rep := s.RunContext(context.Background(), sc); !rep.Passed() {
			t.Fatalf("paper script failed: %s", rep.FatalErr)
		}
		return weak.Make(sc), weak.Make(sc.Steps[0])
	}()
	s.AlignForReuse()
	if rep := s.RunContext(context.Background(), dropStep(t, 2)); !rep.Passed() {
		t.Fatalf("second script failed: %s", rep.FatalErr)
	}
	runtime.GC()
	if sc.Value() != nil || step.Value() != nil {
		t.Errorf("after a second run the stand still holds the first script (%v) or its first step (%v)",
			sc.Value() != nil, step.Value() != nil)
	}
	runtime.KeepAlive(s)
}
