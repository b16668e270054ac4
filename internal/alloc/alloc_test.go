package alloc

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/resource"
	"repro/internal/sheet"
	"repro/internal/topology"
	"repro/internal/unit"
)

func paperAllocator(t *testing.T, strat Strategy) *Allocator {
	t.Helper()
	wb, err := sheet.ReadWorkbookString(paper.StandSheets)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := resource.ParseSheet(wb.Sheet("Resources"), method.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	m, err := topology.ParseSheet(wb.Sheet("Connections"))
	if err != nil {
		t.Fatal(err)
	}
	return &Allocator{Catalog: cat, Matrix: m, Eval: evalIn(expr.MapEnv{"ubatt": 12}), Strategy: strat}
}

// evalIn is the uncached evaluator over env.
func evalIn(env expr.Env) func(string) (float64, error) {
	return func(v string) (float64, error) { return resource.EvalNumber(v, env) }
}

func desc(t *testing.T, name string) *method.Descriptor {
	t.Helper()
	d, ok := method.Builtin().Lookup(name)
	if !ok {
		t.Fatalf("method %q missing", name)
	}
	return d
}

func reqPutR(t *testing.T, signal, pin, r string) Request {
	return Request{Signal: signal, Method: desc(t, "put_r"),
		Attrs: map[string]string{"r": r}, Pins: []string{pin}}
}

func reqGetU(t *testing.T, signal string, pins ...string) Request {
	return Request{Signal: signal, Method: desc(t, "get_u"),
		Attrs: map[string]string{"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"},
		Pins:  pins}
}

func TestPaperStep0(t *testing.T) {
	// The paper's step 0 electrical demand: DS_FL=Closed (INF), DS_FR=
	// Closed (INF), INT_ILL=Lo (get_u between the lamp pins). Closed
	// doors are disconnects; only the DVM is allocated.
	al := paperAllocator(t, Backtracking)
	reqs := []Request{
		reqPutR(t, "DS_FL", "DS_FL", "INF"),
		reqPutR(t, "DS_FR", "DS_FR", "INF"),
		reqGetU(t, "INT_ILL", "INT_ILL_F", "INT_ILL_R"),
	}
	plan, err := al.Allocate(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 3 {
		t.Fatalf("assignments = %d", len(plan.Assignments))
	}
	fl, _ := plan.BySignal("DS_FL")
	if !fl.Disconnect() {
		t.Error("Closed door should be a disconnect")
	}
	ill, ok := plan.BySignal("INT_ILL")
	if !ok || ill.Resource == nil || ill.Resource.ID != "Ress1" {
		t.Fatalf("INT_ILL assignment = %+v", ill)
	}
	if len(ill.Entries) != 2 || ill.Entries[0].Elem.Name != "Sw1.1" || ill.Entries[1].Elem.Name != "Sw1.2" {
		t.Errorf("INT_ILL entries = %v", ill.Entries)
	}
}

// TestAssignmentsInRequestOrder pins the order contract the stand's
// shared step plans rely on: assignment i answers request i, whatever
// kind of request it is and whichever resource a preference picks.
func TestAssignmentsInRequestOrder(t *testing.T) {
	al := paperAllocator(t, Backtracking)
	reqs := []Request{
		reqGetU(t, "INT_ILL", "INT_ILL_F", "INT_ILL_R"),
		reqPutR(t, "DS_FL", "DS_FL", "INF"),
		{Signal: "pause", Method: desc(t, "wait"), Attrs: map[string]string{"t": "1"}},
		reqPutR(t, "DS_RR", "DS_RR", "5000"),
		reqPutR(t, "DS_FR", "DS_FR", "0"),
	}
	for _, prefer := range []map[string]string{nil, {"ds_fr": "Ress2"}, {"ds_rr": "Ress2"}} {
		plan, err := al.Allocate(reqs, prefer)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Assignments) != len(reqs) {
			t.Fatalf("prefer %v: %d assignments for %d requests", prefer, len(plan.Assignments), len(reqs))
		}
		for i := range reqs {
			if got := plan.Assignments[i].Request.Signal; got != reqs[i].Signal {
				t.Errorf("prefer %v: assignment %d is for %q, want %q", prefer, i, got, reqs[i].Signal)
			}
		}
	}
}

func TestOpenDoorTakesADecade(t *testing.T) {
	al := paperAllocator(t, Backtracking)
	plan, err := al.Allocate([]Request{reqPutR(t, "DS_FL", "DS_FL", "0")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.BySignal("DS_FL")
	if a.Resource == nil || a.Resource.Kind != resource.ResistorDecade {
		t.Fatalf("DS_FL = %+v", a)
	}
	if len(a.Entries) != 1 || a.Entries[0].Elem.Group[:2] != "Mx" {
		t.Errorf("entries = %v", a.Entries)
	}
}

func TestTwoDoorsTwoDecades(t *testing.T) {
	// Two doors at finite resistance simultaneously need the two decades.
	al := paperAllocator(t, Backtracking)
	plan, err := al.Allocate([]Request{
		reqPutR(t, "DS_FL", "DS_FL", "0"),
		reqPutR(t, "DS_FR", "DS_FR", "5000"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.BySignal("DS_FL")
	b, _ := plan.BySignal("DS_FR")
	if a.Resource.ID == b.Resource.ID {
		t.Errorf("both doors on one decade: %s", a.Resource.ID)
	}
}

func TestThreeFiniteDoorsFail(t *testing.T) {
	// Three doors at finite resistance exceed the stand's two decades —
	// the paper's "error message is generated" case.
	al := paperAllocator(t, Backtracking)
	_, err := al.Allocate([]Request{
		reqPutR(t, "DS_FL", "DS_FL", "0"),
		reqPutR(t, "DS_FR", "DS_FR", "0"),
		reqPutR(t, "DS_RL", "DS_RL", "0"),
	}, nil)
	if err == nil {
		t.Fatal("three concurrent finite doors allocated on two decades")
	}
	nre, ok := err.(*NoResourceError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if nre.Signal == "" || len(nre.Reasons) == 0 {
		t.Errorf("undiagnostic error: %v", nre)
	}
}

func TestRangeLimitsSelectDecade(t *testing.T) {
	// 500 kΩ exceeds Ress3 (200 kΩ) but fits Ress2 (1 MΩ).
	al := paperAllocator(t, Backtracking)
	plan, err := al.Allocate([]Request{reqPutR(t, "DS_FL", "DS_FL", "500000")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.BySignal("DS_FL")
	if a.Resource.ID != "Ress2" {
		t.Errorf("500 kΩ landed on %s, want Ress2", a.Resource.ID)
	}
}

func TestGreedyVsBacktracking(t *testing.T) {
	// Force a situation where greedy first-fit fails: DS_FL at 500 kΩ
	// must use Ress2 (only decade with that range), but if DS_FR at 0 Ω
	// is allocated FIRST, greedy gives DS_FR the first-fitting Ress2 and
	// then finds nothing for DS_FL. Backtracking recovers.
	reqs := func(t *testing.T) []Request {
		return []Request{
			reqPutR(t, "DS_FR", "DS_FR", "0"),      // any decade fits
			reqPutR(t, "DS_FL", "DS_FL", "500000"), // only Ress2 fits
		}
	}
	greedy := paperAllocator(t, Greedy)
	if _, err := greedy.Allocate(reqs(t), nil); err == nil {
		t.Error("greedy unexpectedly solved the trap case (check ordering)")
	}
	back := paperAllocator(t, Backtracking)
	plan, err := back.Allocate(reqs(t), nil)
	if err != nil {
		t.Fatalf("backtracking failed: %v", err)
	}
	fr, _ := plan.BySignal("DS_FR")
	fl, _ := plan.BySignal("DS_FL")
	if fr.Resource.ID != "Ress3" || fl.Resource.ID != "Ress2" {
		t.Errorf("backtracking plan: FR=%s FL=%s", fr.Resource.ID, fl.Resource.ID)
	}
}

func TestPreferenceStability(t *testing.T) {
	al := paperAllocator(t, Backtracking)
	req := []Request{reqPutR(t, "DS_FL", "DS_FL", "0")}
	prefer := map[string]string{"ds_fl": "Ress3"}
	plan, err := al.Allocate(req, prefer)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.BySignal("DS_FL")
	if a.Resource.ID != "Ress3" {
		t.Errorf("preference ignored: %s", a.Resource.ID)
	}
}

func TestVoltageOutOfDVMRange(t *testing.T) {
	al := paperAllocator(t, Backtracking)
	req := Request{Signal: "INT_ILL", Method: desc(t, "get_u"),
		Attrs: map[string]string{"u_min": "0", "u_max": "100"},
		Pins:  []string{"INT_ILL_F", "INT_ILL_R"}}
	_, err := al.Allocate([]Request{req}, nil)
	if err == nil {
		t.Fatal("100 V limit allocated on ±60 V DVM")
	}
	if !strings.Contains(err.Error(), "range") {
		t.Errorf("error lacks range diagnosis: %v", err)
	}
}

func TestUnroutablePin(t *testing.T) {
	// The DVM cannot reach door pins.
	al := paperAllocator(t, Backtracking)
	req := reqGetU(t, "DS_FL_MEAS", "DS_FL", "DS_FR")
	_, err := al.Allocate([]Request{req}, nil)
	if err == nil {
		t.Fatal("unroutable measurement allocated")
	}
	if !strings.Contains(err.Error(), "connected") && !strings.Contains(err.Error(), "terminal") {
		t.Errorf("error lacks routing diagnosis: %v", err)
	}
}

func TestTerminalOrientation(t *testing.T) {
	// A differential measurement with swapped pins must be rejected: the
	// matrix wires Sw1.1 (terminal 1) to INT_ILL_F, so INT_ILL_R cannot
	// be the forward pin.
	al := paperAllocator(t, Backtracking)
	req := reqGetU(t, "INT_ILL", "INT_ILL_R", "INT_ILL_F")
	_, err := al.Allocate([]Request{req}, nil)
	if err == nil {
		t.Fatal("swapped differential pins allocated")
	}
}

func TestControlAndCAN(t *testing.T) {
	// wait needs no resource; put_can needs a CAN adapter, which the
	// paper stand lacks.
	al := paperAllocator(t, Backtracking)
	waitReq := Request{Signal: "", Method: desc(t, "wait"), Attrs: map[string]string{"t": "1"}}
	plan, err := al.Allocate([]Request{waitReq}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assignments[0].Resource != nil {
		t.Error("wait got a resource")
	}
	canReq := Request{Signal: "IGN_ST", Method: desc(t, "put_can"),
		Attrs: map[string]string{"data": "0001B"}}
	if _, err := al.Allocate([]Request{canReq}, nil); err == nil {
		t.Error("put_can allocated without a CAN adapter in the catalog")
	}
}

func TestCANAdapterShared(t *testing.T) {
	// One CAN adapter serves many bus signals simultaneously.
	cat := resource.NewCatalog()
	if err := cat.Add(&resource.Resource{ID: "CAN1", Kind: resource.CANAdapter,
		Caps: []resource.Capability{
			{Method: "put_can", Range: resource.Unbounded(unit.Bit)},
			{Method: "get_can", Range: resource.Unbounded(unit.Bit)},
		}}); err != nil {
		t.Fatal(err)
	}
	al := &Allocator{Catalog: cat, Matrix: topology.NewMatrix(), Eval: evalIn(expr.MapEnv{}), Strategy: Backtracking}
	reqs := []Request{
		{Signal: "IGN_ST", Method: desc(t, "put_can"), Attrs: map[string]string{"data": "0001B"}},
		{Signal: "NIGHT", Method: desc(t, "put_can"), Attrs: map[string]string{"data": "1B"}},
	}
	plan, err := al.Allocate(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.BySignal("IGN_ST")
	b, _ := plan.BySignal("NIGHT")
	if a.Resource.ID != "CAN1" || b.Resource.ID != "CAN1" {
		t.Errorf("CAN assignments: %v %v", a.Resource, b.Resource)
	}
}

func TestMuxExclusivity(t *testing.T) {
	// Build a degenerate matrix where both decades reach DS_FL only
	// through the same mux group — concurrent use must fail even though
	// two resources exist… but on different pins it's fine.
	cat := resource.NewCatalog()
	for _, id := range []string{"D1", "D2"} {
		if err := cat.Add(&resource.Resource{ID: id,
			Caps: []resource.Capability{{Method: "put_r", Range: unit.NewRange(0, 1e6, unit.Ohm)}}}); err != nil {
			t.Fatal(err)
		}
	}
	m := topology.NewMatrix()
	// Pin P reachable from D1 (Mx1.1) and D2 (Mx1.2): same group.
	if err := m.Add("D1", "P", "Mx1.1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add("D2", "P", "Mx1.2"); err != nil {
		t.Fatal(err)
	}
	al := &Allocator{Catalog: cat, Matrix: m, Eval: evalIn(expr.MapEnv{}), Strategy: Backtracking}
	// One signal on P works.
	if _, err := al.Allocate([]Request{reqPutR(t, "S1", "P", "100")}, nil); err != nil {
		t.Fatal(err)
	}
	// Two signals on the same pin always conflict on the mux.
	_, err := al.Allocate([]Request{
		reqPutR(t, "S1", "P", "100"),
		reqPutR(t, "S2", "P", "100"),
	}, nil)
	if err == nil {
		t.Error("two signals through one mux group allocated")
	}
}

func TestPlanLookups(t *testing.T) {
	al := paperAllocator(t, Backtracking)
	plan, err := al.Allocate([]Request{reqGetU(t, "INT_ILL", "INT_ILL_F", "INT_ILL_R")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plan.ByResource("Ress1"); !ok {
		t.Error("ByResource(Ress1) failed")
	}
	if _, ok := plan.ByResource("Ress2"); ok {
		t.Error("ByResource(Ress2) found a ghost")
	}
	if _, ok := plan.BySignal("nope"); ok {
		t.Error("BySignal(nope) found a ghost")
	}
}

func TestMissingMethod(t *testing.T) {
	al := paperAllocator(t, Backtracking)
	if _, err := al.Allocate([]Request{{Signal: "X"}}, nil); err == nil {
		t.Error("request without method accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if Greedy.String() != "greedy" || Backtracking.String() != "backtracking" {
		t.Error("Strategy.String() wrong")
	}
}

func TestDisconnectReleasesDecade(t *testing.T) {
	// Step sequence semantics: put_r INF never claims a decade even when
	// all decades are busy.
	al := paperAllocator(t, Backtracking)
	reqs := []Request{
		reqPutR(t, "DS_FL", "DS_FL", "0"),
		reqPutR(t, "DS_FR", "DS_FR", "0"),
		reqPutR(t, "DS_RL", "DS_RL", "INF"),
		reqPutR(t, "DS_RR", "DS_RR", "INF"),
	}
	plan, err := al.Allocate(reqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rl, _ := plan.BySignal("DS_RL")
	if !rl.Disconnect() {
		t.Error("INF stimulus claimed a resource")
	}
}

// decadeStand builds a catalog of put_r decades (id → max ohms) in the
// given order, wired by the (resource, pin, element) routes.
func decadeStand(t *testing.T, decades []string, maxOhms []float64, routes [][3]string) (*resource.Catalog, *topology.Matrix) {
	t.Helper()
	cat := resource.NewCatalog()
	for i, id := range decades {
		if err := cat.Add(&resource.Resource{ID: id,
			Caps: []resource.Capability{{Method: "put_r", Range: unit.NewRange(0, maxOhms[i], unit.Ohm)}}}); err != nil {
			t.Fatal(err)
		}
	}
	m := topology.NewMatrix()
	for _, r := range routes {
		if err := m.Add(r[0], r[1], r[2]); err != nil {
			t.Fatal(err)
		}
	}
	return cat, m
}

// TestNoResourceErrorText pins the exact diagnostic of failing
// allocations: rejection reasons are rendered lazily, only once no
// candidate qualifies, and must read as they always have.
func TestNoResourceErrorText(t *testing.T) {
	cases := []struct {
		name   string
		al     func(t *testing.T) *Allocator
		reqs   func(t *testing.T) []Request
		prefer map[string]string
		want   string
	}{{
		// 5 MΩ fits no decade; the preferred Ress3's reason leads.
		name:   "preferred resource rejected",
		al:     func(t *testing.T) *Allocator { return paperAllocator(t, Backtracking) },
		reqs:   func(t *testing.T) []Request { return []Request{reqPutR(t, "DS_FL", "DS_FL", "5000000")} },
		prefer: map[string]string{"ds_fl": "Ress3"},
		want: `alloc: no resource for put_r on signal "DS_FL": ` +
			`Ress3: attribute r=5e+06 outside supported range [0, 200000] Ohm; ` +
			`Ress1: does not support put_r; ` +
			`Ress2: attribute r=5e+06 outside supported range [0, 1e+06] Ohm`,
	}, {
		name: "routing and terminal reasons",
		al:   func(t *testing.T) *Allocator { return paperAllocator(t, Backtracking) },
		reqs: func(t *testing.T) []Request {
			return []Request{reqGetU(t, "INT_ILL", "INT_ILL_R", "INT_ILL_F")}
		},
		want: `alloc: no resource for get_u on signal "INT_ILL": ` +
			`Ress1: pin INT_ILL_R reaches terminal 2, signal needs terminal 1; ` +
			`Ress2: does not support get_u; Ress3: does not support get_u`,
	}, {
		// S2's first candidate D1 conflicts with S1; its second, D2,
		// is feasible but leaves S3 nothing: the downstream failure is
		// returned and the skipped conflict leaves no trace.
		name: "backtracking failure after a conflicting candidate",
		al:   threeSignalAllocator,
		reqs: threeSignalReqs,
		want: `alloc: no resource for put_r on signal "S3": ` +
			`D2: conflicts with an earlier assignment in this step`,
	}, {
		// With D2 preferred for S2 the order flips: the downstream
		// failure comes first and the later conflict extends it.
		name:   "conflict after a backtracking failure",
		al:     threeSignalAllocator,
		reqs:   threeSignalReqs,
		prefer: map[string]string{"s2": "D2"},
		want: `alloc: no resource for put_r on signal "S3": ` +
			`D2: conflicts with an earlier assignment in this step; ` +
			`D1: conflicts with an earlier assignment in this step`,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.al(t).Allocate(c.reqs(t), c.prefer)
			if err == nil {
				t.Fatal("allocation succeeded")
			}
			if got := err.Error(); got != c.want {
				t.Errorf("error text\n got: %s\nwant: %s", got, c.want)
			}
		})
	}
}

// threeSignalAllocator wires D1 to pins P and Q, D2 to Q and R, so S1
// on P, S2 on Q and S3 on R need three decades between them.
func threeSignalAllocator(t *testing.T) *Allocator {
	cat, m := decadeStand(t, []string{"D1", "D2"}, []float64{1e6, 1e6}, [][3]string{
		{"D1", "P", "Sw1.1"}, {"D1", "Q", "Sw2.1"}, {"D2", "Q", "Sw3.1"}, {"D2", "R", "Sw4.1"},
	})
	return &Allocator{Catalog: cat, Matrix: m, Eval: evalIn(expr.MapEnv{}), Strategy: Backtracking}
}

func threeSignalReqs(t *testing.T) []Request {
	return []Request{reqPutR(t, "S1", "P", "100"), reqPutR(t, "S2", "Q", "100"), reqPutR(t, "S3", "R", "100")}
}

// TestAllocateRendersNoReasonOnSuccess pins the lazy rejection rule: a
// satisfiable request allocates exactly as much against a catalog whose
// other resources are all rejected (unsupported method, out of range,
// unroutable) as against a catalog holding only the winner.
func TestAllocateRendersNoReasonOnSuccess(t *testing.T) {
	eval := func(v string) (float64, error) { return unit.ParseNumber(v) }
	allocs := func(decades []string, maxOhms []float64, routes [][3]string) float64 {
		cat, m := decadeStand(t, decades, maxOhms, routes)
		if len(decades) > 1 {
			if err := cat.Add(&resource.Resource{ID: "DVM", Caps: []resource.Capability{
				{Method: "get_u", Range: unit.NewRange(-60, 60, unit.Volt)}}}); err != nil {
				t.Fatal(err)
			}
		}
		al := &Allocator{Catalog: cat, Matrix: m, Eval: eval, Strategy: Backtracking}
		reqs := []Request{reqPutR(t, "S", "P", "5000")}
		prefer := map[string]string{"s": "Small"}
		if _, err := al.Allocate(reqs, prefer); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() { _, _ = al.Allocate(reqs, prefer) })
	}
	lone := allocs([]string{"Win"}, []float64{1e6}, [][3]string{{"Win", "P", "Sw1.1"}})
	crowded := allocs([]string{"Small", "Far", "Win"}, []float64{100, 1e6, 1e6},
		[][3]string{{"Small", "P", "Sw5.1"}, {"Far", "Q", "Sw2.1"}, {"Win", "P", "Sw1.1"}})
	if crowded != lone {
		t.Errorf("Allocate with rejected resources: %v allocs, want %v (as with the winner alone)", crowded, lone)
	}
}
