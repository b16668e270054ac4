package alloc_test

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/resource"
	"repro/internal/stand"
	"repro/internal/topology"
	"repro/internal/unit"
)

// FuzzAllocate draws a stand — one of the four registered profiles, or
// a small random catalog and matrix — and a request set, and checks the
// allocator against an exhaustive search written here from the
// package's contract:
//
//   - Backtracking finds a plan exactly when one exists, with and
//     without preferences (a preference never breaks feasibility);
//   - every plan passes CheckPlanInvariants and gives each request one
//     of the resources the search accepts for it, in request order;
//   - Greedy succeeding implies Backtracking succeeding;
//   - a failure is a *NoResourceError whose text is the same on every
//     call.
//
// Input layout (see fuzzStand and fuzzRequests): byte 0 selects the
// stand (0–3 the registered profiles, otherwise a random catalog whose
// description follows), then 6 bytes per request.
func FuzzAllocate(f *testing.F) {
	// The decade trap of DESIGN §5 ablation 1 (DS_FR at 0 Ω, then DS_FL
	// at 500 kΩ, which only Ress2 serves): greedy fails, backtracking
	// succeeds.
	f.Add(seed(0, req(mPutR, 1, 0, 0, 0, 0), req(mPutR, 0, 0, 2, 0, 0)))
	// The same requests preferring the wrong decade.
	f.Add(seed(0, req(mPutR, 1, 0, 0, 0, 2), req(mPutR, 0, 0, 2, 0, 3)))
	// The paper's step 0: two doors open, the lamp measured.
	f.Add(seed(0, req(mPutR, 0, 0, 4, 0, 0), req(mPutR, 1, 0, 4, 0, 0), req(mGetU, 4, 1, 5, 6, 0)))
	// Three finite doors on two decades: infeasible.
	f.Add(seed(0, req(mPutR, 0, 0, 1, 0, 0), req(mPutR, 1, 0, 1, 0, 0), req(mPutR, 2, 0, 1, 0, 0)))
	// The other profiles: a crossbar, a desk bench, a multiplexed rack.
	f.Add(seed(1, req(mPutR, 0, 0, 1, 0, 0), req(mGetU, 0, 1, 5, 6, 0), req(mPutCAN, 0, 0, 0, 0, 0)))
	f.Add(seed(2, req(mPutR, 0, 0, 1, 0, 0), req(mPutR, 1, 0, 1, 0, 0), req(mGetU, 0, 0, 0, 8, 0)))
	f.Add(seed(3, req(mPutR, 0, 0, 1, 0, 0), req(mPutU, 0, 0, 8, 0, 0), req(mGetR, 1, 1, 0, 4, 0)))
	// A random-catalog trap: X1 reaches P1 by relay and P2 by Mx1.1, X2
	// reaches P2 by Mx1.2 only. Greedy gives P2 to X1 and strands P1.
	f.Add(append([]byte{4, 1, 0, 2, 1, 0, 3, 0, 0, 0, 0, 1, 0, 3, 0, 1, 0},
		append(req(mPutR, 1, 0, 1, 0, 0), req(mPutR, 0, 0, 1, 0, 0)...)...))

	reg := method.Builtin()
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &draw{b: data}
		cfg, fwd, ret := fuzzStand(t, reg, d)
		reqs, prefer := fuzzRequests(t, reg, d, cfg.Catalog, fwd, ret)
		if len(reqs) == 0 {
			return
		}
		env := expr.MapEnv{"ubatt": cfg.UbattVolts}
		eval := func(v string) (float64, error) { return resource.EvalNumber(v, env) }
		cands := candidates(cfg.Catalog, cfg.Matrix, reqs, eval)
		feasible := exists(cands)

		back := &alloc.Allocator{Catalog: cfg.Catalog, Matrix: cfg.Matrix, Eval: eval, Strategy: alloc.Backtracking}
		greedy := &alloc.Allocator{Catalog: cfg.Catalog, Matrix: cfg.Matrix, Eval: eval, Strategy: alloc.Greedy}
		for _, pref := range []map[string]string{nil, prefer} {
			plan, err := back.Allocate(reqs, pref)
			if (err == nil) != feasible {
				t.Fatalf("backtracking (prefer %v): err = %v, exhaustive search feasible = %v\nrequests: %s",
					pref, err, feasible, describe(reqs))
			}
			if err != nil {
				var nre *alloc.NoResourceError
				if !errors.As(err, &nre) {
					t.Fatalf("failure is %T, want *alloc.NoResourceError: %v", err, err)
				}
				if _, again := back.Allocate(reqs, pref); again == nil || again.Error() != err.Error() {
					t.Fatalf("repeat failure text %q, want %q", again, err)
				}
			} else {
				alloc.CheckPlanInvariants(t, 0, plan)
				checkAgainstCandidates(t, plan, reqs, cands)
			}
			if _, gerr := greedy.Allocate(reqs, pref); gerr == nil && err != nil {
				t.Fatalf("greedy solved what backtracking could not (prefer %v): %s", pref, describe(reqs))
			}
		}
	})
}

// draw reads small choices from fuzz bytes; exhausted input reads 0.
type draw struct {
	b []byte
	i int
}

func (d *draw) n(k int) int {
	if d.i >= len(d.b) {
		return 0
	}
	v := int(d.b[d.i]) % k
	d.i++
	return v
}

func (d *draw) done() bool { return d.i >= len(d.b) }

// Request methods, by index; the seeds name them.
const (
	mPutR = iota
	mGetU
	mGetR
	mPutU
	mPutI
	mPutPWM
	mGetT
	mGetF
	mGetI
	mPutCAN
	mGetCAN
	mWait
	nMethods
)

var methodNames = [nMethods]string{"put_r", "get_u", "get_r", "put_u", "put_i", "put_pwm",
	"get_t", "get_f", "get_i", "put_can", "get_can", "wait"}

// values are the numeric attribute values requests draw from: in and
// out of every profile's ranges, symbolic limits and the open circuit.
var values = []string{"0", "5000", "500000", "5000000", "INF", "(0.7*ubatt)", "(1.1*ubatt)",
	"-5", "12", "0.5", "100"}

// req encodes one request: method, forward pin, return pin (0 = none,
// else index+1), the values of the first two numeric attributes, and
// the preferred resource (0 = none, else catalog index+1).
func req(m, pin, ret, v1, v2, prefer byte) []byte { return []byte{m, pin, ret, v1, v2, prefer} }

func seed(standSel byte, reqs ...[]byte) []byte {
	b := []byte{standSel}
	for _, r := range reqs {
		b = append(b, r...)
	}
	return b
}

// fuzzStand builds the drawn stand and returns it with its harness
// pins. A random catalog holds 1–4 resources of drawn kinds and
// ranges, each electrical one wired to each pin by nothing, a relay on
// terminal 1 or 2, or a position of one of two multiplexers.
func fuzzStand(t *testing.T, reg *method.Registry, d *draw) (stand.Config, []string, []string) {
	sel := d.n(256)
	if sel < 4 {
		h := stand.Harness{Forward: []string{"P1", "P2", "P3"}, Return: []string{"R1"}}
		var cfg stand.Config
		var err error
		switch sel {
		case 0:
			cfg, err = stand.PaperConfig(reg)
			h = stand.Harness{Forward: []string{"DS_FL", "DS_FR", "DS_RL", "DS_RR", "INT_ILL_F"},
				Return: []string{"INT_ILL_R"}}
		case 1:
			cfg, err = stand.FullLab(reg, h)
		case 2:
			cfg, err = stand.MiniBench(reg, h)
		case 3:
			cfg, err = stand.HILRack(reg, h)
		}
		if err != nil {
			t.Fatal(err)
		}
		return cfg, h.Forward, h.Return
	}

	fwd, ret := []string{"P1", "P2"}, []string{"R1"}
	kinds := []struct {
		methods []string
		unit    unit.Unit
		kind    resource.Kind
	}{
		{[]string{"put_r"}, unit.Ohm, ""},
		{[]string{"get_u", "get_r"}, unit.Volt, ""},
		{[]string{"put_u"}, unit.Volt, ""},
		{[]string{"get_t", "get_f"}, unit.Second, resource.Counter},
		{[]string{"put_can", "get_can"}, unit.Bit, resource.CANAdapter},
	}
	maxima := []float64{1000, 2e5, 1e6, 16, math.Inf(1)}
	cat := resource.NewCatalog()
	m := topology.NewMatrix()
	sw := 0
	for i, n := 0, 1+d.n(4); i < n; i++ {
		k := kinds[d.n(len(kinds))]
		max := maxima[d.n(len(maxima))]
		r := &resource.Resource{ID: "X" + strconv.Itoa(i+1), Kind: k.kind}
		for _, name := range k.methods {
			r.Caps = append(r.Caps, resource.Capability{Method: name, Range: unit.NewRange(0, max, k.unit)})
		}
		if err := cat.Add(r); err != nil {
			t.Fatal(err)
		}
		if !r.Electrical() {
			continue
		}
		for _, pin := range append(fwd[:len(fwd):len(fwd)], ret...) {
			var elem string
			switch d.n(4) {
			case 1, 2:
				sw++
				elem = "Sw" + strconv.Itoa(sw) + "." + strconv.Itoa(1+d.n(2))
			case 3:
				elem = "Mx" + strconv.Itoa(1+d.n(2)) + "." + strconv.Itoa(1+d.n(3))
			default:
				continue
			}
			_ = m.Add(r.ID, pin, elem) // a reused mux position stays unwired
		}
	}
	return stand.Config{Name: "random", UbattVolts: 12, Catalog: cat, Matrix: m}, fwd, ret
}

// fuzzRequests draws up to five requests on distinct signals, and a
// preference map over the catalog (and one unknown id).
func fuzzRequests(t *testing.T, reg *method.Registry, d *draw, cat *resource.Catalog, fwd, ret []string) ([]alloc.Request, map[string]string) {
	var reqs []alloc.Request
	prefer := map[string]string{}
	resources := cat.Resources()
	for len(reqs) < 5 && !d.done() {
		md, ok := reg.Lookup(methodNames[d.n(nMethods)])
		if !ok {
			t.Fatal("method table out of date")
		}
		signal := "S" + strconv.Itoa(len(reqs))
		pins := []string{fwd[d.n(len(fwd))]}
		if r := d.n(len(ret) + 1); r > 0 {
			pins = append(pins, ret[r-1])
		}
		if md.Class == method.CAN || md.Kind == method.Control {
			pins = nil
		}
		attrs := map[string]string{}
		drawn := [2]string{values[d.n(len(values))], values[d.n(len(values))]}
		numeric := 0
		for _, a := range md.Attrs {
			switch {
			case a.Kind == method.Bits:
				attrs[a.Name] = "0001B"
			case a.Kind == method.Numeric && numeric < 2:
				attrs[a.Name] = drawn[numeric]
				numeric++
			}
		}
		switch p := d.n(len(resources) + 2); {
		case p == len(resources)+1:
			prefer[strings.ToLower(signal)] = "NoSuchResource"
		case p > 0:
			prefer[strings.ToLower(signal)] = resources[p-1].ID
		}
		reqs = append(reqs, alloc.Request{Signal: signal, Method: md, Attrs: attrs, Pins: pins})
	}
	return reqs, prefer
}

// choice is one way to serve a request: a resource and its matrix
// entries, or nothing (control statements and disconnects).
type choice struct {
	res     *resource.Resource
	entries []topology.Entry
}

// candidates lists, per request, every choice that serves it on its
// own: the method is supported, the attributes fit the range, and an
// electrical resource reaches every pin — a two-terminal instrument the
// forward pin on terminal 1 and the return pin on terminal 2 — through
// entries that do not exclude each other.
func candidates(cat *resource.Catalog, m *topology.Matrix, reqs []alloc.Request, eval func(string) (float64, error)) [][]choice {
	out := make([][]choice, len(reqs))
	for i, rq := range reqs {
		if rq.Method.Kind == method.Control || openCircuit(rq) {
			out[i] = []choice{{}}
			continue
		}
		for _, res := range cat.Resources() {
			c, ok := res.Supports(rq.Method.Name)
			if !ok || !c.Fits(rq.Method, rq.Attrs, eval) {
				continue
			}
			if !res.Electrical() {
				out[i] = append(out[i], choice{res: res})
				continue
			}
			if len(rq.Pins) == 0 || (res.Terminals() >= 2 && len(rq.Pins) > 2) {
				continue
			}
			ch := choice{res: res}
			for pi, pin := range rq.Pins {
				e, ok := entry(m, res.ID, pin)
				terminal := 1
				if res.Terminals() >= 2 && e.Elem.Position >= 2 {
					terminal = 2
				}
				if !ok || (res.Terminals() >= 2 && terminal != pi+1) {
					ch.entries = nil
					break
				}
				ch.entries = append(ch.entries, e)
			}
			if len(ch.entries) == len(rq.Pins) && !entriesConflict(ch.entries, ch.entries) {
				out[i] = append(out[i], ch)
			}
		}
	}
	return out
}

// exists searches every combination of choices for one without a
// conflict.
func exists(cands [][]choice) bool {
	var chosen []choice
	var search func(i int) bool
	search = func(i int) bool {
		if i == len(cands) {
			return true
		}
	next:
		for _, c := range cands[i] {
			for _, prev := range chosen {
				if clash(prev, c) {
					continue next
				}
			}
			chosen = append(chosen, c)
			if search(i + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	return search(0)
}

// clash reports whether two requests' choices cannot hold at once: one
// non-CAN resource serving both, or two positions of one multiplexer.
func clash(a, b choice) bool {
	if a.res != nil && b.res != nil && a.res == b.res && a.res.Kind != resource.CANAdapter {
		return true
	}
	return entriesConflict(a.entries, b.entries)
}

func entriesConflict(a, b []topology.Entry) bool {
	for _, ea := range a {
		for _, eb := range b {
			if ea.Elem.Kind == topology.Mux && eb.Elem.Kind == topology.Mux &&
				strings.EqualFold(ea.Elem.Group, eb.Elem.Group) && ea.Elem.Name != eb.Elem.Name {
				return true
			}
		}
	}
	return false
}

func entry(m *topology.Matrix, resID, pin string) (topology.Entry, bool) {
	for _, e := range m.Entries() {
		if strings.EqualFold(e.Resource, resID) && strings.EqualFold(e.Pin, pin) {
			return e, true
		}
	}
	return topology.Entry{}, false
}

// openCircuit recognises put_r INF, served by opening the route.
func openCircuit(rq alloc.Request) bool {
	if rq.Method.Name != "put_r" {
		return false
	}
	f, ok := unit.Number(rq.Attrs["r"])
	return ok && math.IsInf(f, 1)
}

// checkAgainstCandidates: assignment i answers request i with one of
// its candidate choices.
func checkAgainstCandidates(t *testing.T, plan *alloc.Plan, reqs []alloc.Request, cands [][]choice) {
	t.Helper()
	if len(plan.Assignments) != len(reqs) {
		t.Fatalf("%d assignments for %d requests", len(plan.Assignments), len(reqs))
	}
	for i, a := range plan.Assignments {
		if a.Request.Signal != reqs[i].Signal {
			t.Fatalf("assignment %d answers %s, want %s", i, a.Request.Signal, reqs[i].Signal)
		}
		found := false
		for _, c := range cands[i] {
			if c.res == a.Resource && entryNames(c.entries) == entryNames(a.Entries) {
				found = true
			}
		}
		if !found {
			t.Fatalf("assignment %d (%s on %v via %s) is not a candidate", i, a.Request.Signal,
				a.Resource, entryNames(a.Entries))
		}
	}
}

func entryNames(es []topology.Entry) string {
	var names []string
	for _, e := range es {
		names = append(names, e.Elem.Name)
	}
	return strings.Join(names, ",")
}

func describe(reqs []alloc.Request) string {
	var b strings.Builder
	for _, rq := range reqs {
		b.WriteString(rq.Signal + " " + rq.Method.Name + " " + strings.Join(rq.Pins, "/"))
		for k, v := range rq.Attrs {
			b.WriteString(" " + k + "=" + v)
		}
		b.WriteString("; ")
	}
	return b.String()
}
