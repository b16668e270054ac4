// Package alloc implements test-stand resource allocation. The paper:
// "For each method to be carried out, the test stand searches an
// appropriate ressource, that can be connected to the signal pin. If this
// is not possible an error message is generated."
//
// A request is one signal statement of the running step: a method with
// concrete attributes plus the DUT pins the signal lives on. The
// allocator chooses, for every request, a resource that
//
//  1. supports the method,
//  2. accepts the parameter values (range check against the catalog),
//  3. can be routed to every pin of the signal through the connection
//     matrix, with multi-terminal instruments (DVM) reaching the signal's
//     forward pin on terminal 1 and the return pin on terminal 2,
//
// subject to the concurrency constraints of the running step:
//
//   - a resource serves at most one signal at a time (CAN adapters are
//     exempt: one adapter serves any number of bus signals, like a real
//     restbus simulation),
//   - at most one position of each multiplexer group may be closed.
//
// Two interchangeable strategies are provided (DESIGN.md ablation 1):
// first-fit Greedy, and Backtracking, which explores alternative
// candidate choices before giving up. Greedy can fail on step sets where
// an early signal grabs the only resource a later signal could use.
package alloc

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/method"
	"repro/internal/resource"
	"repro/internal/topology"
	"repro/internal/unit"
)

// Request is one signal statement to be realised.
type Request struct {
	// Signal is the signal name (for diagnostics and stability).
	Signal string
	// Method is the resolved method descriptor.
	Method *method.Descriptor
	// Attrs carries the concrete attribute values from the script.
	Attrs map[string]string
	// Pins lists the DUT pins the signal touches: empty for CAN signals
	// and control methods, [pin] for single-ended, [pin, pinRet] for
	// differential signals.
	Pins []string
}

// Assignment is the allocator's answer for one request.
type Assignment struct {
	Request Request
	// Resource is the chosen resource; nil when no resource is needed
	// (wait, or a put_r of INF, which is realised by opening the route —
	// a disconnect needs no instrument).
	Resource *resource.Resource
	// Entries are the connection-matrix entries to close, one per pin in
	// request order. Empty for CAN and resource-less assignments.
	Entries []topology.Entry
}

// Disconnect reports whether the assignment is a pure disconnect.
func (a *Assignment) Disconnect() bool {
	return a.Resource == nil && len(a.Request.Pins) > 0
}

// Plan is a complete allocation for one step.
type Plan struct {
	Assignments []Assignment
}

// ByResource returns the assignment using the given resource, if any.
func (p *Plan) ByResource(id string) (*Assignment, bool) {
	for i := range p.Assignments {
		r := p.Assignments[i].Resource
		if r != nil && strings.EqualFold(r.ID, id) {
			return &p.Assignments[i], true
		}
	}
	return nil, false
}

// BySignal returns the assignment for the given signal, if any.
func (p *Plan) BySignal(signal string) (*Assignment, bool) {
	for i := range p.Assignments {
		if strings.EqualFold(p.Assignments[i].Request.Signal, signal) {
			return &p.Assignments[i], true
		}
	}
	return nil, false
}

// NoResourceError is the paper's "error message": it names the request
// that could not be served and why each catalog resource was rejected.
type NoResourceError struct {
	Signal  string
	Method  string
	Reasons []string
}

// Error implements error.
func (e *NoResourceError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "alloc: no resource for %s on signal %q", e.Method, e.Signal)
	if len(e.Reasons) > 0 {
		b.WriteString(": ")
		b.WriteString(strings.Join(e.Reasons, "; "))
	}
	return b.String()
}

// Strategy selects the allocation algorithm.
type Strategy int

const (
	// Greedy is first-fit in request order.
	Greedy Strategy = iota
	// Backtracking explores alternatives before failing.
	Backtracking
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Greedy {
		return "greedy"
	}
	return "backtracking"
}

// Allocator binds a catalog and a connection matrix.
type Allocator struct {
	Catalog *resource.Catalog
	Matrix  *topology.Matrix
	// Eval turns an attribute value (number or limit expression over the
	// stand variables) into a number for range checks; a stand passes its
	// memoised evaluator.
	Eval     func(string) (float64, error)
	Strategy Strategy
}

// Allocate plans the given requests. prefer maps signal names to the
// resource id used in the previous step; keeping assignments stable
// avoids needless relay wear (and pointless plan churn in the simulator).
func (al *Allocator) Allocate(reqs []Request, prefer map[string]string) (*Plan, error) {
	// Pre-compute the candidate lists; requests that need no resource are
	// answered immediately.
	type slot struct {
		req        Request
		fixed      *Assignment // resolved without search
		candidates []Assignment
		failure    *NoResourceError
	}
	slots := make([]slot, len(reqs))
	for i, req := range reqs {
		s := &slots[i]
		s.req = req
		switch {
		case req.Method == nil:
			return nil, fmt.Errorf("alloc: request for signal %q lacks a method", req.Signal)
		case req.Method.Kind == method.Control:
			s.fixed = &Assignment{Request: req}
		case isDisconnect(req):
			s.fixed = &Assignment{Request: req}
		default:
			cands, failure := al.candidates(req, prefer)
			s.candidates = cands
			s.failure = failure
		}
	}

	plan := &Plan{}
	// Every search path holds at most one assignment per request, so
	// the plan is built in place, at its final size.
	chosen := make([]Assignment, 0, len(reqs))

	feasible := func(a Assignment) bool {
		for _, prev := range chosen {
			if conflict(prev, a) {
				return false
			}
		}
		return true
	}

	var solve func(i int) *NoResourceError
	solve = func(i int) *NoResourceError {
		if i == len(slots) {
			return nil
		}
		s := &slots[i]
		if s.fixed != nil {
			chosen = append(chosen, *s.fixed)
			err := solve(i + 1)
			if err != nil {
				chosen = chosen[:len(chosen)-1]
			}
			return err
		}
		if len(s.candidates) == 0 {
			return s.failure
		}
		var lastErr *NoResourceError
		for _, cand := range s.candidates {
			if !feasible(cand) {
				// A conflict extends the downstream failure being carried;
				// before any, it is rendered only if every candidate
				// conflicts (below), since a later one may still succeed.
				if lastErr != nil {
					lastErr.Reasons = append(lastErr.Reasons, conflictReason(cand))
				}
				continue
			}
			chosen = append(chosen, cand)
			err := solve(i + 1)
			if err == nil {
				return nil
			}
			chosen = chosen[:len(chosen)-1]
			lastErr = err
			if al.Strategy == Greedy {
				// First-fit: commit to the first feasible candidate and
				// propagate any downstream failure.
				return err
			}
		}
		if lastErr == nil {
			lastErr = &NoResourceError{Signal: s.req.Signal, Method: s.req.Method.Name}
			for _, cand := range s.candidates {
				lastErr.Reasons = append(lastErr.Reasons, conflictReason(cand))
			}
		}
		return lastErr
	}

	if err := solve(0); err != nil {
		return nil, err
	}
	plan.Assignments = chosen
	return plan, nil
}

// isDisconnect recognises stimuli realised by opening the route: put_r
// with an infinite resistance.
func isDisconnect(req Request) bool {
	if req.Method.Name != "put_r" {
		return false
	}
	v, ok := req.Attrs["r"]
	if !ok {
		return false
	}
	f, ok := unit.Number(v)
	return ok && math.IsInf(f, 1)
}

func conflictReason(cand Assignment) string {
	return cand.Resource.ID + ": conflicts with an earlier assignment in this step"
}

// candidates enumerates every resource that could serve the request, in
// catalog order with the preferred resource first; when none qualifies it
// returns the diagnostic error instead. Rejection reasons are rendered
// only then, by a second pass over the same order: an allocation that
// succeeds formats nothing.
func (al *Allocator) candidates(req Request, prefer map[string]string) ([]Assignment, *NoResourceError) {
	resources := al.Catalog.Resources()
	first := -1
	if want, ok := prefer[strings.ToLower(req.Signal)]; ok {
		first = slices.IndexFunc(resources, func(r *resource.Resource) bool { return strings.EqualFold(r.ID, want) })
	}
	if out := al.scan(req, resources, first, nil); len(out) > 0 {
		return out, nil
	}
	fail := &NoResourceError{Signal: req.Signal, Method: req.Method.Name}
	al.scan(req, resources, first, fail)
	return nil, fail
}

// scan checks resources[first] (when first >= 0) and then the others in
// order, returning the qualifying assignments. With fail non-nil it
// records why each rejected resource does not qualify.
func (al *Allocator) scan(req Request, resources []*resource.Resource, first int, fail *NoResourceError) []Assignment {
	var out []Assignment
	consider := func(res *resource.Resource) {
		a, reason, ok := al.check(req, res, fail != nil)
		switch {
		case ok:
			out = append(out, a)
		case fail != nil:
			fail.Reasons = append(fail.Reasons, res.ID+": "+reason)
		}
	}
	if first >= 0 {
		consider(resources[first])
	}
	for i, res := range resources {
		if i != first {
			consider(res)
		}
	}
	return out
}

// check decides whether res can serve req. With explain set, a rejection
// comes with its reason; without, nothing is formatted.
func (al *Allocator) check(req Request, res *resource.Resource, explain bool) (Assignment, string, bool) {
	cap, ok := res.Supports(req.Method.Name)
	if !ok {
		if explain {
			return Assignment{}, "does not support " + req.Method.Name, false
		}
		return Assignment{}, "", false
	}
	if explain {
		if err := cap.CheckAttrs(req.Method, req.Attrs, al.Eval); err != nil {
			return Assignment{}, err.Error(), false
		}
	} else if !cap.Fits(req.Method, req.Attrs, al.Eval) {
		return Assignment{}, "", false
	}
	if !res.Electrical() {
		return Assignment{Request: req, Resource: res}, "", true
	}
	if len(req.Pins) == 0 {
		return Assignment{}, "electrical resource but the signal has no pins", false
	}
	entries, reason, ok := al.route(res, req.Pins, explain)
	if !ok {
		return Assignment{}, reason, false
	}
	return Assignment{Request: req, Resource: res, Entries: entries}, "", true
}

// route finds one matrix entry per pin and checks terminal compatibility.
// A failure's reason is rendered only with explain set.
func (al *Allocator) route(res *resource.Resource, pins []string, explain bool) ([]topology.Entry, string, bool) {
	if res.Terminals() >= 2 && len(pins) > 2 {
		if !explain {
			return nil, "", false
		}
		return nil, fmt.Sprintf("signal has %d pins but the instrument has 2 terminals", len(pins)), false
	}
	var entries []topology.Entry
	for i, pin := range pins {
		e, ok := al.Matrix.Route(res.ID, pin)
		if !ok {
			if !explain {
				return nil, "", false
			}
			return nil, "not connected to pin " + pin, false
		}
		if res.Terminals() >= 2 {
			wantTerminal := i + 1
			if got := terminalOf(res, e); got != wantTerminal {
				if !explain {
					return nil, "", false
				}
				return nil, fmt.Sprintf("pin %s reaches terminal %d, signal needs terminal %d", pin, got, wantTerminal), false
			}
		}
		if entries == nil {
			entries = make([]topology.Entry, 0, len(pins))
		}
		entries = append(entries, e)
	}
	// Entries of one assignment must themselves be co-activatable (a
	// degenerate matrix could route both pins through one mux group).
	for i := range entries {
		for j := i + 1; j < len(entries); j++ {
			if topology.Conflicts(entries[i], entries[j]) {
				if !explain {
					return nil, "", false
				}
				return nil, fmt.Sprintf("pins %s and %s share multiplexer %s", pins[i], pins[j], entries[i].Elem.Group), false
			}
		}
	}
	return entries, "", true
}

// terminalOf maps a matrix entry to an instrument terminal (1-based): for
// single-ended instruments everything lands on terminal 1; for
// differential instruments the element position selects the terminal.
func terminalOf(res *resource.Resource, e topology.Entry) int {
	if res.Terminals() <= 1 {
		return 1
	}
	if e.Elem.Position >= 2 {
		return 2
	}
	return 1
}

// TerminalOf is the exported form used by the stand when wiring
// instruments to matrix entries.
func TerminalOf(res *resource.Resource, e topology.Entry) int { return terminalOf(res, e) }

// conflict implements the concurrency constraints between two concurrent
// assignments.
func conflict(a, b Assignment) bool {
	if a.Resource != nil && b.Resource != nil &&
		strings.EqualFold(a.Resource.ID, b.Resource.ID) &&
		a.Resource.Kind != resource.CANAdapter &&
		!strings.EqualFold(a.Request.Signal, b.Request.Signal) {
		return true
	}
	for _, ea := range a.Entries {
		for _, eb := range b.Entries {
			if topology.Conflicts(ea, eb) {
				return true
			}
		}
	}
	return false
}
