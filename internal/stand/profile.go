package stand

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/resource"
	"repro/internal/script"
)

// Profile is the immutable part of a stand, shared by every instance
// built from it (New): the configuration, the method registry, the
// stand variables, the allocator (always alloc.Backtracking, which
// finds an assignment whenever one exists), and the content memos of the
// script-to-stand binding. Attribute evaluation, expectation rendering
// and allocation are pure functions of their input and the profile
// (ubatt, catalog and matrix never change after NewProfile), so one
// result serves every step, run, script and instance. Each memo has its
// own lock, and is cleared when it overflows its bound. A Profile is
// safe for concurrent use; its instances are not.
type Profile struct {
	cfg   Config
	reg   *method.Registry
	env   expr.MapEnv // read-only: the memos assume it never changes
	alloc *alloc.Allocator

	attrMu   sync.RWMutex
	attrVals map[string]float64
	attrErrs map[string]error

	// expect maps a statement's method and sorted attributes (see
	// appendAttrs) to its rendered expected value.
	expectMu sync.RWMutex
	expect   map[string]string

	// plans maps the encoded allocator input of a step (see
	// appendReqKey) to its immutable routing outcome, failures included.
	// planMu is never held across Allocate: the allocator's Eval takes
	// attrMu.
	planMu sync.RWMutex
	plans  map[string]*stepPlan

	allocations atomic.Uint64
}

// Memo bounds: a profile fed generated scripts forever (explore, serve)
// flushes a full memo instead of growing it.
const (
	maxPlans = 1 << 12
	maxMemo  = 1 << 13 // attribute values, expectations
)

// NewProfile checks a stand configuration and binds it to the method
// registry that defines the interpretable language.
func NewProfile(cfg Config, reg *method.Registry) (*Profile, error) {
	if cfg.Catalog == nil || cfg.Matrix == nil {
		return nil, fmt.Errorf("stand %q: needs catalog and matrix", cfg.Name)
	}
	if cfg.UbattVolts <= 0 {
		return nil, fmt.Errorf("stand %q: implausible supply voltage %v", cfg.Name, cfg.UbattVolts)
	}
	for _, e := range cfg.Matrix.Entries() {
		res, ok := cfg.Catalog.Lookup(e.Resource)
		if !ok {
			return nil, fmt.Errorf("stand %q: connection matrix references unknown resource %q", cfg.Name, e.Resource)
		}
		if !res.Electrical() {
			return nil, fmt.Errorf("stand %q: CAN adapter %q cannot appear in the connection matrix", cfg.Name, e.Resource)
		}
	}
	p := &Profile{
		cfg:      cfg,
		reg:      reg,
		env:      expr.MapEnv{"ubatt": cfg.UbattVolts},
		attrVals: map[string]float64{},
		attrErrs: map[string]error{},
		expect:   map[string]string{},
		plans:    map[string]*stepPlan{},
	}
	p.alloc = &alloc.Allocator{Catalog: cfg.Catalog, Matrix: cfg.Matrix,
		Eval: p.evalAttr, Strategy: alloc.Backtracking}
	return p, nil
}

// Allocations counts allocator calls: steps whose allocator input no
// instance of the profile had routed yet (or had routed before a memo
// flush).
func (p *Profile) Allocations() uint64 { return p.allocations.Load() }

// evalAttr evaluates a numeric attribute value (number or expression),
// memoised per attribute string: limit expressions like (1.1*ubatt)
// recur across steps, scripts and runs, and parse and evaluate once. It
// is also the allocator's range-check evaluator.
func (p *Profile) evalAttr(v string) (float64, error) {
	var err error
	p.attrMu.RLock()
	f, ok := p.attrVals[v]
	if !ok {
		err, ok = p.attrErrs[v]
	}
	p.attrMu.RUnlock()
	if ok {
		return f, err
	}
	f, err = resource.EvalNumber(v, p.env)
	p.attrMu.Lock()
	if len(p.attrVals)+len(p.attrErrs) >= maxMemo {
		clear(p.attrVals)
		clear(p.attrErrs)
	}
	if err != nil {
		p.attrErrs[v] = err
	} else {
		p.attrVals[v] = f
	}
	p.attrMu.Unlock()
	return f, err
}

// expectation returns the rendered expected value of st, whose content
// key (method and sorted attributes) is k.
func (p *Profile) expectation(k []byte, st *script.SignalStmt) string {
	p.expectMu.RLock()
	e, ok := p.expect[string(k)]
	p.expectMu.RUnlock()
	if ok {
		return e
	}
	e = p.expectationUncached(st)
	p.expectMu.Lock()
	if len(p.expect) >= maxMemo {
		clear(p.expect)
	}
	p.expect[string(k)] = e
	p.expectMu.Unlock()
	return e
}

// plan returns the stored routing outcome of allocator input k, or nil.
func (p *Profile) plan(k []byte) *stepPlan {
	p.planMu.RLock()
	defer p.planMu.RUnlock()
	return p.plans[string(k)]
}

// storePlan stores sp under k and returns the stored entry: an instance
// that lost a race to route the same input adopts the winner's.
func (p *Profile) storePlan(k []byte, sp *stepPlan) *stepPlan {
	p.planMu.Lock()
	defer p.planMu.Unlock()
	if prev, ok := p.plans[string(k)]; ok {
		return prev
	}
	if len(p.plans) >= maxPlans {
		clear(p.plans)
	}
	p.plans[string(k)] = sp
	return sp
}

// allocError is a memoised allocation failure: the allocator's error
// with its text rendered once, so every repeat reports the same bytes
// without formatting them again.
type allocError struct {
	err  error
	text string
}

func (e *allocError) Error() string { return e.text }
func (e *allocError) Unwrap() error { return e.err }
