// Package stand implements the simulated test stand: the interpreter of
// the paper's Section 4. A stand owns a resource catalog and a connection
// matrix; given a generated XML test script it allocates resources per
// step, drives the stimuli into the simulated electrical network and CAN
// bus, lets the attached DUT model react in simulated time, measures the
// outputs and produces a verdict report.
//
// Execution semantics (documented in DESIGN.md):
//
//   - The init block's stimuli are applied before step 0, followed by a
//     settle time.
//   - In each step, stimuli are applied at the step start; stimuli
//     persist across steps until reassigned (a put_r of INF releases its
//     decade — opening the route realises the infinite resistance).
//   - After the step duration dt has elapsed, the step's measurement
//     statements are evaluated against the settled state. Timing methods
//     (get_t, get_f) sample the pin during the whole step instead.
//   - If allocation fails for a step, the step's statements are reported
//     as ERROR verdicts (the paper's "error message") and execution
//     continues with the previous stimulus state.
package stand

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/alloc"
	"repro/internal/analog"
	"repro/internal/canbus"
	"repro/internal/ecu"
	"repro/internal/event"
	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/script"
	"repro/internal/topology"
	"repro/internal/unit"
)

// Config describes one test stand.
type Config struct {
	// Name identifies the stand in reports.
	Name string
	// UbattVolts is the DUT supply voltage — the stand variable "ubatt"
	// referenced by limit expressions such as (1.1*ubatt).
	UbattVolts float64
	// Catalog and Matrix are the stand's resources and wiring.
	Catalog *resource.Catalog
	Matrix  *topology.Matrix
}

// SettleTime is the pause after applying the init block before step 0.
const SettleTime = 100 * time.Millisecond

// Stand is one instance of a stand profile with an attached DUT: the
// simulated instruments, network, bus and held state of one execution
// at a time. Everything immutable lives in the shared Profile.
type Stand struct {
	prof  *Profile
	sched *event.Scheduler
	net   *analog.Network
	bus   *canbus.Bus
	db    *canbus.DB

	instruments map[*resource.Resource]*instrument
	switches    map[string]*analog.Switch // by element name
	monitor     *canbus.Monitor
	tx          *canbus.TxGroup

	dut    ecu.ECU
	ticker *ecu.Ticker

	// obs, when non-nil, receives the behavioural trace (see trace.go).
	obs Observer
	// trace is the stand's one trace sampler series (nil until the first
	// observed step); while tracing, it samples step traceStep, and it
	// is suspended between steps.
	trace     *event.Periodic
	tracing   bool
	traceStep int
	// outDecls resolves the out declarations of script outSc once, and
	// observeOutputs fills outs, which it reuses, from them.
	outSc    *script.Script
	outDecls []outDecl
	outs     []OutputState
	// samplers lists the timing samplers armed for the current step
	// (see measure.go); each instrument keeps its own across steps.
	samplers []*sampler
	// measured interns rendered measurement text (see measuredText).
	measured map[measuredKey]string
	// runStart is when the current run started: observer times are
	// relative to it, so a pooled stand reports what a fresh one does.
	runStart time.Duration

	// held maps lower signal name → persistent stimulus state.
	held map[string]heldStimulus

	// Per-call scratch of route, allocate and expectation, cleared on
	// entry; nothing derived from it outlives the call.
	merged       map[string]*script.SignalStmt
	order        []string
	stimulusKeys map[string]bool
	prefer       map[string]string
	decls        []*script.SignalDecl
	reqs         []alloc.Request
	stepKey      []byte
	expectKey    []byte

	// routes binds a step (its *script.Step, or the *script.Script for
	// the init block) to its profile's plan and its own statements, so a
	// pooled stand re-running a script skips the merge and the key.
	routes map[any]routedStep

	// ff enables the quiescence fast-forward (see advanceTo); tests
	// disable it to compare against ground-truth tick-by-tick execution.
	ff bool

	// Solves counts network solves (benchmarking/EXPERIMENTS).
	Solves uint64
}

type heldStimulus struct {
	stmt *script.SignalStmt
	decl *script.SignalDecl
	res  string // resource id currently serving it ("" for disconnect/CAN)
}

// instrument is the electrical realisation of a catalog resource.
type instrument struct {
	res    *resource.Resource
	nodes  []analog.NodeID // terminal nodes (len == Terminals())
	decade *analog.Resistor
	source *analog.VSource
	eload  *analog.ISource
	loGnd  *analog.Switch // ties terminal 2 to ground for single-ended use
	pwm    *pwmDrive
	// sampler is the instrument's get_t/get_f sampler, made by the first
	// step that times through it (measure.go).
	sampler *sampler
}

// pwmDrive realises put_pwm: it toggles a voltage source on the event
// clock, producing a square wave the DUT (or a counter via get_f) sees.
type pwmDrive struct {
	sched   *event.Scheduler
	src     *analog.VSource
	running bool
	period  time.Duration
	onTime  time.Duration
	// ev is the phase event, queued while the waveform runs; on/off are
	// phaseOn/phaseOff bound once, so a running waveform schedules
	// without allocating.
	ev      event.Event
	on, off func()
}

func newPWMDrive(sched *event.Scheduler, src *analog.VSource) *pwmDrive {
	p := &pwmDrive{sched: sched, src: src}
	p.on, p.off = p.phaseOn, p.phaseOff
	return p
}

// Start (re)programs the waveform: frequency in Hz, duty in percent.
func (p *pwmDrive) Start(volts, freq, duty float64) error {
	if freq <= 0 || duty < 0 || duty > 100 {
		return fmt.Errorf("stand: implausible PWM f=%v duty=%v", freq, duty)
	}
	p.Stop()
	p.src.SetVolts(volts)
	p.period = time.Duration(float64(time.Second) / freq)
	p.onTime = time.Duration(float64(p.period) * duty / 100)
	p.running = true
	p.phaseOn()
	return nil
}

func (p *pwmDrive) phaseOn() {
	p.src.SetEnabled(p.onTime > 0)
	p.sched.Reschedule(&p.ev, p.sched.Now()+p.onTime, p.off)
}

func (p *pwmDrive) phaseOff() {
	p.src.SetEnabled(false)
	p.sched.Reschedule(&p.ev, p.sched.Now()+p.period-p.onTime, p.on)
}

// Stop ends the waveform and releases the pin. It takes the phase event
// off the queue, so a restart reuses it.
func (p *pwmDrive) Stop() {
	p.running = false
	p.sched.Unqueue(&p.ev)
	p.src.SetEnabled(false)
}

// DVMInputOhms is the simulated meter input impedance.
const DVMInputOhms = 10e6

// New builds a stand from its configuration: NewProfile, then one
// instance of it. The method registry defines the interpretable
// language.
func New(cfg Config, reg *method.Registry) (*Stand, error) {
	p, err := NewProfile(cfg, reg)
	if err != nil {
		return nil, err
	}
	return p.New(), nil
}

// New builds an instance of the profile: instruments wired through the
// connection matrix, network, bus and event clock of its own, with the
// routing, expectation and attribute memos shared.
func (p *Profile) New() *Stand {
	cfg := p.cfg
	s := &Stand{
		prof:         p,
		sched:        &event.Scheduler{},
		net:          analog.NewNetwork(),
		db:           canbus.NewDB(),
		instruments:  map[*resource.Resource]*instrument{},
		switches:     map[string]*analog.Switch{},
		held:         map[string]heldStimulus{},
		merged:       map[string]*script.SignalStmt{},
		stimulusKeys: map[string]bool{},
		prefer:       map[string]string{},
		routes:       map[any]routedStep{},
		ff:           true,
	}
	s.bus = canbus.NewBus(s.sched)
	s.monitor = canbus.NewMonitor()
	standNode := s.bus.Attach("stand:"+cfg.Name, s.monitor.Rx)
	s.tx = canbus.NewTxGroup(standNode, s.db, 20*time.Millisecond, s.sched)

	ubatt := s.net.Node("ubatt")
	s.net.AddVSource("battery", ubatt, analog.Ground, cfg.UbattVolts)

	for _, res := range cfg.Catalog.Resources() {
		inst := &instrument{res: res}
		for t := 0; t < res.Terminals(); t++ {
			inst.nodes = append(inst.nodes, s.net.Node(fmt.Sprintf("res.%s.t%d", res.ID, t+1)))
		}
		switch res.Kind {
		case resource.ResistorDecade:
			inst.decade = s.net.AddResistor("inst."+res.ID, inst.nodes[0], analog.Ground, math.Inf(1))
		case resource.PowerSupply:
			inst.source = s.net.AddVSource("inst."+res.ID, inst.nodes[0], analog.Ground, 0)
			inst.source.SetEnabled(false)
		case resource.ELoad:
			inst.eload = s.net.AddISource("inst."+res.ID, analog.Ground, inst.nodes[0], 0)
			inst.eload.SetEnabled(false)
		case resource.PWMGenerator:
			inst.source = s.net.AddVSource("inst."+res.ID, inst.nodes[0], analog.Ground, 0)
			inst.source.SetEnabled(false)
			inst.pwm = newPWMDrive(s.sched, inst.source)
		case resource.DVM, resource.Counter:
			s.net.AddResistor("inst."+res.ID+".zin", inst.nodes[0], inst.nodes[1], DVMInputOhms)
			inst.loGnd = s.net.AddSwitch("inst."+res.ID+".lognd", inst.nodes[1], analog.Ground)
		}
		s.instruments[res] = inst
	}

	// NewProfile checked that every entry names an electrical resource.
	for _, e := range cfg.Matrix.Entries() {
		res, _ := cfg.Catalog.Lookup(e.Resource)
		inst := s.instruments[res]
		term := alloc.TerminalOf(inst.res, e) - 1
		if term >= len(inst.nodes) {
			term = 0
		}
		sw := s.net.AddSwitch(e.Elem.Name, inst.nodes[term], s.net.Node(e.Pin))
		s.switches[e.Elem.Name] = sw
	}
	return s
}

// Profile returns the shared profile the stand was built from.
func (s *Stand) Profile() *Profile { return s.prof }

// Name returns the stand name.
func (s *Stand) Name() string { return s.prof.cfg.Name }

// Scheduler exposes the simulated clock (examples use it for timing).
func (s *Stand) Scheduler() *event.Scheduler { return s.sched }

// Bus exposes the stand's CAN bus so tests and examples can attach
// listeners.
func (s *Stand) Bus() *canbus.Bus { return s.bus }

// Env returns the stand variable environment (ubatt …). It is shared
// by every instance of the profile and must not be modified.
func (s *Stand) Env() expr.MapEnv { return s.prof.env }

// AttachDUT wires a DUT model into the stand and starts its task ticker.
func (s *Stand) AttachDUT(dut ecu.ECU) error {
	if s.dut != nil {
		return fmt.Errorf("stand %q: a DUT is already attached", s.prof.cfg.Name)
	}
	env := &ecu.Env{
		Net: s.net, Sched: s.sched, Bus: s.bus, DB: s.db,
		UbattVolts: s.prof.cfg.UbattVolts, UbattNode: s.net.Node("ubatt"),
	}
	if err := dut.Attach(env); err != nil {
		return err
	}
	s.dut = dut
	s.ticker = ecu.StartTicker(dut, env)
	return nil
}

// DUT returns the attached model, or nil.
func (s *Stand) DUT() ecu.ECU { return s.dut }

// CanRun reports whether the stand can execute the script at all: every
// method used must be offered by some resource (or need none). It is the
// static portion of the paper's portability claim; reuse.Analyze builds
// on it.
func (s *Stand) CanRun(sc *script.Script) error {
	if err := script.Validate(sc, s.prof.reg); err != nil {
		return err
	}
	for _, m := range sc.UsedMethods() {
		d, _ := s.prof.reg.Lookup(m)
		if d.Kind == method.Control {
			continue
		}
		if len(s.prof.cfg.Catalog.Candidates(m)) == 0 {
			return fmt.Errorf("stand %q: no resource supports method %s", s.prof.cfg.Name, m)
		}
	}
	return nil
}

// RunContext executes the script, checking ctx between steps. On
// cancellation the executed steps keep their verdicts, every remaining
// statement is reported as a SKIP check, and FatalErr records the
// context error — so Passed() is false and the report still shows how
// far the run got. Simulated time inside a step is never interrupted:
// a step is the atomic unit of execution, exactly as on real hardware
// where an operator abort takes effect at the next step boundary.
//
// The script is compiled and handed to RunCompiled; a script that does
// not compile is rejected with its validation error as FatalErr, no
// steps and no observer callbacks.
func (s *Stand) RunContext(ctx context.Context, sc *script.Script) *report.Report {
	c, err := script.Compile(sc, s.prof.reg)
	if err != nil {
		rep := &report.Report{Script: sc.Name, Stand: s.prof.cfg.Name,
			Steps: []report.StepResult{}, FatalErr: err.Error()}
		if s.dut != nil {
			rep.DUT = s.dut.Name()
		}
		return rep
	}
	return s.RunCompiled(ctx, c, RunOptions{})
}

// skipRemaining records the unexecuted steps of an aborted run as SKIP
// verdicts, in the run's check slab from the window of steps[0] on.
func (s *Stand) skipRemaining(rep *report.Report, steps []*script.Step, cause error, slab []report.Check) {
	for _, step := range steps {
		n := len(step.Signals)
		res := report.StepResult{Nr: step.Nr, Dt: step.Dt, Remark: step.Remark, Checks: slab[:0:n]}
		slab = slab[n:]
		for _, st := range step.Signals {
			res.Checks = append(res.Checks, report.Check{
				Signal: st.Name, Method: st.Call.Method,
				Expected: s.expectation(st), Measured: "-",
				Verdict: report.Skip, Detail: cause.Error(),
			})
		}
		rep.Steps = append(rep.Steps, res)
	}
}

// resetRun restores power-on state between script executions.
func (s *Stand) resetRun() {
	for _, sw := range s.switches {
		sw.SetClosed(false)
	}
	for _, inst := range s.instruments {
		if inst.decade != nil {
			inst.decade.SetOhms(math.Inf(1))
		}
		if inst.source != nil {
			inst.source.SetEnabled(false)
		}
		if inst.eload != nil {
			inst.eload.SetEnabled(false)
		}
		if inst.loGnd != nil {
			inst.loGnd.SetClosed(false)
		}
		if inst.pwm != nil {
			inst.pwm.Stop()
		}
	}
	clear(s.held)
	// Reset the DUT BEFORE silencing the bus: a model's Reset may
	// announce state changes (a locked DUT resetting to unlocked
	// transmits the new status), and those frames belong to the old
	// run. Clearing the groups and purging in-flight deliveries last
	// wipes every such side effect, so a reused stand starts from the
	// same silence as a freshly built one.
	if s.dut != nil {
		s.dut.Reset()
		if rc, ok := s.dut.(interface{ ResetComms() }); ok {
			rc.ResetComms()
		}
	}
	s.monitor.Clear()
	s.tx.Clear()
	s.bus.Purge()
}

// runStep executes one classified step: apply stimuli, advance dt plus
// the control statements' extra wait, measure. The step's checks go
// into checks, its window of the run's slab (see checkSlab).
func (s *Stand) runStep(sc *script.Script, step *script.Step,
	stimuli, measures []*script.SignalStmt, extraWait float64, checks []report.Check) report.StepResult {
	res := report.StepResult{Nr: step.Nr, Dt: step.Dt, Remark: step.Remark, Checks: checks}

	plan, allocErr := s.applyStep(sc, stimuli, measures, &res, step)

	// Timing measurements sample during the step.
	s.startSamplers(measures, plan)

	s.startTrace(step)
	dt := step.Dt + extraWait
	s.advanceTo(s.sched.Now()+time.Duration(dt*float64(time.Second)), len(s.samplers) == 0)
	s.stopTrace()

	s.stopSamplers()
	if s.obs != nil {
		s.obs.StepFinished(step, s.sched.Now()-s.runStart, s.observeOutputs())
	}

	if allocErr != nil {
		// The paper's error path: every statement of the step becomes an
		// ERROR verdict, execution continues.
		for _, st := range step.Signals {
			res.Checks = append(res.Checks, report.Check{
				Signal: st.Name, Method: st.Call.Method,
				Expected: s.expectation(st), Measured: "-",
				Verdict: report.Error, Detail: allocErr.Error(),
			})
		}
		return res
	}

	for _, st := range measures {
		res.Checks = append(res.Checks, s.measure(sc, st, plan))
	}
	return res
}

// stepPlan is the routing outcome of one step's allocator input on a
// profile: the plan, the switch closures and the report's Applied
// lines, or the allocation failure. It is a pure function of that
// input — the profile's catalog, matrix and variables
// are fixed — so every script reaching the same input, on any instance,
// shares one entry. Immutable once stored in Profile.plans, where it
// lives as long as the process: it holds slices, not maps, so the memo
// stays small for the garbage collector to scan.
type stepPlan struct {
	err  *allocError // non-nil: the allocator failed, and nothing else is set
	plan *alloc.Plan
	want []string // element names of the switches to close
	// lines holds the Applied line of every assignment that has one
	// (viaOf, read before the stored plan drops its requests), in
	// assignment order; hasLine marks those assignments. Every report of
	// the step shares lines, each holding a capped prefix.
	lines   []string
	hasLine []bool
}

// routedStep binds a shared stepPlan to one script's statements: for
// assignment i, the statement and declaration that program the
// instrument, the signal's held-state key and whether it is a stimulus.
// Valid because a run always starts from resetRun and executes its steps
// in order, so the held state — and with it the allocator's input — at
// any given step is identical on every run of the same script on the
// same stand.
type routedStep struct {
	plan *stepPlan
	asg  []routedAsg
}

type routedAsg struct {
	st       *script.SignalStmt
	decl     *script.SignalDecl
	key      string // lower signal name
	stimulus bool
}

// replayStep programs a routed step: switches, instruments, Applied
// lines and held-state updates, in assignment order. res.Applied is a
// capped prefix of the plan's lines, those of the assignments
// programmed, so it costs no allocation and no report can append into
// another's.
func (s *Stand) replayStep(rs routedStep, res *report.StepResult) (*alloc.Plan, error) {
	sp := rs.plan
	if sp.err != nil {
		return nil, sp.err
	}
	for name, sw := range s.switches {
		sw.SetClosed(slices.Contains(sp.want, name))
	}
	// Released PWM generators stop toggling (their switch is open anyway,
	// but a running waveform would needlessly dirty the network).
	for r, inst := range s.instruments {
		if inst.pwm != nil && inst.pwm.running && !sp.uses(r) {
			inst.pwm.Stop()
		}
	}
	k := 0 // lines of the assignments programmed so far
	var err error
	for i := range rs.asg {
		ra := &rs.asg[i]
		a := &sp.plan.Assignments[i]
		if err = s.programState(a, ra.st, ra.decl); err != nil {
			break
		}
		if sp.hasLine[i] {
			k++
		}
		if ra.stimulus {
			s.held[ra.key] = heldStimulus{stmt: ra.st, decl: ra.decl, res: resID(a.Resource)}
		}
	}
	if res != nil && k > 0 {
		res.Applied = sp.lines[:k:k]
	}
	if err != nil {
		return nil, err
	}
	return sp.plan, nil
}

// applyStep allocates the step's complete demand — the held persistent
// stimuli, the step's new stimuli and the step's measurements — and
// programs the instruments. Preferences keep unchanged signals on their
// previous resources. Measurement assignments are transient; stimulus
// assignments update the held state.
//
// ckey, when non-nil, identifies the step (its *script.Step, or the
// *script.Script for the init block) for the routes binding: the first
// execution routes and binds, repeats replay. A step whose routing
// fails validation is never bound; one the allocator cannot serve is,
// and replays its failure.
func (s *Stand) applyStep(sc *script.Script, stimuli, measures []*script.SignalStmt, res *report.StepResult, ckey any) (*alloc.Plan, error) {
	rs, bound := s.routes[ckey]
	if !bound {
		var err error
		if rs, err = s.route(sc, stimuli, measures); err != nil {
			return nil, err
		}
	}
	plan, err := s.replayStep(rs, res)
	if !bound && ckey != nil {
		// Pointer-keyed, so every binding retains its script: a
		// workbook binds a few dozen steps, and one-shot scripts
		// (script mutants, explore's walks) must not pile up.
		if len(s.routes) >= 1<<8 {
			clear(s.routes)
		}
		s.routes[ckey] = rs
	}
	return plan, err
}

// route merges the step's demand, validates it and binds it to the
// stepPlan for its allocator input, calling the allocator only when no
// instance of the profile has routed that input before. New stimuli
// override held ones per signal.
func (s *Stand) route(sc *script.Script, stimuli, measures []*script.SignalStmt) (routedStep, error) {
	merged, stimulusKeys, prefer := s.merged, s.stimulusKeys, s.prefer
	clear(merged)
	clear(stimulusKeys)
	clear(prefer)
	order := s.order[:0]
	for key, h := range s.held {
		merged[key] = h.stmt
		order = append(order, key)
	}
	sort.Strings(order) // deterministic carryover order
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
			return routedStep{}, fmt.Errorf("signal %q is both stimulated and measured in one step", st.Name)
		}
		merged[key] = st
		order = append(order, key)
	}
	s.order = order

	// Validate, and encode the allocator's whole input in request order.
	decls, k := s.decls[:0], s.stepKey[:0]
	for _, key := range order {
		st := merged[key]
		decl := sc.Decl(st.Name)
		if decl == nil {
			return routedStep{}, fmt.Errorf("undeclared signal %q", st.Name)
		}
		if _, ok := s.prof.reg.Lookup(st.Call.Method); !ok {
			return routedStep{}, fmt.Errorf("unknown method %q", st.Call.Method)
		}
		h, held := s.held[key]
		held = held && h.res != ""
		if held {
			prefer[key] = h.res
		}
		k = appendReqKey(k, st, decl, h.res, held)
		decls = append(decls, decl)
	}
	s.decls, s.stepKey = decls, k

	sp := s.prof.plan(k)
	if sp == nil {
		sp = s.prof.storePlan(k, s.allocate(order, decls))
	}
	// The allocator answers in request order (alloc's order contract), so
	// assignment i belongs to order[i].
	rs := routedStep{plan: sp, asg: make([]routedAsg, len(order))}
	for i, key := range order {
		rs.asg[i] = routedAsg{st: merged[key], decl: decls[i], key: key, stimulus: stimulusKeys[key]}
	}
	return rs, nil
}

// allocate calls the allocator on the merged demand and renders its
// stepPlan, or its failure.
func (s *Stand) allocate(order []string, decls []*script.SignalDecl) *stepPlan {
	reqs := s.reqs[:0]
	for i, key := range order {
		st := s.merged[key]
		d, _ := s.prof.reg.Lookup(st.Call.Method)
		reqs = append(reqs, alloc.Request{
			Signal: st.Name, Method: d, Attrs: st.Call.Attrs, Pins: declPins(decls[i]),
		})
	}
	s.reqs = reqs

	s.prof.allocations.Add(1)
	plan, err := s.prof.alloc.Allocate(reqs, s.prefer)
	if err != nil {
		return &stepPlan{err: &allocError{err: err, text: err.Error()}}
	}
	n, lines := 0, 0
	for i := range plan.Assignments {
		n += len(plan.Assignments[i].Entries)
		if viaOf(&plan.Assignments[i]) != "" {
			lines++
		}
	}
	sp := &stepPlan{plan: plan, want: make([]string, 0, n), lines: make([]string, 0, lines),
		hasLine: make([]bool, len(plan.Assignments))}
	for i := range plan.Assignments {
		a := &plan.Assignments[i]
		for _, e := range a.Entries {
			sp.want = append(sp.want, e.Elem.Name)
		}
		if via := viaOf(a); via != "" {
			sp.lines = append(sp.lines, appliedLine(s.merged[order[i]], via))
			sp.hasLine[i] = true
		}
		// Replay and measurement read only the signal of a request, so
		// the stored plan drops its attributes and pins: the entry then
		// pins no script's statements, and the collector scans less.
		a.Request = alloc.Request{Signal: a.Request.Signal}
	}
	return sp
}

// uses reports whether the plan assigns r (PWM keep-alive).
func (sp *stepPlan) uses(r *resource.Resource) bool {
	for i := range sp.plan.Assignments {
		if sp.plan.Assignments[i].Resource == r {
			return true
		}
	}
	return false
}

func resID(r *resource.Resource) string {
	if r == nil {
		return ""
	}
	return r.ID
}

// viaOf returns the "via" label of an assignment's report Applied line,
// or "" when it produces no line (measurements, silent releases). It
// depends on the plan alone, so a stepPlan renders its lines once.
func viaOf(a *alloc.Assignment) string {
	switch {
	case a.Resource == nil && a.Disconnect():
		return "disconnect"
	case a.Resource == nil, a.Resource.Kind == resource.DVM, a.Resource.Kind == resource.Counter:
		return ""
	}
	return a.Resource.ID
}

// programState sets one instrument according to an assignment.
func (s *Stand) programState(a *alloc.Assignment, st *script.SignalStmt, decl *script.SignalDecl) error {
	if a.Resource == nil {
		return nil
	}
	inst := s.instruments[a.Resource]
	switch a.Resource.Kind {
	case resource.ResistorDecade:
		f, err := s.evalAttr(st.Call.Attrs["r"])
		if err != nil {
			return err
		}
		inst.decade.SetOhms(f)
	case resource.PowerSupply:
		f, err := s.evalAttr(st.Call.Attrs["u"])
		if err != nil {
			return err
		}
		inst.source.SetVolts(f)
		inst.source.SetEnabled(true)
	case resource.ELoad:
		f, err := s.evalAttr(st.Call.Attrs["i"])
		if err != nil {
			return err
		}
		inst.eload.SetAmps(f)
		inst.eload.SetEnabled(true)
	case resource.PWMGenerator:
		freq, err := s.evalAttr(st.Call.Attrs["f"])
		if err != nil {
			return err
		}
		duty, err := s.evalAttr(st.Call.Attrs["duty"])
		if err != nil {
			return err
		}
		return inst.pwm.Start(s.prof.cfg.UbattVolts, freq, duty)
	case resource.CANAdapter:
		if st.Call.Method == "put_can" {
			if decl == nil {
				return fmt.Errorf("no declaration for CAN signal %q", st.Name)
			}
			v, _, err := unit.ParseBits(st.Call.Attrs["data"])
			if err != nil {
				return err
			}
			order, err := canbus.ParseByteOrder(decl.ByteOrder)
			if err != nil {
				return err
			}
			return s.tx.SetSignalOrder(order, decl.Message, decl.StartBit, decl.Length, v)
		}
	case resource.DVM, resource.Counter:
		// Measurement instruments: single-ended use ties lo to ground.
		if inst.loGnd != nil {
			inst.loGnd.SetClosed(len(a.Entries) < 2)
		}
	}
	return nil
}

// appliedLine renders one report Applied line,
// "NAME method(k=v …) via RES", with a single allocation.
func appliedLine(st *script.SignalStmt, via string) string {
	n := len(st.Name) + len(st.Call.Method) + len(via) + len(" () via ")
	for k, v := range st.Call.Attrs {
		n += len(k) + len(v) + len("= ")
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(st.Name)
	b.WriteByte(' ')
	b.WriteString(st.Call.Method)
	b.WriteByte('(')
	writeAttrs(&b, st.Call.Attrs)
	b.WriteString(") via ")
	b.WriteString(via)
	return b.String()
}

// declPins extracts the electrical pins of a declaration.
func declPins(d *script.SignalDecl) []string {
	cls, err := parseClass(d.Class)
	if err != nil || cls == classCAN {
		return nil
	}
	if d.PinRet != "" {
		return []string{d.Pin, d.PinRet}
	}
	return []string{d.Pin}
}

type classKind int

const (
	classElectrical classKind = iota
	classCAN
)

func parseClass(c string) (classKind, error) {
	switch strings.ToLower(strings.TrimSpace(c)) {
	case "analog", "digital":
		return classElectrical, nil
	case "can":
		return classCAN, nil
	}
	return classElectrical, fmt.Errorf("unknown class %q", c)
}

// evalAttr evaluates a numeric attribute value through the profile's
// memo (Profile.evalAttr).
func (s *Stand) evalAttr(v string) (float64, error) { return s.prof.evalAttr(v) }

// expectation renders the expected value of a statement for reports,
// memoised by content: the rendering reads only the method and the
// attributes, so every statement spelling them alike shares one string.
func (s *Stand) expectation(st *script.SignalStmt) string {
	k := appendAttrs(appendField(s.expectKey[:0], st.Call.Method), st.Call.Attrs)
	s.expectKey = k
	return s.prof.expectation(k, st)
}

func (p *Profile) expectationUncached(st *script.SignalStmt) string {
	d, ok := p.reg.Lookup(st.Call.Method)
	if !ok {
		return attrString(st.Call.Attrs)
	}
	lo, hasLo := st.Call.Attrs[d.RangeAttr+"_min"]
	hi, hasHi := st.Call.Attrs[d.RangeAttr+"_max"]
	if hasLo && hasHi {
		flo, e1 := p.evalAttr(lo)
		fhi, e2 := p.evalAttr(hi)
		if e1 == nil && e2 == nil {
			return fmt.Sprintf("[%s, %s] %s",
				unit.FormatNumber(round6(flo)), unit.FormatNumber(round6(fhi)), d.Unit)
		}
		return fmt.Sprintf("[%s, %s]", lo, hi)
	}
	return attrString(st.Call.Attrs)
}

// attrString renders attributes as "k=v …", sorted by name.
func attrString(attrs map[string]string) string {
	var b strings.Builder
	writeAttrs(&b, attrs)
	return b.String()
}

// writeAttrs writes attrs as "k=v …", sorted by name; the names sort in
// a stack array when they fit.
func writeAttrs(b *strings.Builder, attrs map[string]string) {
	var buf [8]string
	names := buf[:0]
	for k := range attrs {
		names = append(names, k)
	}
	slices.Sort(names)
	for i, k := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(attrs[k])
	}
}
