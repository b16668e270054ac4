// Package script implements the XML test script — the interchange format
// of the paper's tool chain. The sheets are "transformed to a form that
// can be interpreted easily by a test stand. As file type we have chosen
// the xml format. Besides header, step numbers etc. the most important
// content of this file is given by many signal statements, each of them
// followed by a method statement", e.g.:
//
//	<signal name="int_ill">
//	      <get_u u_max="(1.1*ubatt)" u_min="(0.7*ubatt)" />
//	</signal>
//
// A script is self-contained: besides the init block and the steps it
// carries the signal declarations (class, pins, CAN packing), so that any
// test stand can interpret it knowing only its own resources and
// connection matrix.
package script

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/canbus"
	"repro/internal/expr"
	"repro/internal/method"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/unit"
)

// Version is the script format version emitted by this generator.
const Version = "1.0"

// MethodCall is one method statement: the element name is the method, the
// attributes carry its parameters (numbers or limit expressions).
type MethodCall struct {
	Method string
	Attrs  map[string]string
}

// Attr returns an attribute value and whether it is present.
func (c *MethodCall) Attr(name string) (string, bool) {
	v, ok := c.Attrs[name]
	return v, ok
}

// sortedAttrNames returns attribute names in deterministic (sorted)
// order. Sorting happens to reproduce the paper's example, where u_max
// precedes u_min.
func (c *MethodCall) sortedAttrNames() []string {
	names := make([]string, 0, len(c.Attrs))
	for n := range c.Attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SignalStmt is one signal statement: a signal name plus the method call
// applied to it.
type SignalStmt struct {
	Name string
	Call MethodCall
}

// MarshalXML implements xml.Marshaler; the method element name is dynamic.
func (s *SignalStmt) MarshalXML(e *xml.Encoder, start xml.StartElement) error {
	start.Name.Local = "signal"
	start.Attr = []xml.Attr{{Name: xml.Name{Local: "name"}, Value: s.Name}}
	if err := e.EncodeToken(start); err != nil {
		return err
	}
	call := xml.StartElement{Name: xml.Name{Local: s.Call.Method}}
	for _, n := range s.Call.sortedAttrNames() {
		call.Attr = append(call.Attr, xml.Attr{Name: xml.Name{Local: n}, Value: s.Call.Attrs[n]})
	}
	if err := e.EncodeToken(call); err != nil {
		return err
	}
	if err := e.EncodeToken(xml.EndElement{Name: call.Name}); err != nil {
		return err
	}
	return e.EncodeToken(xml.EndElement{Name: start.Name})
}

// UnmarshalXML implements xml.Unmarshaler.
func (s *SignalStmt) UnmarshalXML(d *xml.Decoder, start xml.StartElement) error {
	for _, a := range start.Attr {
		if a.Name.Local == "name" {
			s.Name = a.Value
		}
	}
	if s.Name == "" {
		return fmt.Errorf("script: <signal> element without name attribute")
	}
	for {
		tok, err := d.Token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if s.Call.Method != "" {
				return fmt.Errorf("script: signal %q has more than one method element", s.Name)
			}
			s.Call.Method = t.Name.Local
			s.Call.Attrs = map[string]string{}
			for _, a := range t.Attr {
				s.Call.Attrs[a.Name.Local] = a.Value
			}
			if err := d.Skip(); err != nil {
				return err
			}
		case xml.EndElement:
			if s.Call.Method == "" {
				return fmt.Errorf("script: signal %q has no method element", s.Name)
			}
			return nil
		}
	}
}

// SignalDecl declares a signal so the stand can route and pack it.
type SignalDecl struct {
	Name      string `xml:"name,attr"`
	Direction string `xml:"direction,attr"`
	Class     string `xml:"class,attr"`
	Pin       string `xml:"pin,attr,omitempty"`
	PinRet    string `xml:"pin_ret,attr,omitempty"`
	Message   string `xml:"message,attr,omitempty"`
	StartBit  int    `xml:"startbit,attr,omitempty"`
	Length    int    `xml:"length,attr,omitempty"`
	// ByteOrder is "intel" (default when empty) or "motorola".
	ByteOrder string `xml:"byteorder,attr,omitempty"`
}

// Step is one test step of the script.
type Step struct {
	Nr      int           `xml:"nr,attr"`
	Dt      float64       `xml:"dt,attr"`
	Remark  string        `xml:"remark,attr,omitempty"`
	Signals []*SignalStmt `xml:"signal"`
}

// Header carries provenance metadata. It deliberately excludes wall-clock
// timestamps so generation is deterministic and scripts diff cleanly.
type Header struct {
	DUT       string `xml:"dut,attr,omitempty"`
	Author    string `xml:"author,attr,omitempty"`
	Generator string `xml:"generator,attr,omitempty"`
}

// Script is a complete XML test script.
//
// A generated script is read-only: scripts from one Generator share
// their declarations, init block and statements, and one script's steps
// share one backing array, as do their statement lists (each capped at
// its own length, so an append never reaches the next step). Copy
// before editing (Fold does).
type Script struct {
	XMLName xml.Name      `xml:"testscript"`
	Name    string        `xml:"name,attr"`
	Version string        `xml:"version,attr"`
	Header  Header        `xml:"header"`
	Decls   []*SignalDecl `xml:"signals>signal"`
	Init    []*SignalStmt `xml:"init>signal"`
	Steps   []*Step       `xml:"step"`
}

// Decl returns the declaration of the named signal, or nil.
func (sc *Script) Decl(name string) *SignalDecl {
	for _, d := range sc.Decls {
		if strings.EqualFold(d.Name, name) {
			return d
		}
	}
	return nil
}

// Duration returns the summed step durations in seconds.
func (sc *Script) Duration() float64 {
	var d float64
	for _, s := range sc.Steps {
		d += s.Dt
	}
	return d
}

// UsedMethods returns the sorted set of methods the script invokes.
func (sc *Script) UsedMethods() []string {
	set := map[string]bool{}
	for _, st := range sc.Init {
		set[st.Call.Method] = true
	}
	for _, step := range sc.Steps {
		for _, st := range step.Signals {
			set[st.Call.Method] = true
		}
	}
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// ------------------------------------------------------------ generation --

// Generate builds the XML script for one test case — the paper's
// "automatic generation of code that can be interpreted by any test
// stand". All signal and status information is resolved against the
// sheets; statuses become method statements.
func Generate(tc *testdef.TestCase, sigs *sigdef.List, tbl *status.Table) (*Script, error) {
	return NewGenerator(sigs, tbl).Generate(tc)
}

// GenerateAll generates one script per test case against shared sheets.
func GenerateAll(cases []*testdef.TestCase, sigs *sigdef.List, tbl *status.Table) ([]*Script, error) {
	g := NewGenerator(sigs, tbl)
	out := make([]*Script, 0, len(cases))
	for _, tc := range cases {
		sc, err := g.Generate(tc)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// Generator generates scripts against one signal list and status table,
// building every piece once: the declarations and the init block on the
// first script, and each (signal, status) statement on its first use.
// In the paper a script is generated from the sheets once and any stand
// runs it; a Generator extends that to the many scripts of a campaign,
// a mutation plan or an exploration, which share most statements.
//
// The signal list must not change once a Generator has generated from
// it. The status table may grow: rows never change once added, so the
// statements memoised for them stay valid. A Generator is not safe for
// concurrent use.
type Generator struct {
	sigs *sigdef.List
	tbl  *status.Table

	built bool // decls and init are set
	decls []*SignalDecl
	init  []*SignalStmt

	stmts map[stmtKey]stmtResult
}

type stmtKey struct {
	sig *sigdef.Signal
	st  *status.Status
}

type stmtResult struct {
	stmt *SignalStmt
	err  error
}

// NewGenerator returns a Generator for the sheets.
func NewGenerator(sigs *sigdef.List, tbl *status.Table) *Generator {
	return &Generator{sigs: sigs, tbl: tbl, stmts: map[stmtKey]stmtResult{}}
}

// Generate builds the XML script for one test case. Its declarations,
// init block and statements are shared with the Generator's other
// scripts, and its steps and their statement lists each live in one
// array of the script's own (see Script).
func (g *Generator) Generate(tc *testdef.TestCase) (*Script, error) {
	if err := tc.Validate(g.sigs, g.tbl); err != nil {
		return nil, fmt.Errorf("script: %v", err)
	}
	if !g.built {
		if err := g.build(); err != nil {
			return nil, err
		}
	}
	// One array holds the script's steps and one its step statements;
	// each step's statements are capped at their own length.
	n := 0
	for _, step := range tc.Steps {
		n += len(step.Assign)
	}
	steps := make([]Step, len(tc.Steps))
	stmts := make([]*SignalStmt, 0, n)
	sc := &Script{
		Name:    tc.Name,
		Version: Version,
		Header:  Header{Generator: "comptest"},
		Decls:   g.decls[:len(g.decls):len(g.decls)],
		Init:    g.init[:len(g.init):len(g.init)],
		Steps:   make([]*Step, len(tc.Steps)),
	}
	for i, step := range tc.Steps {
		from := len(stmts)
		for _, a := range step.Assign {
			sig, _ := g.sigs.Lookup(a.Signal)
			st, ok := g.tbl.Lookup(a.Status)
			if !ok {
				return nil, fmt.Errorf("script: step %d: unknown status %q", step.Index, a.Status)
			}
			stmt, err := g.stmt(sig, st)
			if err != nil {
				return nil, fmt.Errorf("script: step %d: %v", step.Index, err)
			}
			stmts = append(stmts, stmt)
		}
		out := &steps[i]
		out.Nr, out.Dt, out.Remark = step.Index, step.Dt, step.Remark
		if len(stmts) > from {
			out.Signals = stmts[from:len(stmts):len(stmts)]
		}
		sc.Steps[i] = out
	}
	return sc, nil
}

// build generates the declarations and the init block. A failure is
// not kept: the table may yet gain the missing status.
func (g *Generator) build() error {
	var decls []*SignalDecl
	var init []*SignalStmt
	for _, sig := range g.sigs.Signals() {
		decl := &SignalDecl{
			Name:      canonical(sig.Name),
			Direction: sig.Direction.String(),
			Class:     sig.Class.String(),
			Pin:       sig.Pin,
			PinRet:    sig.PinRet,
			Message:   sig.Message,
			StartBit:  sig.StartBit,
			Length:    sig.Length,
		}
		if sig.Class == sigdef.CANSignal && sig.ByteOrder == canbus.Motorola {
			decl.ByteOrder = sig.ByteOrder.String()
		}
		decls = append(decls, decl)
		// The init block realises the signal definition sheet's "status of
		// these signals before starting the test itself". Only stimuli are
		// applied before step 0; initial measurement statuses document the
		// expected idle state and are checked by step 0 if the test
		// assigns them.
		if strings.TrimSpace(sig.Init) == "" {
			continue
		}
		st, ok := g.tbl.Lookup(sig.Init)
		if !ok {
			return fmt.Errorf("script: signal %q: unknown initial status %q", sig.Name, sig.Init)
		}
		if !st.Desc.IsStimulus() {
			continue
		}
		stmt, err := g.stmt(sig, st)
		if err != nil {
			return err
		}
		init = append(init, stmt)
	}
	g.decls, g.init, g.built = decls, init, true
	return nil
}

// stmt returns the memoised statement, or error, for sig in status st.
func (g *Generator) stmt(sig *sigdef.Signal, st *status.Status) (*SignalStmt, error) {
	k := stmtKey{sig, st}
	r, ok := g.stmts[k]
	if !ok {
		r.stmt, r.err = stmtFor(sig, st)
		g.stmts[k] = r
	}
	return r.stmt, r.err
}

func stmtFor(sig *sigdef.Signal, st *status.Status) (*SignalStmt, error) {
	attrs, err := st.MethodCallAttrs()
	if err != nil {
		return nil, err
	}
	return &SignalStmt{
		Name: canonical(sig.Name),
		Call: MethodCall{Method: st.Desc.Name, Attrs: attrs},
	}, nil
}

// canonical lowercases signal names for the XML, following the paper's
// example ("int_ill" for signal INT_ILL).
func canonical(name string) string { return strings.ToLower(name) }

// ------------------------------------------------------------- encoding --

// Encode writes the script as indented XML.
func Encode(w io.Writer, sc *Script) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	e := xml.NewEncoder(w)
	e.Indent("", "  ")
	if err := e.Encode(sc); err != nil {
		return err
	}
	if err := e.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// EncodeString renders the script as an XML string.
func EncodeString(sc *Script) (string, error) {
	var b strings.Builder
	if err := Encode(&b, sc); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Decode parses an XML test script.
func Decode(r io.Reader) (*Script, error) {
	var sc Script
	if err := xml.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("script: decode: %v", err)
	}
	return &sc, nil
}

// DecodeString parses an XML test script held in a string.
func DecodeString(s string) (*Script, error) {
	return Decode(strings.NewReader(s))
}

// ------------------------------------------------------------ validation --

// Validate checks a (possibly externally produced) script against a
// method registry: version supported, declarations complete and
// consistent, every statement's method known, its attributes valid, and
// every referenced signal declared.
func Validate(sc *Script, reg *method.Registry) error {
	if sc.Version != Version {
		return fmt.Errorf("script %q: unsupported version %q", sc.Name, sc.Version)
	}
	if sc.Name == "" {
		return fmt.Errorf("script: missing name")
	}
	if len(sc.Decls) == 0 {
		return fmt.Errorf("script %q: no signal declarations", sc.Name)
	}
	seen := map[string]bool{}
	for _, d := range sc.Decls {
		key := strings.ToLower(d.Name)
		if seen[key] {
			return fmt.Errorf("script %q: duplicate signal declaration %q", sc.Name, d.Name)
		}
		seen[key] = true
		if _, err := sigdef.ParseDirection(d.Direction); err != nil {
			return fmt.Errorf("script %q: signal %q: %v", sc.Name, d.Name, err)
		}
		cls, err := sigdef.ParseClass(d.Class)
		if err != nil {
			return fmt.Errorf("script %q: signal %q: %v", sc.Name, d.Name, err)
		}
		if cls.Electrical() && d.Pin == "" {
			return fmt.Errorf("script %q: electrical signal %q lacks a pin", sc.Name, d.Name)
		}
		if cls == sigdef.CANSignal && (d.Message == "" || d.Length <= 0) {
			return fmt.Errorf("script %q: CAN signal %q lacks message/length", sc.Name, d.Name)
		}
		if _, err := canbus.ParseByteOrder(d.ByteOrder); err != nil {
			return fmt.Errorf("script %q: signal %q: %v", sc.Name, d.Name, err)
		}
	}
	runTime := 0.0 // step durations plus numeric waits, in seconds
	// check validates one statement of the init block (step nil) or of
	// a step; the place is spelled out only in an error.
	check := func(step *Step, st *SignalStmt) error {
		where := func() string {
			if step == nil {
				return "init"
			}
			return "step " + strconv.Itoa(step.Nr)
		}
		if sc.Decl(st.Name) == nil {
			return fmt.Errorf("script %q: %s: undeclared signal %q", sc.Name, where(), st.Name)
		}
		d, ok := reg.Lookup(st.Call.Method)
		if !ok {
			return fmt.Errorf("script %q: %s: unknown method %q", sc.Name, where(), st.Call.Method)
		}
		if err := d.ValidateAttrs(st.Call.Attrs); err != nil {
			return fmt.Errorf("script %q: %s: signal %q: %v", sc.Name, where(), st.Name, err)
		}
		// Numeric attributes must at least parse as number or expression.
		for _, a := range d.Attrs {
			v, present := st.Call.Attrs[a.Name]
			if !present || a.Kind != method.Numeric {
				continue
			}
			if f, ok := unit.Number(v); ok {
				// A control statement's number is a wait the stand adds to
				// the step; the clock only runs forward.
				if d.Kind == method.Control {
					if !(f >= 0 && f <= math.MaxFloat64) {
						return fmt.Errorf("script %q: %s: signal %q: attribute %s: %v is negative or not finite",
							sc.Name, where(), st.Name, a.Name, f)
					}
					runTime += f
				}
				continue
			}
			if _, err := expr.Compile(v); err != nil {
				return fmt.Errorf("script %q: %s: signal %q: attribute %s: %v", sc.Name, where(), st.Name, a.Name, err)
			}
		}
		return nil
	}
	for _, st := range sc.Init {
		if err := check(nil, st); err != nil {
			return err
		}
	}
	for _, step := range sc.Steps {
		if step.Dt <= 0 {
			return fmt.Errorf("script %q: step %d: non-positive dt %v", sc.Name, step.Nr, step.Dt)
		}
		if !(step.Dt <= math.MaxFloat64) {
			return fmt.Errorf("script %q: step %d: non-finite dt %v", sc.Name, step.Nr, step.Dt)
		}
		runTime += step.Dt
		for _, st := range step.Signals {
			if err := check(step, st); err != nil {
				return err
			}
		}
	}
	if runTime > maxRunTime {
		return fmt.Errorf("script %q: runs %vs, longer than the %vs a stand clock can hold", sc.Name, runTime, maxRunTime)
	}
	return nil
}

// maxRunTime bounds the simulated seconds of one script: its step
// durations plus its numeric waits. It keeps every step end of a run
// well inside the nanosecond clock of a stand (about 292 years).
const maxRunTime = 100 * 365 * 24 * 3600.0
