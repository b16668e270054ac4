// Package sigdef implements the signal definition sheet of the paper's
// tool chain: "In the signal definition sheet all input and output signals
// of the device under test (DUT) are defined as well as the status of
// these signals before starting the test itself."
//
// A signal has a direction (seen from the DUT: "in" signals are stimulated
// by the test stand, "out" signals are measured), a class (electrical pin
// vs CAN bus signal), the physical pin or CAN packing information, and the
// initial status applied before step 0.
package sigdef

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/canbus"
	"repro/internal/method"
	"repro/internal/sheet"
	"repro/internal/status"
)

// Direction of a signal, seen from the DUT.
type Direction int

const (
	// In signals are DUT inputs: the test stand applies stimuli to them.
	In Direction = iota
	// Out signals are DUT outputs: the test stand measures them.
	Out
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// ParseDirection parses the direction column.
func ParseDirection(s string) (Direction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "in", "input", "i":
		return In, nil
	case "out", "output", "o":
		return Out, nil
	}
	return In, fmt.Errorf("sigdef: unknown direction %q", s)
}

// Class of a signal: how it physically reaches the DUT.
type Class int

const (
	// Analog signals live on an electrical pin with continuous levels.
	Analog Class = iota
	// Digital signals live on an electrical pin with two levels; for
	// routing and measurement they behave like analog pins.
	Digital
	// CANSignal values travel inside CAN frames.
	CANSignal
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Analog:
		return "analog"
	case Digital:
		return "digital"
	case CANSignal:
		return "can"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass parses the class column.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "analog", "a":
		return Analog, nil
	case "digital", "d":
		return Digital, nil
	case "can", "bus":
		return CANSignal, nil
	}
	return Analog, fmt.Errorf("sigdef: unknown class %q", s)
}

// Electrical reports whether the class lives on a physical pin.
func (c Class) Electrical() bool { return c == Analog || c == Digital }

// MethodClass maps the signal class onto the method package's taxonomy.
func (c Class) MethodClass() method.SignalClass {
	if c == CANSignal {
		return method.CAN
	}
	return method.Electrical
}

// Signal is one row of the signal definition sheet.
type Signal struct {
	Name      string
	Direction Direction
	Class     Class

	// Pin is the DUT connector pin for electrical signals (e.g.
	// "INT_ILL_F"). Electrical signals may name a second pin in PinRet
	// (the return line, e.g. "INT_ILL_R"); measurements are taken between
	// Pin and PinRet, or against ground when PinRet is empty.
	Pin    string
	PinRet string

	// Message/StartBit/Length/ByteOrder describe the frame packing of CAN
	// signals. ByteOrder defaults to Intel (little-endian); Motorola
	// (DBC big-endian) is supported for DUTs specified that way.
	Message   string
	StartBit  int
	Length    int
	ByteOrder canbus.ByteOrder

	// Init is the status applied to the signal before step 0.
	Init string

	// Doc is the free-text description column.
	Doc string

	// Row is the 1-based sheet row the signal was parsed from and Line
	// the 1-based source line of the workbook file (0 when the signal
	// was built programmatically). The static analyzers use them to
	// anchor findings.
	Row  int
	Line int
}

// Pins returns the electrical pins the signal touches (0, 1 or 2 names).
func (s *Signal) Pins() []string {
	if !s.Class.Electrical() {
		return nil
	}
	if s.PinRet != "" {
		return []string{s.Pin, s.PinRet}
	}
	return []string{s.Pin}
}

// List is a parsed signal definition sheet.
type List struct {
	byName map[string]*Signal // by lower-cased name
	exact  map[string]*Signal // by the name as added
	order  []string

	// SheetName is the name of the sheet the list was parsed from
	// ("" for programmatically built lists).
	SheetName string
}

// NewList returns an empty signal list.
func NewList() *List { return &List{byName: map[string]*Signal{}, exact: map[string]*Signal{}} }

// Add validates the signal and inserts it.
func (l *List) Add(s *Signal) error {
	name := strings.TrimSpace(s.Name)
	if name == "" {
		return fmt.Errorf("sigdef: signal without name")
	}
	key := strings.ToLower(name)
	if _, dup := l.byName[key]; dup {
		return fmt.Errorf("sigdef: duplicate signal %q", name)
	}
	s.Name = name
	switch {
	case s.Class.Electrical() && strings.TrimSpace(s.Pin) == "":
		return fmt.Errorf("sigdef: electrical signal %q has no pin", name)
	case s.Class == CANSignal:
		if strings.TrimSpace(s.Message) == "" {
			return fmt.Errorf("sigdef: CAN signal %q has no message", name)
		}
		if s.Length <= 0 || s.Length > 64 {
			return fmt.Errorf("sigdef: CAN signal %q has invalid length %d", name, s.Length)
		}
		if err := canbus.CheckSignalRange(s.ByteOrder, s.StartBit, s.Length); err != nil {
			return fmt.Errorf("sigdef: CAN signal %q: %v", name, err)
		}
	}
	l.byName[key] = s
	l.exact[name] = s
	l.order = append(l.order, name)
	return nil
}

// Lookup finds a signal by name (case-insensitive). The spelling the
// signal was added with is found without lower-casing.
func (l *List) Lookup(name string) (*Signal, bool) {
	if s, ok := l.exact[name]; ok {
		return s, true
	}
	s, ok := l.byName[strings.ToLower(strings.TrimSpace(name))]
	return s, ok
}

// Names returns the signal names in sheet order.
func (l *List) Names() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// Signals returns the signals in sheet order.
func (l *List) Signals() []*Signal {
	out := make([]*Signal, 0, len(l.order))
	for _, n := range l.order {
		out = append(out, l.exact[n])
	}
	return out
}

// Len returns the number of signals.
func (l *List) Len() int { return len(l.order) }

// Inputs returns the DUT input signals in sheet order.
func (l *List) Inputs() []*Signal { return l.filter(In) }

// Outputs returns the DUT output signals in sheet order.
func (l *List) Outputs() []*Signal { return l.filter(Out) }

func (l *List) filter(d Direction) []*Signal {
	var out []*Signal
	for _, s := range l.Signals() {
		if s.Direction == d {
			out = append(out, s)
		}
	}
	return out
}

// ValidateAgainst cross-checks the list against a status table: every
// initial status must exist, and its method must fit the signal's class
// and direction (stimulus methods on inputs, measurement methods on
// outputs, CAN methods on CAN signals).
func (l *List) ValidateAgainst(tbl *status.Table) error {
	for _, s := range l.Signals() {
		if strings.TrimSpace(s.Init) == "" {
			continue
		}
		if err := CheckAssignment(s, s.Init, tbl); err != nil {
			return fmt.Errorf("sigdef: initial status of %q: %v", s.Name, err)
		}
	}
	return nil
}

// CheckAssignment verifies that assigning the named status to the signal
// is legal: the status exists, its method's class matches the signal
// class, and the method direction matches the signal direction.
func CheckAssignment(sig *Signal, statusName string, tbl *status.Table) error {
	st, ok := tbl.Lookup(statusName)
	if !ok {
		return fmt.Errorf("unknown status %q", statusName)
	}
	d := st.Desc
	if d.Class != method.AnyClass && d.Class != sig.Class.MethodClass() {
		return fmt.Errorf("status %q uses %s method %s, but signal %q is %s",
			st.Name, d.Class, d.Name, sig.Name, sig.Class)
	}
	switch {
	case d.IsStimulus() && sig.Direction != In:
		return fmt.Errorf("status %q applies stimulus %s, but signal %q is a DUT output",
			st.Name, d.Name, sig.Name)
	case d.IsMeasure() && sig.Direction != Out:
		return fmt.Errorf("status %q measures with %s, but signal %q is a DUT input",
			st.Name, d.Name, sig.Name)
	}
	return nil
}

// ------------------------------------------------------------- sheet I/O --

var headerAliases = map[string][]string{
	"signal":    {"signal", "name"},
	"direction": {"direction", "dir"},
	"class":     {"class", "type"},
	"pin":       {"pin"},
	"pinret":    {"pin return", "pin_ret", "return", "pin2"},
	"message":   {"message", "msg"},
	"startbit":  {"startbit", "start bit", "start"},
	"length":    {"length", "len", "bits"},
	"order":     {"order", "byteorder", "byte order"},
	"init":      {"init", "initial", "init status"},
	"doc":       {"description", "doc", "remarks"},
}

func findColumn(s *sheet.Sheet, key string) int {
	for _, alias := range headerAliases[key] {
		if i := s.HeaderIndex(alias); i >= 0 {
			return i
		}
	}
	return -1
}

// ParseSheet reads a signal definition sheet (first row = headers).
func ParseSheet(s *sheet.Sheet) (*List, error) {
	if s == nil {
		return nil, fmt.Errorf("sigdef: nil sheet")
	}
	cols := map[string]int{}
	for key := range headerAliases {
		cols[key] = findColumn(s, key)
	}
	for _, required := range []string{"signal", "direction", "class"} {
		if cols[required] < 0 {
			return nil, fmt.Errorf("sigdef: sheet %q lacks a %q column", s.Name, required)
		}
	}
	l := NewList()
	l.SheetName = s.Name
	for r := 1; r < s.NumRows(); r++ {
		if s.IsEmptyRow(r) {
			continue
		}
		get := func(key string) string {
			if cols[key] < 0 {
				return ""
			}
			return strings.TrimSpace(s.At(r, cols[key]))
		}
		dir, err := ParseDirection(get("direction"))
		if err != nil {
			return nil, fmt.Errorf("sigdef: sheet %q row %d: %v", s.Name, r+1, err)
		}
		cls, err := ParseClass(get("class"))
		if err != nil {
			return nil, fmt.Errorf("sigdef: sheet %q row %d: %v", s.Name, r+1, err)
		}
		sig := &Signal{
			Name:      get("signal"),
			Direction: dir,
			Class:     cls,
			Row:       r + 1,
			Line:      s.RowLine(r),
			Pin:       get("pin"),
			PinRet:    get("pinret"),
			Message:   get("message"),
			Init:      get("init"),
			Doc:       get("doc"),
		}
		if cls == CANSignal {
			sig.StartBit, err = parseIntCell(get("startbit"), 0)
			if err != nil {
				return nil, fmt.Errorf("sigdef: sheet %q row %d: startbit: %v", s.Name, r+1, err)
			}
			sig.Length, err = parseIntCell(get("length"), 1)
			if err != nil {
				return nil, fmt.Errorf("sigdef: sheet %q row %d: length: %v", s.Name, r+1, err)
			}
			sig.ByteOrder, err = canbus.ParseByteOrder(get("order"))
			if err != nil {
				return nil, fmt.Errorf("sigdef: sheet %q row %d: %v", s.Name, r+1, err)
			}
		}
		if err := l.Add(sig); err != nil {
			return nil, fmt.Errorf("sigdef: sheet %q row %d: %v", s.Name, r+1, err)
		}
	}
	if l.Len() == 0 {
		return nil, fmt.Errorf("sigdef: sheet %q contains no signals", s.Name)
	}
	return l, nil
}

func parseIntCell(c string, def int) (int, error) {
	if c == "" {
		return def, nil
	}
	n, err := strconv.Atoi(c)
	if err != nil {
		return 0, fmt.Errorf("malformed integer %q", c)
	}
	return n, nil
}

// ToSheet re-emits the list as a signal definition sheet.
func (l *List) ToSheet(name string) *sheet.Sheet {
	s := sheet.NewSheet(name)
	s.AppendRow("signal", "direction", "class", "pin", "pin return",
		"message", "startbit", "length", "order", "init", "description")
	for _, sig := range l.Signals() {
		start, length, order := "", "", ""
		if sig.Class == CANSignal {
			start = strconv.Itoa(sig.StartBit)
			length = strconv.Itoa(sig.Length)
			order = sig.ByteOrder.String()
		}
		s.AppendRow(sig.Name, sig.Direction.String(), sig.Class.String(),
			sig.Pin, sig.PinRet, sig.Message, start, length, order, sig.Init, sig.Doc)
	}
	return s
}

// AllPins returns the sorted-by-first-appearance set of electrical pins
// referenced by the list — the DUT side of the connection matrix.
func (l *List) AllPins() []string {
	seen := map[string]bool{}
	var out []string
	for _, sig := range l.Signals() {
		for _, p := range sig.Pins() {
			if p != "" && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}
