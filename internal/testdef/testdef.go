// Package testdef implements the test definition sheets of the paper's
// tool chain: "The tests themselves are defined in test definition sheets.
// In each test only a certain part of the specification is tested; …
// For each test step status are assigned to one or more signals."
//
// A test definition sheet has the layout of the paper's example:
//
//	test step ; dt  ; IGN_ST ; DS_FL  ; DS_FR ; NIGHT ; INT_ILL ; remarks
//	0         ; 0,5 ; Off    ; Closed ; Closed; 0     ; Lo      ; day: no interior
//	1         ; 0,5 ;        ; Open   ;       ;       ; Lo      ; illumination, if
//	…
//
// The signal columns between "dt" and "remarks" name the signals this test
// exercises; a non-empty cell assigns a status to that signal in that
// step. Stimuli persist across steps until reassigned; measurements are
// checked at the end of every step in which they are assigned.
package testdef

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/unit"
)

// Assignment binds one status to one signal within a step.
type Assignment struct {
	Signal string
	Status string
}

// Step is one row of a test definition sheet.
type Step struct {
	// Index is the step number from the "test step" column.
	Index int
	// Dt is the step duration in seconds. Stimuli are applied at the
	// beginning of the step; after Dt has elapsed the step's measurement
	// assignments are checked.
	Dt float64
	// Assign lists this step's status assignments in column order.
	Assign []Assignment
	// Remark is the free-text remark column.
	Remark string

	// Row is the 1-based sheet row the step was parsed from and Line
	// the 1-based source line of the workbook file (0 for
	// programmatically built steps). The static analyzers use them to
	// anchor findings.
	Row  int
	Line int
}

// Lookup returns the status assigned to the signal in this step, if any.
func (st *Step) Lookup(signal string) (string, bool) {
	for _, a := range st.Assign {
		if strings.EqualFold(a.Signal, signal) {
			return a.Status, true
		}
	}
	return "", false
}

// TestCase is a parsed test definition sheet.
type TestCase struct {
	// Name identifies the test; by convention the sheet is named
	// "Test_<Name>".
	Name string
	// Signals is the ordered list of signal columns the sheet mentions.
	Signals []string
	// Steps is the ordered step list.
	Steps []Step
	// SheetName is the name of the sheet the test was parsed from
	// ("" for programmatically built tests) and HeaderLine the 1-based
	// source line of its header row (0 when unknown).
	SheetName  string
	HeaderLine int
	// sigCol maps lower-cased signal names to their 1-based sheet column.
	sigCol map[string]int
}

// ColumnOf returns the 1-based sheet column of the named signal column,
// or 0 when unknown (programmatically built tests carry no columns).
func (tc *TestCase) ColumnOf(signal string) int {
	return tc.sigCol[strings.ToLower(strings.TrimSpace(signal))]
}

// Clone returns a copy of the test that shares no slice with it: Name,
// Signals, and Steps with their own Assign slices, so editing the
// copy's steps and assignments never reaches tc. The copy's assignments
// share one backing array, each step's capped at its own length, so an
// append to one step never reaches the next. The copy is a
// programmatically built test: it carries no SheetName, HeaderLine or
// signal columns.
func (tc *TestCase) Clone() *TestCase {
	n := 0
	for _, s := range tc.Steps {
		n += len(s.Assign)
	}
	slab := make([]Assignment, 0, n)
	c := &TestCase{
		Name:    tc.Name,
		Signals: append([]string(nil), tc.Signals...),
		Steps:   make([]Step, len(tc.Steps)),
	}
	for i, s := range tc.Steps {
		if len(s.Assign) > 0 {
			from := len(slab)
			slab = append(slab, s.Assign...)
			s.Assign = slab[from:len(slab):len(slab)]
		} else {
			s.Assign = nil
		}
		c.Steps[i] = s
	}
	return c
}

// Duration returns the total nominal duration of the test in seconds.
func (tc *TestCase) Duration() float64 {
	var d float64
	for _, s := range tc.Steps {
		d += s.Dt
	}
	return d
}

// UsedStatuses returns the distinct status names the test assigns, in
// first-use order.
func (tc *TestCase) UsedStatuses() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range tc.Steps {
		for _, a := range s.Assign {
			key := strings.ToLower(a.Status)
			if !seen[key] {
				seen[key] = true
				out = append(out, a.Status)
			}
		}
	}
	return out
}

// Validate cross-checks the test case against the signal list and status
// table: every column signal exists, every assignment is legal for the
// signal's class and direction, and step durations are finite and
// positive.
func (tc *TestCase) Validate(sigs *sigdef.List, tbl *status.Table) error {
	if len(tc.Steps) == 0 {
		return fmt.Errorf("testdef %q: no steps", tc.Name)
	}
	for _, name := range tc.Signals {
		if _, ok := sigs.Lookup(name); !ok {
			return fmt.Errorf("testdef %q: unknown signal %q", tc.Name, name)
		}
	}
	for _, step := range tc.Steps {
		if step.Dt <= 0 {
			return fmt.Errorf("testdef %q step %d: non-positive dt %v", tc.Name, step.Index, step.Dt)
		}
		if !(step.Dt <= math.MaxFloat64) {
			return fmt.Errorf("testdef %q step %d: non-finite dt %v", tc.Name, step.Index, step.Dt)
		}
		for _, a := range step.Assign {
			sig, ok := sigs.Lookup(a.Signal)
			if !ok {
				return fmt.Errorf("testdef %q step %d: unknown signal %q", tc.Name, step.Index, a.Signal)
			}
			if err := sigdef.CheckAssignment(sig, a.Status, tbl); err != nil {
				return fmt.Errorf("testdef %q step %d: %v", tc.Name, step.Index, err)
			}
		}
	}
	return nil
}

// SheetPrefix is the conventional name prefix of test definition sheets.
const SheetPrefix = "Test_"

// ParseSheet reads one test definition sheet. The header row must start
// with a "test step" column and a "dt" column; the trailing "remarks"
// column is optional; everything in between is a signal column.
func ParseSheet(s *sheet.Sheet) (*TestCase, error) {
	if s == nil {
		return nil, fmt.Errorf("testdef: nil sheet")
	}
	if s.NumRows() < 1 {
		return nil, fmt.Errorf("testdef: sheet %q is empty", s.Name)
	}
	header := s.Row(0)
	stepCol, dtCol := -1, -1
	for i, h := range header {
		switch normalizeHeader(h) {
		case "test step", "step", "teststep":
			stepCol = i
		case "dt", "Δt", "delta t", "deltat":
			dtCol = i
		}
	}
	if stepCol < 0 || dtCol < 0 {
		return nil, fmt.Errorf("testdef: sheet %q lacks 'test step'/'dt' columns", s.Name)
	}
	remarksCol := -1
	var signals []string
	sigCols := map[int]string{}
	for i, h := range header {
		if i == stepCol || i == dtCol {
			continue
		}
		name := strings.TrimSpace(h)
		if name == "" {
			continue
		}
		if normalizeHeader(h) == "remarks" || normalizeHeader(h) == "remark" {
			remarksCol = i
			continue
		}
		signals = append(signals, name)
		sigCols[i] = name
	}
	if len(signals) == 0 {
		return nil, fmt.Errorf("testdef: sheet %q has no signal columns", s.Name)
	}

	name := strings.TrimPrefix(s.Name, SheetPrefix)
	tc := &TestCase{Name: name, Signals: signals, SheetName: s.Name, HeaderLine: s.RowLine(0), sigCol: map[string]int{}}
	for i, sig := range sigCols {
		tc.sigCol[strings.ToLower(sig)] = i + 1
	}
	for r := 1; r < s.NumRows(); r++ {
		if s.IsEmptyRow(r) {
			continue
		}
		idxCell := strings.TrimSpace(s.At(r, stepCol))
		idx := len(tc.Steps)
		if idxCell != "" {
			n, err := strconv.Atoi(idxCell)
			if err != nil {
				return nil, fmt.Errorf("testdef: sheet %q row %d: malformed step number %q", s.Name, r+1, idxCell)
			}
			idx = n
		}
		dtCell := s.At(r, dtCol)
		dt, err := unit.ParseNumber(dtCell)
		if err != nil {
			return nil, fmt.Errorf("testdef: sheet %q row %d: dt: %v", s.Name, r+1, err)
		}
		step := Step{Index: idx, Dt: dt, Row: r + 1, Line: s.RowLine(r)}
		if remarksCol >= 0 {
			step.Remark = strings.TrimSpace(s.At(r, remarksCol))
		}
		for i := 0; i < len(header); i++ {
			sigName, isSig := sigCols[i]
			if !isSig {
				continue
			}
			cell := strings.TrimSpace(s.At(r, i))
			if cell == "" {
				continue
			}
			step.Assign = append(step.Assign, Assignment{Signal: sigName, Status: cell})
		}
		tc.Steps = append(tc.Steps, step)
	}
	if len(tc.Steps) == 0 {
		return nil, fmt.Errorf("testdef: sheet %q contains no steps", s.Name)
	}
	for i := 1; i < len(tc.Steps); i++ {
		if tc.Steps[i].Index <= tc.Steps[i-1].Index {
			return nil, fmt.Errorf("testdef: sheet %q: step numbers not strictly increasing (%d after %d)",
				s.Name, tc.Steps[i].Index, tc.Steps[i-1].Index)
		}
	}
	return tc, nil
}

// ParseAll extracts every "Test_*" sheet of the workbook in order.
func ParseAll(wb *sheet.Workbook) ([]*TestCase, error) {
	var out []*TestCase
	for _, s := range wb.SheetsWithPrefix(SheetPrefix) {
		tc, err := ParseSheet(s)
		if err != nil {
			return nil, err
		}
		out = append(out, tc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("testdef: workbook contains no %q sheets", SheetPrefix+"*")
	}
	return out, nil
}

// ToSheet re-emits the test case in the paper's sheet layout.
func (tc *TestCase) ToSheet() *sheet.Sheet {
	s := sheet.NewSheet(SheetPrefix + tc.Name)
	header := append([]string{"test step", "dt"}, tc.Signals...)
	header = append(header, "remarks")
	s.AppendRow(header...)
	for _, step := range tc.Steps {
		row := make([]string, 0, len(header))
		row = append(row, strconv.Itoa(step.Index), unit.FormatNumberDE(step.Dt))
		for _, sig := range tc.Signals {
			st, _ := step.Lookup(sig)
			row = append(row, st)
		}
		row = append(row, step.Remark)
		s.AppendRow(row...)
	}
	return s
}

func normalizeHeader(h string) string {
	return strings.ToLower(strings.TrimSpace(h))
}
