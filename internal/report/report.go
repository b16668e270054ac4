// Package report collects and renders the results of a test run: one
// verdict per measurement check, grouped by step, with the stimulus log
// that led there. Writers produce an aligned text table (for engineers),
// CSV (for spreadsheets — fitting, given the tool chain's front end) and
// XML (for archiving next to the test scripts).
//
//lint:deterministic
package report

import (
	"encoding/csv"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Verdict classifies one check.
type Verdict int

const (
	// Pass: the measured value met the expectation.
	Pass Verdict = iota
	// Fail: the measured value violated the expectation.
	Fail
	// Error: the check could not be executed (allocation failure, solver
	// error, missing CAN frame, …).
	Error
	// Skip: the check was not executed (e.g. the run aborted earlier).
	Skip
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Pass:
		return "PASS"
	case Fail:
		return "FAIL"
	case Error:
		return "ERROR"
	case Skip:
		return "SKIP"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Check is one measurement verdict.
type Check struct {
	Signal   string
	Method   string
	Expected string
	Measured string
	Verdict  Verdict
	Detail   string
}

// StepResult groups the events of one test step. Checks and Applied
// are read-only: a stand cuts every step's Checks from one slab per
// report, and Applied is shared with the stand's routing memo and every
// other report of the same step, each a capped slice, so an append
// copies and never reaches another step or report.
type StepResult struct {
	Nr     int
	Dt     float64
	Remark string
	// Applied logs the stimuli of the step in "signal method(attrs) via
	// resource" form.
	Applied []string
	Checks  []Check
}

// Failed reports whether any check of the step failed or errored.
func (s *StepResult) Failed() bool {
	for _, c := range s.Checks {
		if c.Verdict == Fail || c.Verdict == Error {
			return true
		}
	}
	return false
}

// Report is the complete record of one script execution on one stand.
type Report struct {
	Script string
	Stand  string
	DUT    string
	Steps  []StepResult
	// FatalErr is set when the run aborted before completing all steps.
	FatalErr string
}

// Counts tallies the check verdicts.
func (r *Report) Counts() (pass, fail, errs, skip int) {
	for _, s := range r.Steps {
		for _, c := range s.Checks {
			switch c.Verdict {
			case Pass:
				pass++
			case Fail:
				fail++
			case Error:
				errs++
			case Skip:
				skip++
			}
		}
	}
	return
}

// Passed reports whether the run completed with every check passing.
func (r *Report) Passed() bool {
	if r.FatalErr != "" {
		return false
	}
	_, fail, errs, skip := r.Counts()
	return fail == 0 && errs == 0 && skip == 0
}

// Summary renders a one-line result.
func (r *Report) Summary() string {
	pass, fail, errs, skip := r.Counts()
	state := "PASS"
	if !r.Passed() {
		state = "FAIL"
	}
	s := fmt.Sprintf("%s: %s on %s: %d checks: %d pass, %d fail, %d error",
		state, r.Script, r.Stand, pass+fail+errs+skip, pass, fail, errs)
	if skip > 0 {
		s += fmt.Sprintf(", %d skipped", skip)
	}
	if r.FatalErr != "" {
		s += " — aborted: " + r.FatalErr
	}
	return s
}

// FailedSteps returns the step numbers with failing or erroring checks.
func (r *Report) FailedSteps() []int {
	var out []int
	for _, s := range r.Steps {
		if s.Failed() {
			out = append(out, s.Nr)
		}
	}
	return out
}

// --------------------------------------------------------------- writers --

// WriteText renders an aligned, human-readable table.
func WriteText(w io.Writer, r *Report) error {
	var b strings.Builder
	fmt.Fprintf(&b, "Test report: %s\n", r.Script)
	fmt.Fprintf(&b, "Stand: %s   DUT: %s\n", r.Stand, r.DUT)
	b.WriteString(strings.Repeat("-", 72) + "\n")
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "step %-3d dt=%-8s %s\n", s.Nr, trimFloat(s.Dt)+"s", s.Remark)
		for _, a := range s.Applied {
			fmt.Fprintf(&b, "    apply   %s\n", a)
		}
		for _, c := range s.Checks {
			fmt.Fprintf(&b, "    %-5s   %s %s: expected %s, measured %s",
				c.Verdict, c.Signal, c.Method, c.Expected, c.Measured)
			if c.Detail != "" {
				fmt.Fprintf(&b, " (%s)", c.Detail)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString(strings.Repeat("-", 72) + "\n")
	b.WriteString(r.Summary() + "\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// TextString renders the text table into a string.
func TextString(r *Report) string {
	var b strings.Builder
	// strings.Builder writes never fail.
	_ = WriteText(&b, r)
	return b.String()
}

func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteCSV renders one row per check.
func WriteCSV(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"script", "stand", "step", "signal", "method",
		"expected", "measured", "verdict", "detail"}); err != nil {
		return err
	}
	for _, s := range r.Steps {
		for _, c := range s.Checks {
			if err := cw.Write([]string{r.Script, r.Stand, strconv.Itoa(s.Nr),
				c.Signal, c.Method, c.Expected, c.Measured, c.Verdict.String(), c.Detail}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// xml mirror types keep the exported structs free of xml tags.

type xmlCheck struct {
	Signal   string `xml:"signal,attr"`
	Method   string `xml:"method,attr"`
	Expected string `xml:"expected,attr"`
	Measured string `xml:"measured,attr"`
	Verdict  string `xml:"verdict,attr"`
	Detail   string `xml:"detail,attr,omitempty"`
}

type xmlStep struct {
	Nr      int        `xml:"nr,attr"`
	Dt      float64    `xml:"dt,attr"`
	Remark  string     `xml:"remark,attr,omitempty"`
	Applied []string   `xml:"apply"`
	Checks  []xmlCheck `xml:"check"`
}

type xmlReport struct {
	XMLName xml.Name  `xml:"testreport"`
	Script  string    `xml:"script,attr"`
	Stand   string    `xml:"stand,attr"`
	DUT     string    `xml:"dut,attr,omitempty"`
	Fatal   string    `xml:"fatal,attr,omitempty"`
	Summary string    `xml:"summary"`
	Steps   []xmlStep `xml:"step"`
}

// WriteXML renders the report as XML.
func WriteXML(w io.Writer, r *Report) error {
	x := xmlReport{Script: r.Script, Stand: r.Stand, DUT: r.DUT,
		Fatal: r.FatalErr, Summary: r.Summary()}
	for _, s := range r.Steps {
		xs := xmlStep{Nr: s.Nr, Dt: s.Dt, Remark: s.Remark, Applied: s.Applied}
		for _, c := range s.Checks {
			xs.Checks = append(xs.Checks, xmlCheck{Signal: c.Signal, Method: c.Method,
				Expected: c.Expected, Measured: c.Measured,
				Verdict: c.Verdict.String(), Detail: c.Detail})
		}
		x.Steps = append(x.Steps, xs)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	e := xml.NewEncoder(w)
	e.Indent("", "  ")
	if err := e.Encode(x); err != nil {
		return err
	}
	if err := e.Close(); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
