package lint

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/status"
	"repro/internal/testdef"
)

// Analyzer is one registered lint check, modeled on go/analysis: the
// Name doubles as the stable finding code, Doc describes the defect
// class, Severity is the severity of every finding the analyzer emits.
type Analyzer struct {
	// Name is the stable identifier, e.g. "unused-status". It is the
	// Code of every finding the analyzer reports.
	Name string
	// Doc is a one-paragraph description of what the analyzer flags.
	Doc string
	// Severity classifies the analyzer's findings.
	Severity Severity
	// Run inspects the pass's suite and reports findings on it.
	Run func(*Pass)
}

// limitEnv is one named expression environment measurement limits are
// evaluated against (typically one per stand profile, e.g.
// {"ubatt": 12} for paper_stand).
type limitEnv struct {
	name string
	env  expr.Env
}

// limitEnvs are the environments measurement limits are evaluated
// against: the supply voltage of the standard bench profiles (12 V) and
// of the HIL rack (13.5 V).
var limitEnvs = []limitEnv{
	{name: "ubatt=12", env: expr.MapEnv{"ubatt": 12}},
	{name: "ubatt=13.5", env: expr.MapEnv{"ubatt": 13.5}},
}

// Suite is the analysis input: the cross-validated workbook artefacts
// plus optional context that enables the cross-artifact analyzers.
type Suite struct {
	Signals  *sigdef.List
	Statuses *status.Table
	Tests    []*testdef.TestCase

	// Workbook, when set, enables per-row suppression directives: a
	// cell containing "lint:ignore CODE[,CODE...]" suppresses findings
	// of those codes anchored at the same sheet row.
	Workbook *sheet.Workbook

	// Kills is the saved mutation kill matrix consulted by weak-check
	// (the analyzer is skipped when nil).
	Kills *KillMatrix
}

// Pass carries one analyzer's execution over one suite.
type Pass struct {
	*Suite
	analyzer *Analyzer
	findings []Finding
}

// Reportf records a finding at pos with the analyzer's severity and code.
func (p *Pass) Reportf(pos Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Severity: p.analyzer.Severity,
		Code:     p.analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
		Pos:      pos,
	})
}

// ------------------------------------------------------------ registry --

var registry = map[string]*Analyzer{}

// Register adds an analyzer to the package registry. It panics on a
// duplicate or empty name — registration is an init-time programming
// contract, not a runtime condition.
func Register(a *Analyzer) {
	if a == nil || a.Name == "" {
		panic("lint: Register: analyzer without a name")
	}
	if _, dup := registry[a.Name]; dup {
		panic("lint: Register: duplicate analyzer " + a.Name)
	}
	if a.Run == nil {
		panic("lint: Register: analyzer " + a.Name + " has no Run")
	}
	registry[a.Name] = a
}

// Analyzers returns all registered analyzers sorted by name.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func lookupAnalyzer(name string) *Analyzer {
	a, ok := registry[name]
	if !ok {
		panic("lint: unknown analyzer " + name)
	}
	return a
}

// ----------------------------------------------------------------- run --

// Options selects and filters analyzers for Run.
type Options struct {
	// Analyzers names the analyzers to run (all registered when empty).
	Analyzers []string
	// MinSeverity drops findings below the given severity.
	MinSeverity Severity
}

// Result is the outcome of one Run.
type Result struct {
	// Findings are the surviving findings in position order.
	Findings []Finding
	// Suppressed are findings silenced by lint:ignore directives.
	Suppressed []Finding
}

// MaxSeverity returns the highest severity among the findings, or
// (Info, false) when there are none.
func (r Result) MaxSeverity() (Severity, bool) {
	if len(r.Findings) == 0 {
		return Info, false
	}
	max := Info
	for _, f := range r.Findings {
		if f.Severity > max {
			max = f.Severity
		}
	}
	return max, true
}

// Run executes the selected analyzers over the suite, applies
// suppression directives, and returns the findings sorted by position
// (sheet, row, column, code, message) so output is byte-stable.
func Run(s *Suite, opts Options) (Result, error) {
	var as []*Analyzer
	if len(opts.Analyzers) == 0 {
		as = Analyzers()
	} else {
		for _, name := range opts.Analyzers {
			a, ok := registry[name]
			if !ok {
				return Result{}, fmt.Errorf("lint: unknown analyzer %q", name)
			}
			as = append(as, a)
		}
	}
	var all []Finding
	for _, a := range as {
		p := &Pass{Suite: s, analyzer: a}
		a.Run(p)
		all = append(all, p.findings...)
	}
	sup := suppressions(s.Workbook)
	var res Result
	for _, f := range all {
		if f.Severity < opts.MinSeverity {
			continue
		}
		if sup.covers(f) {
			res.Suppressed = append(res.Suppressed, f)
			continue
		}
		res.Findings = append(res.Findings, f)
	}
	sortFindings(res.Findings)
	sortFindings(res.Suppressed)
	return res, nil
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Sheet != b.Pos.Sheet {
			return a.Pos.Sheet < b.Pos.Sheet
		}
		if a.Pos.Row != b.Pos.Row {
			return a.Pos.Row < b.Pos.Row
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}

// --------------------------------------------------------- suppression --

// IgnoreDirective is the marker a workbook cell uses to silence
// findings on its row: "lint:ignore CODE[,CODE...]".
const IgnoreDirective = "lint:ignore"

type suppressionSet map[string]map[string]bool // sheet "\x00" row -> codes

func suppressionKey(sheetName string, row int) string {
	return strings.ToLower(sheetName) + "\x00" + fmt.Sprint(row)
}

// suppressions scans every cell of the workbook for ignore directives.
func suppressions(wb *sheet.Workbook) suppressionSet {
	if wb == nil {
		return nil
	}
	set := suppressionSet{}
	for _, s := range wb.Sheets {
		for r := range s.Rows {
			for _, cell := range s.Rows[r] {
				i := strings.Index(cell, IgnoreDirective)
				if i < 0 {
					continue
				}
				rest := cell[i+len(IgnoreDirective):]
				// Codes run until the next whitespace-separated word
				// that is not part of the comma list.
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				key := suppressionKey(s.Name, r+1)
				if set[key] == nil {
					set[key] = map[string]bool{}
				}
				for _, code := range strings.Split(fields[0], ",") {
					code = strings.ToLower(strings.TrimSpace(code))
					if code != "" {
						set[key][code] = true
					}
				}
			}
		}
	}
	return set
}

func (s suppressionSet) covers(f Finding) bool {
	if s == nil || f.Pos.Sheet == "" || f.Pos.Row == 0 {
		return false
	}
	codes := s[suppressionKey(f.Pos.Sheet, f.Pos.Row)]
	return codes[strings.ToLower(f.Code)]
}
