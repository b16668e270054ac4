package comptest

import (
	"fmt"
	"os"

	"repro/internal/method"
	"repro/internal/resource"
	"repro/internal/reuse"
	"repro/internal/script"
	"repro/internal/sheet"
	"repro/internal/sigdef"
	"repro/internal/stand"
	"repro/internal/status"
	"repro/internal/testdef"
	"repro/internal/topology"
)

// Suite is a fully cross-validated test workbook.
type Suite struct {
	Signals  *sigdef.List
	Statuses *status.Table
	Tests    []*testdef.TestCase
	Registry *method.Registry

	// Workbook is the raw workbook the suite was parsed from. The
	// static analyzers use it for suppression directives and source
	// positions.
	Workbook *sheet.Workbook
}

// Sheet names expected in a workbook.
const (
	SignalSheetName = "SignalDefinition"
	StatusSheetName = "StatusDefinition"
)

// LoadSuite parses and cross-validates a workbook: the signal definition
// sheet, the status definition sheet and every "Test_*" sheet.
func LoadSuite(wb *sheet.Workbook) (*Suite, error) {
	reg := method.Builtin()
	sigSheet := wb.Sheet(SignalSheetName)
	if sigSheet == nil {
		return nil, fmt.Errorf("comptest: workbook lacks sheet %q", SignalSheetName)
	}
	statSheet := wb.Sheet(StatusSheetName)
	if statSheet == nil {
		return nil, fmt.Errorf("comptest: workbook lacks sheet %q", StatusSheetName)
	}
	sigs, err := sigdef.ParseSheet(sigSheet)
	if err != nil {
		return nil, err
	}
	tbl, err := status.ParseSheet(statSheet, reg)
	if err != nil {
		return nil, err
	}
	if err := sigs.ValidateAgainst(tbl); err != nil {
		return nil, err
	}
	tests, err := testdef.ParseAll(wb)
	if err != nil {
		return nil, err
	}
	for _, tc := range tests {
		if err := tc.Validate(sigs, tbl); err != nil {
			return nil, err
		}
	}
	return &Suite{Signals: sigs, Statuses: tbl, Tests: tests, Registry: reg, Workbook: wb}, nil
}

// LoadSuiteString parses a workbook held in a string.
func LoadSuiteString(s string) (*Suite, error) {
	wb, err := sheet.ReadWorkbookString(s)
	if err != nil {
		return nil, err
	}
	return LoadSuite(wb)
}

// LoadSuiteFile parses a workbook file.
func LoadSuiteFile(path string) (*Suite, error) {
	wb, err := sheet.ReadWorkbookFile(path)
	if err != nil {
		return nil, err
	}
	return LoadSuite(wb)
}

// Test returns the named test case, or nil.
func (s *Suite) Test(name string) *testdef.TestCase {
	for _, tc := range s.Tests {
		if tc.Name == name {
			return tc
		}
	}
	return nil
}

// GenerateScripts generates one XML script per test case.
func (s *Suite) GenerateScripts() ([]*script.Script, error) {
	return script.GenerateAll(s.Tests, s.Signals, s.Statuses)
}

// GenerateScript generates the script of one named test case.
func (s *Suite) GenerateScript(name string) (*script.Script, error) {
	tc := s.Test(name)
	if tc == nil {
		return nil, fmt.Errorf("comptest: no test case %q", name)
	}
	return script.Generate(tc, s.Signals, s.Statuses)
}

// LoadStandConfig parses a stand workbook ("Resources" + "Connections"
// sheets) into a stand configuration. Runners name stands only through
// the registry, so a loaded stand runs scripts once a RegisterStand
// builder returns it.
func LoadStandConfig(wb *sheet.Workbook, name string, ubattVolts float64) (stand.Config, error) {
	reg := method.Builtin()
	resSheet := wb.Sheet("Resources")
	if resSheet == nil {
		return stand.Config{}, fmt.Errorf("comptest: stand workbook lacks sheet %q", "Resources")
	}
	conSheet := wb.Sheet("Connections")
	if conSheet == nil {
		return stand.Config{}, fmt.Errorf("comptest: stand workbook lacks sheet %q", "Connections")
	}
	cat, err := resource.ParseSheet(resSheet, reg)
	if err != nil {
		return stand.Config{}, err
	}
	m, err := topology.ParseSheet(conSheet)
	if err != nil {
		return stand.Config{}, err
	}
	return stand.Config{Name: name, UbattVolts: ubattVolts, Catalog: cat, Matrix: m}, nil
}

// AnalyzeReuse wraps reuse.Analyze for stand configurations — the
// paper's cross-stand portability matrix.
func AnalyzeReuse(scripts []*script.Script, cfgs []stand.Config) (*reuse.Matrix, error) {
	infos := make([]reuse.StandInfo, len(cfgs))
	for i, c := range cfgs {
		infos[i] = reuse.StandInfo{Name: c.Name, Catalog: c.Catalog}
	}
	return reuse.Analyze(scripts, infos, method.Builtin())
}

// WriteScriptFile generates and writes one script as XML.
func WriteScriptFile(path string, sc *script.Script) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return script.Encode(f, sc)
}
