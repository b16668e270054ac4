package comptest

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ecu"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/stand"
	"repro/internal/workbooks"
)

// StandBuilder produces a stand configuration for a harness (the DUT
// pins the stand must reach). Builders with fixed wiring — such as the
// paper's Table 3+4 stand — may ignore the harness.
type StandBuilder func(reg *method.Registry, h stand.Harness) (stand.Config, error)

// DUTFactory produces a fresh instance of a registered ECU model
// (RegisterDUT). A Runner calls it once per stand it builds, so models
// never share state across concurrent runs.
type DUTFactory func() ecu.ECU

type registries struct {
	mu     sync.RWMutex
	stands map[string]StandBuilder
	duts   map[string]dutEntry
}

type dutEntry struct {
	factory  DUTFactory
	workbook string // built-in workbook text, "" if none
}

var reg = &registries{
	stands: map[string]StandBuilder{},
	duts:   map[string]dutEntry{},
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(RegisterStand("paper_stand", func(r *method.Registry, _ stand.Harness) (stand.Config, error) {
		return stand.PaperConfig(r)
	}))
	must(RegisterStand("full_lab", stand.FullLab))
	must(RegisterStand("mini_bench", stand.MiniBench))
	must(RegisterStand("hil_rack", stand.HILRack))

	must(RegisterDUT("interior_light", func() ecu.ECU { return ecu.NewInteriorLight() }, paper.Workbook))
	must(RegisterDUT("central_locking", func() ecu.ECU { return ecu.NewCentralLocking() }, workbooks.CentralLocking))
	must(RegisterDUT("window_lifter", func() ecu.ECU { return ecu.NewWindowLifter() }, workbooks.WindowLifter))
	must(RegisterDUT("exterior_light", func() ecu.ECU { return ecu.NewExteriorLight() }, workbooks.ExteriorLight))
}

// RegisterStand adds a named stand profile to the process-wide registry.
// Registering an empty name, a nil builder or a duplicate name fails.
func RegisterStand(name string, b StandBuilder) error {
	if name == "" || b == nil {
		return fmt.Errorf("comptest: RegisterStand needs a name and a builder")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.stands[name]; dup {
		return fmt.Errorf("comptest: stand %q already registered", name)
	}
	reg.stands[name] = b
	return nil
}

// StandNames lists the registered stand profiles, sorted.
func StandNames() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	names := make([]string, 0, len(reg.stands))
	for n := range reg.stands {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckStand reports whether name is a registered stand profile, with
// the error WithStand gives when it is not. It is a registry lookup, so
// callers validate a stand name without building a Runner.
func CheckStand(name string) error {
	reg.mu.RLock()
	_, ok := reg.stands[name]
	reg.mu.RUnlock()
	if !ok {
		return fmt.Errorf("comptest: unknown stand %q (have %v)", name, StandNames())
	}
	return nil
}

// dutRegistered reports whether a DUT model name is registered.
func dutRegistered(name string) bool {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	_, ok := reg.duts[name]
	return ok
}

// BuildStand resolves a registered stand profile into a configuration
// for the given harness.
func BuildStand(name string, r *method.Registry, h stand.Harness) (stand.Config, error) {
	reg.mu.RLock()
	b, ok := reg.stands[name]
	reg.mu.RUnlock()
	if !ok {
		return stand.Config{}, fmt.Errorf("comptest: unknown stand %q (have %v)", name, StandNames())
	}
	return b(r, h)
}

// RegisterDUT adds a named ECU model to the process-wide registry.
// workbook, if non-empty, is the model's built-in component-test
// workbook (see BuiltinWorkbook). Registering an empty name, a nil
// factory or a duplicate name fails.
func RegisterDUT(name string, f DUTFactory, workbook string) error {
	if name == "" || f == nil {
		return fmt.Errorf("comptest: RegisterDUT needs a name and a factory")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, dup := reg.duts[name]; dup {
		return fmt.Errorf("comptest: DUT %q already registered", name)
	}
	reg.duts[name] = dutEntry{factory: f, workbook: workbook}
	return nil
}

// DUTNames lists the registered DUT models, sorted.
func DUTNames() []string {
	reg.mu.RLock()
	defer reg.mu.RUnlock()
	names := make([]string, 0, len(reg.duts))
	for n := range reg.duts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewDUT instantiates a fresh copy of a registered ECU model.
func NewDUT(name string) (ecu.ECU, error) {
	reg.mu.RLock()
	e, ok := reg.duts[name]
	reg.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("comptest: unknown DUT %q (have %v)", name, DUTNames())
	}
	return e.factory(), nil
}

// CheckFaults reports whether dut names a registered ECU model that
// supports every named fault, with the error NewDUT or InjectFault
// gives for the first name that does not. Units carry faults by name
// (Unit.Faults), so callers validate them once, up front, and a typo
// fails the submission instead of erroring every unit.
func CheckFaults(dut string, faults ...string) error {
	probe, err := NewDUT(dut)
	if err != nil {
		return err
	}
	for _, f := range faults {
		if err := probe.InjectFault(f); err != nil {
			return err
		}
	}
	return nil
}

// DUTFaults lists the fault injections a registered ECU model supports,
// with requirement attribution (see ecu.FaultInfo).
func DUTFaults(name string) ([]ecu.FaultInfo, error) {
	dut, err := NewDUT(name)
	if err != nil {
		return nil, err
	}
	return ecu.Faults(dut), nil
}

// BuiltinWorkbook returns the built-in workbook text of a registered
// DUT model.
func BuiltinWorkbook(name string) (string, error) {
	reg.mu.RLock()
	e, ok := reg.duts[name]
	reg.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("comptest: unknown DUT %q (have %v)", name, DUTNames())
	}
	if e.workbook == "" {
		return "", fmt.Errorf("comptest: DUT %q has no built-in workbook", name)
	}
	return e.workbook, nil
}
