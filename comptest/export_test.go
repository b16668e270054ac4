package comptest

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ecu"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/stand"
)

// ProfileAllocations sums the allocator calls of the shared stand
// profiles built for the named stand, over every harness.
func ProfileAllocations(standName string) uint64 {
	profiles.mu.RLock()
	defer profiles.mu.RUnlock()
	var n uint64
	for k, e := range profiles.m {
		if strings.HasPrefix(k, standName+"\x00") {
			n += e.p.Allocations()
		}
	}
	return n
}

// IdleStands counts the idle stands of the named stand in the stand
// cache, over every harness and DUT.
func IdleStands(standName string) int {
	profiles.mu.RLock()
	defer profiles.mu.RUnlock()
	n := 0
	for k, e := range profiles.m {
		if strings.HasPrefix(k, standName+"\x00") {
			e.mu.Lock()
			for _, free := range e.idle {
				n += len(free)
			}
			e.mu.Unlock()
		}
	}
	return n
}

// RunFresh runs a unit that names its stand as a Runner does, but on a
// stand built outside the stand cache — a profile, an instance and a
// DUT of its own — so that it is the never-run reference a pooled run
// must equal byte for byte.
func RunFresh(ctx context.Context, u Unit) (*report.Report, error) {
	if u.Script == nil {
		u.Script = u.Compiled.Script
	}
	reg := method.Builtin()
	cfg, err := BuildStand(u.Stand, reg, stand.HarnessFromScript(u.Script))
	if err != nil {
		return nil, err
	}
	st, err := stand.New(cfg, reg)
	if err != nil {
		return nil, err
	}
	if u.DUT != "" {
		dut, err := NewDUT(u.DUT)
		if err != nil {
			return nil, err
		}
		if err := st.AttachDUT(dut); err != nil {
			return nil, err
		}
	}
	return runOn(ctx, st, 0, u)
}

// CountingDUT registers interior_light under a name no earlier call
// used, so no stand of it is idle yet, and returns the name with the
// count of stands its instances were attached to: one per stand
// instance built. Stand profiles are shared process-wide, so a counting
// stand builder would count profiles, not instances.
func CountingDUT(t testing.TB) (string, *atomic.Int64) {
	t.Helper()
	name := fmt.Sprintf("counting_interior_light_%d", countingDUTs.Add(1))
	attached := new(atomic.Int64)
	err := RegisterDUT(name, func() ecu.ECU { return countedLight{ecu.NewInteriorLight(), attached} }, paper.Workbook)
	if err != nil {
		t.Fatal(err)
	}
	return name, attached
}

var countingDUTs atomic.Int64

type countedLight struct {
	*ecu.InteriorLight
	attached *atomic.Int64
}

func (l countedLight) Attach(env *ecu.Env) error {
	l.attached.Add(1)
	return l.InteriorLight.Attach(env)
}
