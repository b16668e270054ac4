package comptest

import (
	"strings"

	"repro/internal/script"
	"repro/internal/stand"
)

// compiledFor returns the compiled form of sc, compiling and caching it
// on first use. It returns nil when the script does not compile; runOn
// then renders the stand's rejection report.
func (r *Runner) compiledFor(sc *script.Script) *script.Compiled {
	r.compileMu.RLock()
	c, ok := r.compiled[sc]
	r.compileMu.RUnlock()
	if ok {
		return c
	}
	c, _ = script.Compile(sc, r.methods)
	r.compileMu.Lock()
	r.compiled[sc] = c
	r.compileMu.Unlock()
	return c
}

// standKey returns the pool key under which a unit's stand can be
// reused, or "" when the unit must not share a stand: a per-unit DUT
// factory binds its DUT to one run, and a Runner-default DUT factory
// makes the DUT identity unnameable. Observers and faults are attached
// per run (runUnit), so they do not split the key.
func (r *Runner) standKey(u Unit) string {
	if r.noPool || u.Factory != nil {
		return ""
	}
	dut := u.DUT
	if dut == "" {
		if r.dutFactory != nil {
			return ""
		}
		dut = r.dutName
	}
	standPart := u.Stand
	if standPart == "" {
		if r.standCfg != nil {
			standPart = "\x01cfg"
		} else {
			standPart = r.standName
		}
	}
	h := stand.HarnessFromScript(u.Script)
	return standPart + "\x00" + dut + "\x00" +
		strings.Join(h.Forward, ",") + "|" + strings.Join(h.Return, ",")
}

// takeStand pops a pooled stand for the key, or nil.
func (r *Runner) takeStand(key string) *stand.Stand {
	if key == "" {
		return nil
	}
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	free := r.pools[key]
	if len(free) == 0 {
		return nil
	}
	st := free[len(free)-1]
	free[len(free)-1] = nil
	r.pools[key] = free[:len(free)-1]
	return st
}

// releaseStand returns a stand to its pool after a run, re-aligned so
// the next run is byte-identical to one on a fresh stand (see
// stand.AlignForReuse). A stand whose DUT carries injected faults that
// cannot be cleared is dropped rather than pooled.
func (r *Runner) releaseStand(key string, st *stand.Stand, faulted bool) {
	if key == "" {
		return
	}
	if faulted {
		cf, ok := st.DUT().(interface{ ClearFaults() })
		if !ok {
			return
		}
		cf.ClearFaults()
	}
	st.AlignForReuse()
	r.poolMu.Lock()
	r.pools[key] = append(r.pools[key], st)
	r.poolMu.Unlock()
}
