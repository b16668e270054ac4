package comptest

import (
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

// appendStandKey appends the pool key under which a unit's stand can be
// reused to b. Observers and faults are attached per run (runUnit), so
// they do not split the key.
//
// The key is the stand, the DUT and the script's harness (the distinct
// forward pins, then the distinct return pins, in declaration order; see
// stand.HarnessFromScript).
func (r *Runner) appendStandKey(b []byte, u Unit) []byte {
	standName, dut := r.names(u.Stand, u.DUT)
	b = append(b, standName...)
	b = append(b, 0)
	b = append(b, dut...)
	b = append(b, 0)
	b = appendPins(b, u.Script.Decls, func(d *script.SignalDecl) string { return d.Pin })
	b = append(b, '|')
	return appendPins(b, u.Script.Decls, func(d *script.SignalDecl) string { return d.PinRet })
}

// appendPins appends the distinct non-empty pins of decls, comma
// separated, in first-declaration order.
func appendPins(b []byte, decls []*script.SignalDecl, pin func(*script.SignalDecl) string) []byte {
	first := true
next:
	for i, d := range decls {
		p := pin(d)
		if p == "" {
			continue
		}
		for _, prev := range decls[:i] {
			if pin(prev) == p {
				continue next
			}
		}
		if !first {
			b = append(b, ',')
		}
		b = append(b, p...)
		first = false
	}
	return b
}

// takeStand returns the idle stands of the unit's configuration and
// pops one of them, or nil. The list is nil when pooling is off
// (WithoutStandPool). The key is built in a stack buffer, so a
// configuration the Runner has seen costs no allocation.
func (r *Runner) takeStand(u Unit) (*[]*stand.Stand, *stand.Stand) {
	if r.noPool {
		return nil, nil
	}
	var buf [256]byte
	key := r.appendStandKey(buf[:0], u)
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	free := r.pools[string(key)]
	if free == nil {
		free = new([]*stand.Stand)
		r.pools[string(key)] = free
	}
	n := len(*free)
	if n == 0 {
		return free, nil
	}
	st := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return free, st
}

// releaseStand returns a stand to its idle list after a run, re-aligned
// so the next run is byte-identical to one on a fresh stand (see
// stand.AlignForReuse). A stand whose DUT carries injected faults that
// cannot be cleared is dropped rather than pooled.
func (r *Runner) releaseStand(free *[]*stand.Stand, st *stand.Stand, faulted bool) {
	if free == nil {
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
	*free = append(*free, st)
	r.poolMu.Unlock()
}
