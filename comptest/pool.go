package comptest

import (
	"sync"

	"repro/internal/method"
	"repro/internal/script"
	"repro/internal/stand"
)

// profiles is the process-wide stand cache: one entry per (stand name,
// harness), holding the shared stand profile and the idle stands built
// from it. The script-to-stand binding — routing, expectations,
// attribute values — is computed once, not once per Runner, job or
// shard, and a built stand serves every later unit of its
// configuration, whichever Runner runs it. Sound because RegisterStand
// and RegisterDUT refuse duplicate names and every profile interprets
// method.Builtin(). Bounded like the memos it holds: a full map is
// flushed, idle stands with their profiles.
var profiles = struct {
	mu sync.RWMutex
	m  map[string]*profileEntry
}{m: map[string]*profileEntry{}}

const maxProfiles = 256

// profileEntry is one configuration of the stand cache. It never holds
// more idle stands than ran on it at the same moment, so the lists need
// no cap.
type profileEntry struct {
	p    *stand.Profile
	mu   sync.Mutex
	idle map[string][]*stand.Stand // by DUT name, "" = empty socket
}

// appendProfileKey appends the key of a stand's profiles entry to b:
// the stand name, then the script's harness — the distinct forward
// pins, then the distinct return pins, in declaration order (see
// stand.HarnessFromScript). Observers, faults and the DUT are attached
// per run (runUnit), so they do not split the key.
func appendProfileKey(b []byte, standName string, sc *script.Script) []byte {
	b = append(append(b, standName...), 0)
	b = appendPins(b, sc.Decls, func(d *script.SignalDecl) string { return d.Pin })
	b = append(b, '|')
	return appendPins(b, sc.Decls, func(d *script.SignalDecl) string { return d.PinRet })
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

// profileFor returns the entry of the named stand built for sc's
// harness, building its profile on first use. The key is built in a
// stack buffer, so a configuration seen before costs no allocation.
func profileFor(standName string, sc *script.Script) (*profileEntry, error) {
	var buf [256]byte
	key := appendProfileKey(buf[:0], standName, sc)
	profiles.mu.RLock()
	e := profiles.m[string(key)]
	profiles.mu.RUnlock()
	if e != nil {
		return e, nil
	}
	reg := method.Builtin()
	cfg, err := BuildStand(standName, reg, stand.HarnessFromScript(sc))
	if err != nil {
		return nil, err
	}
	p, err := stand.NewProfile(cfg, reg)
	if err != nil {
		return nil, err
	}
	profiles.mu.Lock()
	defer profiles.mu.Unlock()
	if prev := profiles.m[string(key)]; prev != nil {
		return prev, nil
	}
	if len(profiles.m) >= maxProfiles {
		clear(profiles.m)
	}
	e = &profileEntry{p: p, idle: map[string][]*stand.Stand{}}
	profiles.m[string(key)] = e
	return e, nil
}

// acquire returns an exclusively owned stand with the named DUT
// attached: an idle one, or a new instance of the entry's profile with
// a new instance of the DUT model. No DUT name means an empty socket.
func (e *profileEntry) acquire(dutName string) (*stand.Stand, error) {
	e.mu.Lock()
	if free := e.idle[dutName]; len(free) > 0 {
		st := free[len(free)-1]
		free[len(free)-1] = nil
		e.idle[dutName] = free[:len(free)-1]
		e.mu.Unlock()
		return st, nil
	}
	e.mu.Unlock()
	st := e.p.New()
	if dutName == "" {
		return st, nil
	}
	dut, err := NewDUT(dutName)
	if err != nil {
		return nil, err
	}
	if err := st.AttachDUT(dut); err != nil {
		return nil, err
	}
	return st, nil
}

// release returns a stand to the entry's idle list after a run,
// re-aligned so the next run is byte-identical to one on a fresh stand
// (see stand.AlignForReuse). A stand whose DUT carries injected faults
// that cannot be cleared is dropped rather than pooled.
func (e *profileEntry) release(dutName string, st *stand.Stand, faulted bool) {
	if faulted {
		cf, ok := st.DUT().(interface{ ClearFaults() })
		if !ok {
			return
		}
		cf.ClearFaults()
	}
	st.AlignForReuse()
	e.mu.Lock()
	e.idle[dutName] = append(e.idle[dutName], st)
	e.mu.Unlock()
}
