package explore

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/stand"
	"repro/internal/testdef"
)

// Coverage is the behavioural coverage model of an exploration run: a
// set of string keys, each naming one observed behaviour. A candidate
// is novel — and enters the corpus — when it contributes at least one
// key the set has not seen. Key classes:
//
//	stim/<signal>=<status>   a stimulus status applied to an input
//	out/<signal>=<level>     an output level observed (hi/lo, CAN value)
//	trans/<signal>:<a>-><b>  an output transition observed
//	duty/<signal>:<2^k>s     cumulative output high-time reached 2^k s
//	check/<signal>=<status>  a measurement status pinned by promotion
//
// The duty buckets make long-horizon behaviours (thermal budgets,
// timeouts) coverage-visible: two walks with identical transition sets
// but different accumulated on-times land in different buckets.
type Coverage struct {
	keys map[string]struct{}
}

// NewCoverage returns an empty coverage set.
func NewCoverage() *Coverage { return &Coverage{keys: map[string]struct{}{}} }

// Len returns the number of distinct keys seen.
func (c *Coverage) Len() int { return len(c.keys) }

// Missing returns the subset of keys the set has not seen, in input
// order.
func (c *Coverage) Missing(keys []string) []string {
	var out []string
	for _, k := range keys {
		if _, ok := c.keys[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// Merge inserts the keys and returns how many were new.
func (c *Coverage) Merge(keys []string) int {
	n := 0
	for _, k := range keys {
		if _, ok := c.keys[k]; !ok {
			c.keys[k] = struct{}{}
			n++
		}
	}
	return n
}

// Keys returns the sorted key set.
func (c *Coverage) Keys() []string {
	out := make([]string, 0, len(c.keys))
	for k := range c.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// keyer computes the coverage keys of executed candidates (keysOf). It
// belongs to one Explorer and interns every key text it builds, so a
// key seen before costs a map lookup, not a new string; its working set
// and per-signal states are reused between calls.
type keyer struct {
	intern map[string]string
	set    map[string]struct{}
	states map[string]sigState
	buf    []byte
}

// sigState is the trace walk's state of one output signal.
type sigState struct {
	level    level
	high     bool
	at       time.Duration
	highTime time.Duration
}

// level is an output observation as a coverage level: a CAN payload, or
// an electrical signal's binarised level in v (1 = hi). Two levels are
// equal exactly when their tokens (appendLevel) are.
type level struct {
	can bool
	v   uint64
}

func levelOf(o stand.OutputState) level {
	if o.CAN {
		return level{can: true, v: o.Value}
	}
	if o.High {
		return level{v: 1}
	}
	return level{}
}

// appendLevel appends the level's coverage token: the CAN payload in
// decimal, or hi/lo.
func appendLevel(b []byte, l level) []byte {
	switch {
	case l.can:
		return strconv.AppendUint(b, l.v, 10)
	case l.v == 1:
		return append(b, "hi"...)
	}
	return append(b, "lo"...)
}

func newKeyer() *keyer {
	return &keyer{intern: map[string]string{}, set: map[string]struct{}{}, states: map[string]sigState{}}
}

// add inserts the key spelled by b into the working set.
func (k *keyer) add(b []byte) {
	key, ok := k.intern[string(b)]
	if !ok {
		key = string(b)
		k.intern[key] = key
	}
	k.set[key] = struct{}{}
	k.buf = b[:0]
}

// addPair adds "<class>/<signal>=<status>", both lower-cased.
func (k *keyer) addPair(class, signal, status string) {
	b := append(k.buf[:0], class...)
	b = appendLower(append(b, '/'), signal)
	b = appendLower(append(b, '='), status)
	k.add(b)
}

// appendLower appends strings.ToLower(s) to b, without allocating when s
// is ASCII.
func appendLower(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(b, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return b
}

// keysOf computes the sorted, deduplicated coverage keys of one
// executed candidate: its stimulus assignments, the output levels,
// transitions and duty buckets of its trace, and the measurement
// statuses its promotion pinned.
func (k *keyer) keysOf(tc *testdef.TestCase, tr *Trace, promo *Promotion) []string {
	clear(k.set)
	clear(k.states)

	for _, step := range tc.Steps {
		for _, a := range step.Assign {
			k.addPair("stim", a.Signal, a.Status)
		}
	}

	// Per-signal trace walk: levels, transitions, accumulated high time.
	for _, s := range tr.Samples {
		for _, o := range s.Outputs {
			if !o.Valid {
				continue
			}
			lv := levelOf(o)
			st, seeded := k.states[o.Signal]
			// A repeated level adds no key: it was added when the
			// signal first reached it.
			if !seeded || lv != st.level {
				b := append(append(k.buf[:0], "out/"...), o.Signal...)
				k.add(appendLevel(append(b, '='), lv))
			}
			if seeded {
				if st.high {
					st.highTime += s.Now - st.at
				}
				if lv != st.level {
					b := append(append(k.buf[:0], "trans/"...), o.Signal...)
					b = appendLevel(append(b, ':'), st.level)
					k.add(appendLevel(append(b, "->"...), lv))
				}
			}
			st.level, st.high, st.at = lv, !o.CAN && o.High, s.Now
			k.states[o.Signal] = st
		}
	}
	for sig, st := range k.states {
		for n, span := 0, time.Second; span <= st.highTime; n, span = n+1, span*2 {
			b := append(append(k.buf[:0], "duty/"...), sig...)
			b = strconv.AppendInt(append(b, ':'), 1<<n, 10)
			k.add(append(b, 's'))
		}
	}

	if promo != nil {
		for _, step := range promo.Test.Steps {
			for _, a := range step.Assign {
				if promo.IsCheck(a) {
					k.addPair("check", a.Signal, a.Status)
				}
			}
		}
	}

	out := make([]string, 0, len(k.set))
	for key := range k.set {
		out = append(out, key)
	}
	slices.Sort(out)
	return out
}

// containsAll reports whether sorted haystack contains every needle.
func containsAll(haystack, needles []string) bool {
	for _, n := range needles {
		if _, ok := slices.BinarySearch(haystack, n); !ok {
			return false
		}
	}
	return true
}
