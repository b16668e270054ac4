package explore

import (
	"sort"
	"strconv"
	"strings"
	"time"

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

// keysOf computes the sorted, deduplicated coverage keys of one
// executed candidate: its stimulus assignments, the output levels,
// transitions and duty buckets of its trace, and the measurement
// statuses its promotion pinned.
func keysOf(tc *testdef.TestCase, tr *Trace, promo *Promotion) []string {
	set := map[string]struct{}{}
	add := func(key string) { set[key] = struct{}{} }

	for _, step := range tc.Steps {
		for _, a := range step.Assign {
			add("stim/" + strings.ToLower(a.Signal) + "=" + strings.ToLower(a.Status))
		}
	}

	// Per-signal trace walk: levels, transitions, accumulated high time.
	type sigState struct {
		seeded   bool
		level    string
		high     bool
		at       time.Duration
		highTime time.Duration
	}
	states := map[string]*sigState{}
	for _, s := range tr.Samples {
		for _, o := range s.Outputs {
			if !o.Valid {
				continue
			}
			level := levelOf(o)
			st := states[o.Signal]
			if st == nil {
				st = &sigState{}
				states[o.Signal] = st
			}
			// A repeated level adds no key: it was added when the
			// signal first reached it.
			if !st.seeded || level != st.level {
				add("out/" + o.Signal + "=" + level)
			}
			if st.seeded {
				if st.high {
					st.highTime += s.Now - st.at
				}
				if level != st.level {
					add("trans/" + o.Signal + ":" + st.level + "->" + level)
				}
			}
			st.seeded, st.level, st.high, st.at = true, level, !o.CAN && o.High, s.Now
		}
	}
	for sig, st := range states {
		for k, span := 0, time.Second; span <= st.highTime; k, span = k+1, span*2 {
			add("duty/" + sig + ":" + strconv.Itoa(1<<k) + "s")
		}
	}

	if promo != nil {
		for _, step := range promo.Test.Steps {
			for _, a := range step.Assign {
				if promo.IsCheck(a) {
					add("check/" + strings.ToLower(a.Signal) + "=" + strings.ToLower(a.Status))
				}
			}
		}
	}

	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// levelOf renders an output observation as a coverage level token.
func levelOf(o stand.OutputState) string {
	if o.CAN {
		return strconv.FormatUint(o.Value, 10)
	}
	if o.High {
		return "hi"
	}
	return "lo"
}

// containsAll reports whether sorted haystack contains every needle.
func containsAll(haystack, needles []string) bool {
	set := make(map[string]struct{}, len(haystack))
	for _, k := range haystack {
		set[k] = struct{}{}
	}
	for _, n := range needles {
		if _, ok := set[n]; !ok {
			return false
		}
	}
	return true
}
