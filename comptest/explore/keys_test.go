package explore

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/comptest"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/script"
	"repro/internal/stand"
	"repro/internal/testdef"
)

// concatKeysOf is the reference for keyer.keysOf: every key built by
// concatenation into a fresh set.
func concatKeysOf(tc *testdef.TestCase, tr *Trace, promo *Promotion) []string {
	set := map[string]struct{}{}
	add := func(key string) { set[key] = struct{}{} }
	for _, step := range tc.Steps {
		for _, a := range step.Assign {
			add("stim/" + strings.ToLower(a.Signal) + "=" + strings.ToLower(a.Status))
		}
	}
	token := func(o stand.OutputState) string {
		if o.CAN {
			return strconv.FormatUint(o.Value, 10)
		}
		if o.High {
			return "hi"
		}
		return "lo"
	}
	type sigState struct {
		seeded, high bool
		level        string
		at, highTime time.Duration
	}
	states := map[string]*sigState{}
	for _, s := range tr.Samples {
		for _, o := range s.Outputs {
			if !o.Valid {
				continue
			}
			level := token(o)
			st := states[o.Signal]
			if st == nil {
				st = &sigState{}
				states[o.Signal] = st
			}
			add("out/" + o.Signal + "=" + level)
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

// TestKeysOfMatchesConcatenation: over every walk of seeds 1–7, the
// interned keys of one Explorer's keyer equal the concatenated
// reference, with and without the walk's promotion.
func TestKeysOfMatchesConcatenation(t *testing.T) {
	ctx := context.Background()
	suite := loadSuite(t, paper.Workbook)
	walks, promoted := 0, 0
	for seed := int64(1); seed <= 7; seed++ {
		opts := interiorOpts()
		opts.Seed = seed
		ex, err := New(suite, opts)
		if err != nil {
			t.Fatal(err)
		}
		for range ex.opts.Budget {
			tc := ex.gen.Next()
			sc, err := ex.scripts.Generate(tc)
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := ex.execTraced(ctx, sc)
			promo, err := ex.pin.pin(tc, tr)
			if err != nil {
				promo = nil
			} else {
				promoted++
			}
			for _, p := range []*Promotion{nil, promo} {
				got, want := ex.keys.keysOf(tc, tr, p), concatKeysOf(tc, tr, p)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d walk %s: keys\n%q\nwant\n%q", seed, tc.Name, got, want)
				}
			}
			walks++
		}
	}
	if walks != 7*16 || promoted == 0 {
		t.Fatalf("compared %d walks, %d promoted", walks, promoted)
	}
}

// sampleCopier records every sample with a copy of its outputs made
// during the callback: the reference a Trace must match.
type sampleCopier struct{ samples []Sample }

func (c *sampleCopier) RunStarted(*script.Script, float64) {}
func (c *sampleCopier) OutputsSampled(now time.Duration, step int, outputs []stand.OutputState) {
	c.samples = append(c.samples, Sample{Now: now, Step: step, Outputs: slices.Clone(outputs)})
}
func (c *sampleCopier) StepFinished(step *script.Step, now time.Duration, outputs []stand.OutputState) {
	c.OutputsSampled(now, step.Nr, outputs)
}
func (c *sampleCopier) RunFinished(*report.Report) {}

// TestPooledTraceEqualsFresh: a Trace recorded on a pooled stand equals
// one recorded on a fresh stand, and both equal the outputs as they were
// during each callback, also after the pooled stand ran another observed
// script: no kept sample points into the stand's output buffer. A Trace
// reused for a second run, as the Explorer reuses one per batch slot
// and one for shrink attempts, equals a fresh one too: nothing of the
// longer first run is left in it.
func TestPooledTraceEqualsFresh(t *testing.T) {
	ctx := context.Background()
	suite := loadSuite(t, paper.Workbook)
	newExplorer := func() *Explorer {
		ex, err := New(suite, interiorOpts())
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	tracedInto := func(ex *Explorer, sc *script.Script, tr *Trace) *sampleCopier {
		c := &sampleCopier{}
		ex.campaign(ctx, []comptest.Unit{ex.unit(sc, stand.MultiObserver(tr, c))})
		return c
	}
	traced := func(ex *Explorer, sc *script.Script) (*Trace, *sampleCopier) {
		tr := &Trace{}
		return tr, tracedInto(ex, sc, tr)
	}
	// Two walks of different lengths, the longer one second.
	pooled := newExplorer()
	var walks [2]*script.Script
	for walks[1] == nil {
		sc, err := pooled.scripts.Generate(pooled.gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case walks[0] == nil:
			walks[0] = sc
		case len(sc.Steps) > len(walks[0].Steps):
			walks[1] = sc
		case len(sc.Steps) < len(walks[0].Steps):
			walks[0], walks[1] = sc, walks[0]
		}
	}

	traced(pooled, walks[1]) // warm the one pooled stand on another walk
	trA, copiedA := traced(pooled, walks[0])
	trB, copiedB := traced(pooled, walks[1])
	slot := &Trace{}
	tracedInto(pooled, walks[1], slot)
	copiedSlot := tracedInto(pooled, walks[0], slot)

	for i, got := range []struct {
		walk   int
		tr     *Trace
		copied *sampleCopier
	}{{0, trA, copiedA}, {1, trB, copiedB}, {0, slot, copiedSlot}} {
		want, _ := traced(newExplorer(), walks[got.walk])
		name := fmt.Sprintf("%s (trace %d)", walks[got.walk].Name, i)
		if len(want.Samples) == 0 {
			t.Fatalf("%s: fresh trace is empty", name)
		}
		if !reflect.DeepEqual(got.tr.Samples, got.copied.samples) {
			t.Errorf("%s: kept samples differ from the outputs seen during the callbacks", name)
		}
		if got.tr.Ubatt != want.Ubatt || !reflect.DeepEqual(got.tr.Samples, want.Samples) ||
			!reflect.DeepEqual(got.tr.stepEnd, want.stepEnd) {
			t.Errorf("%s: trace on the pooled stand differs from a fresh stand's", name)
		}
	}
}
