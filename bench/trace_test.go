package main

import (
	"testing"
	"time"
)

func TestSelfTimeOfNestedSpans(t *testing.T) {
	// job [0,100): children admit [0,10), stream [40,100) and an event
	// at 50 inside stream; stream has an overlapping pair of children
	// [50,70) and [60,80), which cover 30 ns once, not 40.
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "admit", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "stream", Start: 40, End: 100},
		{ID: 4, Parent: 3, Name: "unit", Start: 50, End: 70},
		{ID: 5, Parent: 3, Name: "unit", Start: 60, End: 80},
		{ID: 6, Parent: 3, Name: "emit", Start: 50, End: 50},
		{ID: 7, Parent: 2, Name: "late", Start: -5, End: 5}, // clipped to its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 30, 2: 5, 3: 30, 4: 20, 5: 20, 6: 0, 7: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	durs, selfs := byName(spans)
	if len(durs["unit"]) != 2 || selfs["stream"][0] != 30 {
		t.Errorf("byName: durs %v, selfs %v", durs, selfs)
	}
}

func TestTracerRecordsNothingWhenNil(t *testing.T) {
	var tr *tracer
	id, end := tr.begin("x", 1, 0)
	end()
	if id != 0 || tr.add("y", 1, 0, time.Now(), time.Now()) != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr = newTracer()
	parent, endParent := tr.begin("op", 7, 0)
	child, endChild := tr.begin("layer", 7, parent)
	endChild()
	endParent()
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != parent || got[1].ID != child || got[0].End < got[1].End {
		t.Errorf("spans %+v", got)
	}
}
