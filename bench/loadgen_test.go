package main

import (
	"reflect"
	"testing"
	"time"
)

func TestScheduleIsSeededAndFixed(t *testing.T) {
	a, b := planJobs(7, 450), planJobs(7, 450)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed planned different schedules")
	}
	c := planJobs(8, 450)
	moved := 0
	for i := range a {
		if a[i].Due != c[i].Due || a[i].Tenant != c[i].Tenant {
			t.Fatalf("job %d: due time or tenant depends on the seed", i)
		}
		if a[i].Kind != c[i].Kind || a[i].DUT != c[i].DUT {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the seed does not change the kind order")
	}
	for i, j := range a {
		if j.Index != i || j.Due != time.Duration(i)*interval {
			t.Fatalf("job %d: index %d due %v, want due %v", i, j.Index, j.Due, time.Duration(i)*interval)
		}
		if (j.Kind == kindExplore) != (j.Seed > 0) {
			t.Fatalf("job %d (%s): explore seed %d", i, j.Kind, j.Seed)
		}
	}
	// Every block of 200 holds the mix exactly.
	count := map[string]int{}
	traced, inline := 0, 0
	for _, j := range a[200:400] {
		count[j.Kind+"/"+j.DUT]++
		if j.Trace {
			traced++
		}
		if j.Inline {
			inline++
		}
		if j.Trace && j.Inline || (j.Trace || j.Inline) && j.Kind != kindCampaign {
			t.Fatalf("job %d: trace %v inline %v on a %s job", j.Index, j.Trace, j.Inline, j.Kind)
		}
	}
	want := map[string]int{
		"campaign/interior_light": 60, "campaign/central_locking": 40,
		"campaign/window_lifter": 20, "campaign/exterior_light": 20,
		"vet/central_locking": 30, "mutate/interior_light": 10,
		"mutate/central_locking": 10, "explore/interior_light": 10,
	}
	if !reflect.DeepEqual(count, want) || traced != 28 || inline != 21 {
		t.Errorf("block mix %v traced %d inline %d, want %v traced 28 inline 21", count, traced, inline, want)
	}
}

// TestLatencyFromDueTime drives the generator with a fake clock whose
// sleeps overrun for one job: that job's latency must include the
// overrun, and the overrun must be recorded as lateness.
func TestLatencyFromDueTime(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	clock := base
	g := loadgen{
		now: func() time.Time { return clock },
		sleepUntil: func(t time.Time) {
			clock = t
			if t.Equal(base.Add(2 * interval)) {
				clock = t.Add(7 * time.Millisecond) // the generator wakes late for job 2
			}
		},
	}
	const service = 3 * time.Millisecond
	jobs := planJobs(1, 4)
	outs, peak := g.run(base, jobs, func(j plannedJob, due, sent time.Time) outcome {
		return outcome{job: j, due: due, sent: sent, admitted: sent, first: sent, last: sent.Add(service), lines: 1}
	})
	if peak < 1 {
		t.Errorf("in-flight peak %d", peak)
	}
	r := newRound(roundConfig{workload: "serve_mixed"})
	tally(r, outs, 1, base, base.Add(time.Hour))
	// Job 0 is warm-up; jobs 1..3 are the window.
	if r.Attempted != 3 || r.Ops != 4 {
		t.Fatalf("attempted %d ops %d, want 3 and 4", r.Attempted, r.Ops)
	}
	want := []float64{3, 10, 3}
	for i, got := range r.Samples["op_ms"] {
		if got != want[i] {
			t.Errorf("window job %d latency %v ms, want %v", i+1, got, want[i])
		}
	}
	if late := r.Values["loadgen.late_ms_p99"].V; late < 6 || late > 7 {
		t.Errorf("lateness p99 %v ms, want the 7 ms overrun to dominate", late)
	}
	for _, o := range outs {
		if !o.due.Equal(base.Add(o.job.Due)) {
			t.Errorf("job %d due %v, want start + %v", o.job.Index, o.due, o.job.Due)
		}
	}
}
