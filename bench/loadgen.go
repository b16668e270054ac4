package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/comptest/serve"
)

// plannedJob is one arrival of the open loop.
type plannedJob struct {
	Index  int
	Due    time.Duration // after the loop's start
	Kind   string
	DUT    string
	Trace  bool  // campaign only
	Inline bool  // campaign only: workbook sent inline with a unique comment, a cache miss
	Seed   int64 // explore only
	Tenant string
}

// mixBlock is 200 jobs in the exact proportions of the mix: 70%
// campaign (interior_light 30, central_locking 20, window_lifter 10,
// exterior_light 10), 15% vet, 10% mutate and 5% explore.
func mixBlock() []plannedJob {
	var b []plannedJob
	add := func(n int, kind, dut string) {
		for i := 0; i < n; i++ {
			b = append(b, plannedJob{Kind: kind, DUT: dut})
		}
	}
	add(60, kindCampaign, "interior_light")
	add(40, kindCampaign, "central_locking")
	add(20, kindCampaign, "window_lifter")
	add(20, kindCampaign, "exterior_light")
	add(30, kindVet, "central_locking")
	add(10, kindMutate, "interior_light")
	add(10, kindMutate, "central_locking")
	add(10, kindExplore, "interior_light")
	return b
}

// planJobs lays out n arrivals: due every interval, kinds in seeded
// order block by block, so any stretch of the schedule holds the mix's
// proportions. Of each block's 140 campaign jobs 28 (20%) are traced
// and another 21 (15%) send their workbook inline. Explore jobs take
// the exploration seeds in turn, like explore_paper and for the same
// reason: an exploration's cost depends on its seed.
func planJobs(seed int64, n int) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	var jobs []plannedJob
	for len(jobs) < n {
		block := mixBlock()
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		flags := make([]int, 140)
		for i := range flags[:28] {
			flags[i] = 1
		}
		for i := 28; i < 49; i++ {
			flags[i] = 2
		}
		rng.Shuffle(len(flags), func(i, j int) { flags[i], flags[j] = flags[j], flags[i] })
		c := 0
		for _, j := range block {
			if j.Kind == kindCampaign {
				j.Trace, j.Inline = flags[c] == 1, flags[c] == 2
				c++
			}
			jobs = append(jobs, j)
		}
	}
	jobs = jobs[:n]
	next := cycleStart(seed)
	for i := range jobs {
		jobs[i].Index = i
		jobs[i].Due = time.Duration(i) * interval
		jobs[i].Tenant = fmt.Sprintf("tenant-%d", i%4)
		if jobs[i].Kind == kindExplore {
			jobs[i].Seed = exploreSeeds[next%len(exploreSeeds)]
			next++
		}
	}
	return jobs
}

// outcome is one job as the load generator saw it.
type outcome struct {
	job                   plannedJob
	due, sent             time.Time
	admitted, first, last time.Time // first == last == stream end for a stream without lines
	status                time.Duration
	lines                 int
	shards                *serve.ShardStatus
	rejected              bool // not accepted (429, 503, other non-2xx)
	err                   error
}

// loadgen issues jobs open-loop: each at its due time, whether or not
// earlier ones have completed. Latency is taken from the due time, so a
// stalled generator shows up as latency, and lateness is recorded.
type loadgen struct {
	now        func() time.Time
	sleepUntil func(time.Time)
}

// run issues every job at start+Due, waits for all of them and returns
// their outcomes in job order with the highest number in flight.
func (g loadgen) run(start time.Time, jobs []plannedJob, do func(j plannedJob, due, sent time.Time) outcome) ([]outcome, int) {
	outs := make([]outcome, len(jobs))
	var (
		wg             sync.WaitGroup
		inflight, peak atomic.Int64
	)
	for k, j := range jobs {
		due := start.Add(j.Due)
		g.sleepUntil(due)
		sent := g.now()
		n := inflight.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer inflight.Add(-1)
			outs[k] = do(j, due, sent)
		}()
	}
	wg.Wait()
	return outs, int(peak.Load())
}

// sleepUntil returns at t. The runtime's timers wake a goroutine with
// millisecond granularity (they ride the poller's timeout), which sent
// jobs 0.5 ms late on average — a fifth of a campaign job's latency —
// so the generator sleeps until a millisecond before t and spins the
// rest. Sleeping in nanosleep instead was worse: the thread returning
// from the syscall queues for a processor behind the busy workers.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// tally turns the outcomes into samples and counts. Jobs due inside the
// window are the attempted operations; operations completed inside it
// are what ops_per_s counts, so a growing backlog lowers it.
func tally(r *Round, outs []outcome, warmN int, wStart, wEnd time.Time) {
	var late []float64
	for _, o := range outs {
		late = append(late, ms(o.sent.Sub(o.due)))
		inWindow := o.job.Index >= warmN
		if inWindow {
			r.Attempted++
		}
		if o.err != nil {
			if inWindow {
				r.Failed++
			}
			if o.rejected {
				r.note(o.err)
			} else {
				r.wrong(o.err)
			}
			continue
		}
		if !o.last.Before(wStart) && o.last.Before(wEnd) {
			r.Ops++
		}
		if !inWindow {
			continue
		}
		lat := ms(o.last.Sub(o.due))
		r.sample("op_ms", lat)
		r.sample(o.job.Kind+"_ms", lat)
		if o.lines > 0 {
			r.sample("ttfr_ms", ms(o.first.Sub(o.due)))
		}
	}
	r.set("loadgen.late_ms_p99", "ms", percentile(late, 99))
}
