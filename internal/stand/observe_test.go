package stand

import (
	"context"
	"testing"
	"time"

	"repro/internal/method"
	"repro/internal/report"
	"repro/internal/script"
)

// nopObserver is attached but keeps nothing.
type nopObserver struct{}

func (nopObserver) RunStarted(*script.Script, float64)                      {}
func (nopObserver) OutputsSampled(time.Duration, int, []OutputState)        {}
func (nopObserver) StepFinished(*script.Step, time.Duration, []OutputState) {}
func (nopObserver) RunFinished(*report.Report)                              {}

// TestObserveOutputsAllocs: on a warm pooled stand, sampling the outputs
// refills the stand's own buffer and allocates nothing.
func TestObserveOutputsAllocs(t *testing.T) {
	s := paperStand(t)
	s.SetObserver(nopObserver{})
	s.RunContext(context.Background(), paperScript(t))
	first := s.observeOutputs()
	if len(first) == 0 {
		t.Fatal("the paper script observes no outputs")
	}
	if got := testing.AllocsPerRun(100, func() { s.observeOutputs() }); got != 0 {
		t.Errorf("warm observeOutputs allocates %v times, want 0", got)
	}
	if again := s.observeOutputs(); &again[0] != &first[0] {
		t.Error("observeOutputs did not reuse the stand's buffer")
	}
}

// TestObservedRunAllocs: a second observed run of the paper script on
// the same stand allocates exactly what an unobserved run does: every
// step restarts the stand's one trace series instead of making a
// Periodic, and samples into the stand's buffer.
func TestObservedRunAllocs(t *testing.T) {
	s := paperStand(t)
	c, err := script.Compile(paperScript(t), method.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		s.AlignForReuse()
		s.RunCompiled(context.Background(), c, RunOptions{})
	}
	s.SetObserver(nopObserver{})
	run()
	series := s.trace
	if series == nil {
		t.Fatal("an observed run made no trace series")
	}
	observed := testing.AllocsPerRun(5, run)
	if s.trace != series {
		t.Error("a later observed run replaced the trace series")
	}
	s.SetObserver(nil)
	run()
	plain := testing.AllocsPerRun(5, run)
	if observed != plain {
		t.Errorf("an observed run allocates %v times, an unobserved one %v; want equal", observed, plain)
	}
}

// TestSamplersReusedAcrossRuns: a get_f measurement re-run on the same
// stand restarts its counter's one sampler series, parked between steps,
// and measures what the first run did.
func TestSamplersReusedAcrossRuns(t *testing.T) {
	reg := method.Builtin()
	sc := pwmScript("50", "50", "45", "55")
	cfg, err := FullLab(reg, HarnessFromScript(sc))
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(cfg, reg)
	first := s.RunContext(context.Background(), sc)
	var sm *sampler
	for _, inst := range s.instruments {
		if inst.sampler != nil {
			if sm != nil {
				t.Fatal("more than one instrument sampled")
			}
			sm = inst.sampler
		}
	}
	if sm == nil {
		t.Fatal("no instrument kept a sampler")
	}
	series, pending := sm.series, s.sched.Pending()
	s.AlignForReuse()
	second := s.RunContext(context.Background(), sc)
	if sm.series != series {
		t.Error("the second run replaced the sampler's series")
	}
	if s.sched.Pending() != pending {
		t.Errorf("%d events queued after the second run, %d after the first", s.sched.Pending(), pending)
	}
	got, want := second.Steps[0].Checks[0], first.Steps[0].Checks[0]
	if got != want || got.Measured != "50.0501 Hz" {
		t.Errorf("second run measured %+v, first %+v", got, want)
	}
}
