package golint

import (
	"testing"

	"repro/internal/goanalysis"
)

// TestAnalyzersOnFixtures runs the whole suite over the committed
// fixture module and compares diagnostics against the `// want`
// expectations embedded in its sources, analysistest-style. The
// fixtures cover the positive and negative space of each analyzer:
// global math/rand vs. injected sources, time.Now and map-range
// printing under //lint:deterministic, run-path functions with and
// without contexts (plus the event.Scheduler.RunUntil allowlist entry), and
// guarded fields accessed with and without their mutex.
func TestAnalyzersOnFixtures(t *testing.T) {
	goanalysis.CheckExpectations(t, "testdata/module", Analyzers(), "./...")
}

// TestAnalyzerMetadata pins the suite's shape: stable order, unique
// names, documentation present.
func TestAnalyzerMetadata(t *testing.T) {
	as := Analyzers()
	if len(as) != 3 {
		t.Fatalf("got %d analyzers, want 3", len(as))
	}
	want := []string{"ctxpath", "guardedfield", "nodeterminism"}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("analyzer %d = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q lacks doc or run function", a.Name)
		}
	}
}
