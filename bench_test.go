// Benchmark harness: one benchmark per table/figure/claim of the paper
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for the
// recorded results), plus the ablation benchmarks of DESIGN.md §5.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/comptest"
	"repro/comptest/dist"
	"repro/comptest/explore"
	"repro/comptest/mutation"
	"repro/comptest/serve"
	"repro/internal/alloc"
	"repro/internal/analog"
	"repro/internal/ecu"
	"repro/internal/expr"
	"repro/internal/lint"
	"repro/internal/method"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/script"
	"repro/internal/sheet"
	"repro/internal/stand"
	"repro/internal/status"
	"repro/internal/topology"
	"repro/internal/workbooks"
)

// mustSuite loads a workbook or aborts the benchmark.
func mustSuite(b *testing.B, workbook string) *comptest.Suite {
	b.Helper()
	s, err := comptest.LoadSuiteString(workbook)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func mustScript(b *testing.B, workbook, name string) *script.Script {
	b.Helper()
	sc, err := mustSuite(b, workbook).GenerateScript(name)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func paperStand(b *testing.B, dut ecu.ECU) *stand.Stand {
	b.Helper()
	reg := method.Builtin()
	cfg, err := stand.PaperConfig(reg)
	if err != nil {
		b.Fatal(err)
	}
	st, err := stand.New(cfg, reg)
	if err != nil {
		b.Fatal(err)
	}
	if dut != nil {
		if err := st.AttachDUT(dut); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// --------------------------------------------------------- T1 (Table 1) --

// BenchmarkT1TestExecution executes the paper's 10-step interior
// illumination test table (309 simulated seconds) end-to-end on the
// paper's stand against the requirement model.
func BenchmarkT1TestExecution(b *testing.B) {
	sc := mustScript(b, paper.Workbook, "InteriorIllumination")
	st := paperStand(b, ecu.NewInteriorLight())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := st.RunContext(context.Background(), sc)
		if !rep.Passed() {
			b.Fatal("paper test failed")
		}
	}
}

// BenchmarkT1Generation measures sheets → XML script generation.
func BenchmarkT1Generation(b *testing.B) {
	suite := mustSuite(b, paper.Workbook)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.GenerateScript("InteriorIllumination"); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------- T2 (Table 2) --

// BenchmarkT2StatusResolve parses the paper's status table and resolves
// every status into its method-call attributes (the Table 2 → XML
// transformation).
func BenchmarkT2StatusResolve(b *testing.B) {
	wb, err := sheet.ReadWorkbookString(paper.StatusSheet)
	if err != nil {
		b.Fatal(err)
	}
	reg := method.Builtin()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := status.ParseSheet(wb.Sheet("StatusDefinition"), reg)
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range tbl.Statuses() {
			if _, err := st.MethodCallAttrs(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --------------------------------------------------------- T3 (Table 3) --

// BenchmarkT3CatalogCheck parses the paper's resource table and performs
// the range checks of every (status, resource) pair.
func BenchmarkT3CatalogCheck(b *testing.B) {
	wb, err := sheet.ReadWorkbookString(paper.ResourceSheet)
	if err != nil {
		b.Fatal(err)
	}
	reg := method.Builtin()
	env := expr.MapEnv{"ubatt": 12}
	eval := func(v string) (float64, error) { return resource.EvalNumber(v, env) }
	attrSets := []struct {
		m     string
		attrs map[string]string
	}{
		{"get_u", map[string]string{"u_min": "(0.7*ubatt)", "u_max": "(1.1*ubatt)"}},
		{"put_r", map[string]string{"r": "5000"}},
		{"put_r", map[string]string{"r": "500000"}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat, err := resource.ParseSheet(wb.Sheet("Resources"), reg)
		if err != nil {
			b.Fatal(err)
		}
		for _, as := range attrSets {
			d, _ := reg.Lookup(as.m)
			for _, r := range cat.Candidates(as.m) {
				cap, _ := r.Supports(as.m)
				_ = cap.CheckAttrs(d, as.attrs, eval)
			}
		}
	}
}

// --------------------------------------------------------- T4 (Table 4) --

// BenchmarkT4Routing parses the paper's connection matrix and answers
// every reachable and unreachable (resource, pin) routing query.
func BenchmarkT4Routing(b *testing.B) {
	wb, err := sheet.ReadWorkbookString(paper.ConnectionSheet)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := topology.ParseSheet(wb.Sheet("Connections"))
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range m.Resources() {
			for _, pin := range m.Pins() {
				m.Route(res, pin)
			}
		}
	}
}

// -------------------------------------------------------- F1 (Figure 1) --

// BenchmarkF1CircuitBuild constructs the complete simulated test circuit
// of the paper's figure: battery, DVM, two decades, switch/mux network,
// interior-light ECU — and solves the initial operating point.
func BenchmarkF1CircuitBuild(b *testing.B) {
	reg := method.Builtin()
	cfg, err := stand.PaperConfig(reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := stand.New(cfg, reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := st.AttachDUT(ecu.NewInteriorLight()); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------- C1 (claim 1) --

// BenchmarkC1CrossStand computes the cross-stand reuse matrix for all
// three project workbooks over the three stand profiles.
func BenchmarkC1CrossStand(b *testing.B) {
	var scripts []*script.Script
	var h stand.Harness
	for _, wbk := range []string{paper.Workbook, workbooks.CentralLocking, workbooks.WindowLifter} {
		scs, err := mustSuite(b, wbk).GenerateScripts()
		if err != nil {
			b.Fatal(err)
		}
		scripts = append(scripts, scs...)
		for _, sc := range scs {
			hh := stand.HarnessFromScript(sc)
			h.Forward = append(h.Forward, hh.Forward...)
			h.Return = append(h.Return, hh.Return...)
		}
	}
	h = dedupeHarness(h)
	cfgs, err := stand.Profiles(method.Builtin(), h)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comptest.AnalyzeReuse(scripts, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func dedupeHarness(h stand.Harness) stand.Harness {
	dd := func(in []string) []string {
		seen := map[string]bool{}
		var out []string
		for _, p := range in {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
		return out
	}
	return stand.Harness{Forward: dd(h.Forward), Return: dd(h.Return)}
}

// --------------------------------------------------------- C2 (claim 2) --

// BenchmarkC2TwoECUs runs the full regression of two complete ECU
// workbooks (interior light on the paper stand, central locking on a
// full lab) — the paper's "successfully applied to two ECUs".
func BenchmarkC2TwoECUs(b *testing.B) {
	reg := method.Builtin()
	ilScript := mustScript(b, paper.Workbook, "InteriorIllumination")
	clSuite := mustSuite(b, workbooks.CentralLocking)
	clScripts, err := clSuite.GenerateScripts()
	if err != nil {
		b.Fatal(err)
	}
	clCfg, err := stand.FullLab(reg, stand.HarnessFromScript(clScripts[0]))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ilStand := paperStand(b, ecu.NewInteriorLight())
		if !ilStand.RunContext(context.Background(), ilScript).Passed() {
			b.Fatal("interior light regression failed")
		}
		clStand, err := stand.New(clCfg, reg)
		if err != nil {
			b.Fatal(err)
		}
		if err := clStand.AttachDUT(ecu.NewCentralLocking()); err != nil {
			b.Fatal(err)
		}
		for _, sc := range clScripts {
			if !clStand.RunContext(context.Background(), sc).Passed() {
				b.Fatalf("central locking %s failed", sc.Name)
			}
		}
	}
}

// ---------------------------------------------------------- ablation 1 --

// BenchmarkAblationAllocators compares greedy first-fit against the
// backtracking allocator on the paper stand's decade-trap request set
// (greedy fails it, backtracking solves it — see alloc tests).
func BenchmarkAblationAllocators(b *testing.B) {
	reg := method.Builtin()
	cfg, err := stand.PaperConfig(reg)
	if err != nil {
		b.Fatal(err)
	}
	putR, _ := reg.Lookup("put_r")
	reqs := []alloc.Request{
		{Signal: "DS_FR", Method: putR, Attrs: map[string]string{"r": "0"}, Pins: []string{"DS_FR"}},
		{Signal: "DS_FL", Method: putR, Attrs: map[string]string{"r": "500000"}, Pins: []string{"DS_FL"}},
	}
	for _, strat := range []alloc.Strategy{alloc.Greedy, alloc.Backtracking} {
		b.Run(strat.String(), func(b *testing.B) {
			al := &alloc.Allocator{Catalog: cfg.Catalog, Matrix: cfg.Matrix,
				Eval: func(v string) (float64, error) {
					return resource.EvalNumber(v, expr.MapEnv{"ubatt": 12})
				}, Strategy: strat}
			for i := 0; i < b.N; i++ {
				_, _ = al.Allocate(reqs, nil)
			}
		})
	}
}

// ---------------------------------------------------------- ablation 2 --

// BenchmarkAblationExprFolding compares keeping limits symbolic in the
// script (evaluated per check, as the paper does — ubatt is only known on
// the stand) against pre-folding them to constants at generation time.
func BenchmarkAblationExprFolding(b *testing.B) {
	env := expr.MapEnv{"ubatt": 12}
	b.Run("symbolic_compile_each", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := expr.Compile("(1.1*ubatt)")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Eval(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("symbolic_compile_once", func(b *testing.B) {
		e := expr.MustCompile("(1.1*ubatt)")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Eval(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("folded_constant", func(b *testing.B) {
		e := expr.MustCompile("13.2")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Eval(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------- ablation 3 --

// BenchmarkAblationRouting compares per-request linear route search
// (Matrix.Route) against a precomputed closure map.
func BenchmarkAblationRouting(b *testing.B) {
	wb, err := sheet.ReadWorkbookString(paper.ConnectionSheet)
	if err != nil {
		b.Fatal(err)
	}
	m, err := topology.ParseSheet(wb.Sheet("Connections"))
	if err != nil {
		b.Fatal(err)
	}
	queries := [][2]string{}
	for _, res := range m.Resources() {
		for _, pin := range m.Pins() {
			queries = append(queries, [2]string{res, pin})
		}
	}
	b.Run("linear_search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				m.Route(q[0], q[1])
			}
		}
	})
	b.Run("precomputed_closure", func(b *testing.B) {
		closure := map[[2]string]topology.Entry{}
		for _, e := range m.Entries() {
			closure[[2]string{e.Resource, e.Pin}] = e
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				_ = closure[q]
			}
		}
	})
}

// ---------------------------------------------------------- ablation 4 --

// BenchmarkAblationSolver compares a full nodal re-solve per query
// against the dirty-flag cache the network actually uses.
func BenchmarkAblationSolver(b *testing.B) {
	build := func() (*analog.Network, *analog.Resistor) {
		n := analog.NewNetwork()
		ub := n.Node("ubatt")
		n.AddVSource("bat", ub, analog.Ground, 12)
		var dec *analog.Resistor
		for i := 0; i < 8; i++ {
			pin := n.Node(nodeName("pin", i))
			n.AddResistor(nodeName("pull", i), ub, pin, 1000)
			r := n.AddResistor(nodeName("dec", i), pin, analog.Ground, 5000)
			if i == 0 {
				dec = r
			}
		}
		return n, dec
	}
	b.Run("resolve_every_query", func(b *testing.B) {
		n, dec := build()
		for i := 0; i < b.N; i++ {
			// Cycling through more values than the network remembers
			// solutions for makes every query a full re-solve.
			dec.SetOhms(4990 + float64(i%16))
			if _, err := n.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached_solution", func(b *testing.B) {
		n, _ := build()
		if _, err := n.Solve(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := n.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func nodeName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// ------------------------------------------------------------ campaign --

// campaignMatrix builds the full 4-stand × 4-DUT campaign: every script
// of every built-in workbook on every registered stand profile, with the
// matching DUT model attached.
func campaignMatrix(b *testing.B) []comptest.Unit {
	b.Helper()
	var units []comptest.Unit
	for _, dut := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(dut)
		if err != nil {
			b.Fatal(err)
		}
		scripts, err := mustSuite(b, wb).GenerateScripts()
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, comptest.Cross(scripts, comptest.StandNames(), dut)...)
	}
	return units
}

// BenchmarkCampaignMatrix runs the complete 4-stand × 4-DUT execution
// matrix as one campaign at increasing worker-pool bounds. parallel_1 is
// the sequential baseline (one unit after another on one worker);
// the higher bounds demonstrate the near-linear speedup of independent
// units on independent stands.
func BenchmarkCampaignMatrix(b *testing.B) {
	units := campaignMatrix(b)
	var want comptest.Summary
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel_%d", par), func(b *testing.B) {
			r, err := comptest.NewRunner(comptest.WithParallelism(par))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				sum, err := r.Campaign(context.Background(), units)
				if err != nil {
					b.Fatal(err)
				}
				if sum.Errored > 0 || sum.Skipped > 0 {
					b.Fatalf("campaign degraded: %s", sum)
				}
				// Verdict counts must not depend on the worker-pool bound.
				if want.Units == 0 {
					want = sum
				} else if sum != want {
					b.Fatalf("verdicts changed under parallelism: %s != %s", sum, want)
				}
			}
		})
	}
}

// ------------------------------------------------------------ mutation --

// BenchmarkMutationMatrix runs the complete mutation kill matrix of
// every built-in DUT model — all registered faults plus the derived
// script mutants, each against its suite — at increasing worker-pool
// bounds. parallel_1 is the sequential baseline; the kill scores must
// not depend on the bound.
//
// The setup primes per-plan kill statistics from one untimed run —
// exactly what `comptest mutate` does with its .kills.json sidecar —
// so the timed runs execute the production configuration: each
// mutant's scripts ordered most-lethal-first, early kill deciding most
// mutants on their first run.
func BenchmarkMutationMatrix(b *testing.B) {
	plans, err := mutation.EnumerateBuiltin()
	if err != nil {
		b.Fatal(err)
	}
	kills := make(map[*mutation.Plan]*lint.KillMatrix, len(plans))
	for _, p := range plans {
		m, err := mutation.Run(context.Background(), p, mutation.Options{})
		if err != nil {
			b.Fatal(err)
		}
		s := report.Strength{DUTs: []report.DUTStrength{m.Strength(nil)}}
		kills[p] = lint.KillMatrixFromStrength(&s)
	}
	want := map[string]report.Score{}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel_%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range plans {
					m, err := mutation.Run(context.Background(), p,
						mutation.Options{Parallelism: par, KillStats: kills[p]})
					if err != nil {
						b.Fatal(err)
					}
					s := m.Score()
					if s.Total == 0 {
						b.Fatalf("%s: empty kill matrix", p.DUT)
					}
					if w, ok := want[p.DUT]; !ok {
						want[p.DUT] = s
					} else if w != s {
						b.Fatalf("%s: kill score changed under parallelism: %s != %s", p.DUT, s, w)
					}
				}
			}
		})
	}
}

// ------------------------------------------------------ exploration --

// BenchmarkExplore measures coverage-guided scenario exploration
// throughput — generation + traced campaign execution + pinning +
// oracle scoring + shrinking — for a fixed seed and budget at
// increasing worker-pool bounds. The corpus fingerprint must not
// depend on the bound (the exploration determinism guarantee);
// parallel_1 is the sequential baseline.
func BenchmarkExplore(b *testing.B) {
	suite := mustSuite(b, paper.Workbook)
	var want string
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel_%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex, err := explore.New(suite, explore.Options{
					DUT:         "interior_light",
					Seed:        1,
					Budget:      16,
					Parallelism: par,
					Oracle:      []string{"only_fl"},
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := ex.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if res.Corpus.Len() == 0 {
					b.Fatal("exploration produced an empty corpus")
				}
				fp, err := res.Corpus.Fingerprint()
				if err != nil {
					b.Fatal(err)
				}
				if want == "" {
					want = fp
				} else if fp != want {
					b.Fatal("corpus changed under parallelism")
				}
			}
		})
	}
}

// ----------------------------------------------------------- distributed --

// BenchmarkDistributedCampaign measures the coordinator/worker layer
// end to end: the 4-script central-locking campaign submitted over
// HTTP to a dist.Coordinator, sharded one unit per shard across 1, 2
// or 4 local workers, merged and streamed back. The 1-worker fleet is
// the distribution-overhead baseline (wire format + shard round trips
// on one node); wider fleets show the spread. Verdicts must not
// depend on the fleet size.
func BenchmarkDistributedCampaign(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			coord := dist.New(dist.Options{ShardUnits: 1})
			ts := httptest.NewServer(coord.Handler())
			defer func() {
				ts.Close()
				coord.Close()
			}()
			for i := 0; i < workers; i++ {
				w, err := dist.StartWorker(dist.WorkerOptions{
					Coordinator: ts.URL,
					Name:        fmt.Sprintf("bench-%d", i),
					Serve:       serve.Options{Workers: 2},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer w.Close()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
					strings.NewReader(`{"kind":"campaign","workbook_name":"central_locking"}`))
				if err != nil {
					b.Fatal(err)
				}
				var st serve.JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
				if err != nil {
					b.Fatal(err)
				}
				body, err := io.ReadAll(stream.Body)
				stream.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				if n := bytes.Count(body, []byte("\n")); n != 4 {
					b.Fatalf("merged stream has %d lines, want 4", n)
				}
				final, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
				if err != nil {
					b.Fatal(err)
				}
				var fs serve.JobStatus
				err = json.NewDecoder(final.Body).Decode(&fs)
				final.Body.Close()
				if err != nil || fs.Verdict != "green" {
					b.Fatalf("verdict %q under %d workers (%v)", fs.Verdict, workers, err)
				}
			}
		})
	}
}

// ------------------------------------------------------- serialization --

// BenchmarkXMLEncode measures script → XML encoding.
func BenchmarkXMLEncode(b *testing.B) {
	sc := mustScript(b, paper.Workbook, "InteriorIllumination")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := script.EncodeString(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMLDecode measures XML → script parsing (what a stand does
// when it receives a script).
func BenchmarkXMLDecode(b *testing.B) {
	sc := mustScript(b, paper.Workbook, "InteriorIllumination")
	text, err := script.EncodeString(sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := script.DecodeString(text); err != nil {
			b.Fatal(err)
		}
	}
}
