// Multistand measures the paper's headline claim: "The most important
// advantage of this method is independence from the test stand."
//
// One set of XML scripts — the interior illumination, central locking,
// window lifter and exterior light suites — is analysed and EXECUTED
// unchanged on three differently-equipped stand profiles:
//
//	full_lab    relay crossbar, 2 DVMs, counter, supplies (12.0 V)
//	mini_bench  one small DVM + one 200 kΩ decade + CAN      (12.0 V)
//	hil_rack    per-pin stimulus muxes, counter, supply      (13.5 V)
//
// The example prints the static can-run matrix with reuse percentage,
// then actually runs every runnable (suite, stand) pair as ONE
// comptest.Campaign — all units fanned out over a four-worker pool,
// results collected from the sink — and shows that symbolic limits such
// as (1.1*ubatt) adapt to each stand's supply.
//
//	go run ./examples/multistand
package main

import (
	"context"
	"fmt"
	"log"

	"repro/comptest"
	"repro/internal/method"
	"repro/internal/script"
	"repro/internal/stand"
)

// projects maps the DUT registry names to display labels.
var projects = []struct {
	label string
	dut   string
}{
	{"interior light", "interior_light"},
	{"central locking", "central_locking"},
	{"window lifter", "window_lifter"},
	{"exterior light", "exterior_light"},
}

var standNames = []string{"full_lab", "mini_bench", "hil_rack"}

func main() {
	// Compile every workbook once; the plans are the shared knowledge
	// base, each script validated and classified a single time no matter
	// how many stands execute it below.
	var allScripts []*script.Script
	planByDUT := map[string]*comptest.Plan{}
	var harness stand.Harness
	for _, p := range projects {
		wb, err := comptest.BuiltinWorkbook(p.dut)
		if err != nil {
			log.Fatal(err)
		}
		suite, err := comptest.LoadSuiteString(wb)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := comptest.Compile(suite)
		if err != nil {
			log.Fatal(err)
		}
		planByDUT[p.dut] = plan
		allScripts = append(allScripts, plan.Scripts...)
		for _, sc := range plan.Scripts {
			h := stand.HarnessFromScript(sc)
			harness.Forward = mergePins(harness.Forward, h.Forward)
			harness.Return = mergePins(harness.Return, h.Return)
		}
	}

	// One Runner drives both the reuse analysis and the campaign.
	collector := &comptest.Collector{}
	runner, err := comptest.NewRunner(
		comptest.WithParallelism(4),
		comptest.WithSink(collector),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Static reuse matrix over the registry-built stand configs.
	var cfgs []stand.Config
	for _, name := range standNames {
		cfg, err := comptest.BuildStand(name, method.Builtin(), harness)
		if err != nil {
			log.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	m, err := comptest.AnalyzeReuse(allScripts, cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("static can-run matrix (one row per generated script):")
	fmt.Println(m)

	// Dynamic execution: every runnable (script, stand, DUT) unit in one
	// concurrent campaign.
	var units []comptest.Unit
	for _, name := range standNames {
		for _, p := range projects {
			plan := planByDUT[p.dut]
			for _, sc := range plan.Scripts {
				if cell, ok := m.Cell(sc.Name, name); !ok || !cell.Runnable {
					continue
				}
				units = append(units, comptest.Unit{Script: sc,
					Compiled: plan.Compiled(sc), Stand: name, DUT: p.dut})
			}
		}
	}
	sum, err := runner.Campaign(context.Background(), units)
	if err != nil {
		log.Fatal(err)
	}

	// Tally per (stand, project) pair.
	type pair struct{ stand, dut string }
	ran := map[pair]int{}
	passed := map[pair]int{}
	for _, res := range collector.Results() {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		k := pair{res.Unit.Stand, res.Unit.DUT}
		ran[k]++
		if res.Report.Passed() {
			passed[k]++
		}
	}
	fmt.Printf("execution of every runnable (suite, stand) pair — %s:\n", sum)
	for i, name := range standNames {
		for _, p := range projects {
			k := pair{name, p.dut}
			fmt.Printf("  %-10s × %-16s %d/%d scripts pass (ubatt=%.1f V)\n",
				name, p.label, passed[k], ran[k], cfgs[i].UbattVolts)
		}
	}
}

func mergePins(dst, src []string) []string {
	seen := map[string]bool{}
	for _, p := range dst {
		seen[p] = true
	}
	for _, p := range src {
		if !seen[p] {
			seen[p] = true
			dst = append(dst, p)
		}
	}
	return dst
}
