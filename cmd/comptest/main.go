// Command comptest is the component-test tool chain of the reproduction:
// it turns test workbooks into test-stand-independent XML scripts, vets
// them, executes them on simulated stands with simulated ECUs, analyses
// cross-stand reuse and regenerates the paper's tables.
//
// Usage:
//
//	comptest gen     -workbook FILE [-test NAME] [-out DIR]
//	comptest vet     [-format text|json|sarif] [-severity S] [-baseline FILE] [-builtins] [WORKBOOK...]
//	comptest run     -workbook FILE [-stand NAME] [-dut NAME] [-parallel N] [-format text|csv|xml|junit|ndjson] [-junit FILE]
//	comptest mutate  [-workbook FILE] [-dut NAME] [-all] [-parallel N] [-format text|json]
//	comptest explore [-dut NAME] [-stand NAME] [-budget N] [-seed N] [-parallel N] [-oracle LIST] [-promote FILE] [-format text|json]
//	comptest serve   [-addr HOST:PORT] [-workers N] [-queue N] [-parallel N] [-workers-remote] [-log-format text|json] [-slo LIST]
//	comptest worker  -join URL [-addr HOST:PORT] [-name NAME] [-log-format text|json]
//	comptest slo     [-url URL] [-objectives LIST] [-format text|json]
//	comptest version
//	comptest reuse   -workbook FILE
//	comptest tables
//
// Stands: paper_stand (Tables 3+4 + CAN adapter), full_lab, mini_bench,
// hil_rack. DUTs: interior_light, central_locking, window_lifter,
// exterior_light.
// Without -workbook, gen/run/reuse/mutate use the paper's built-in
// interior-illumination workbook.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/comptest"
	"repro/comptest/dist"
	"repro/comptest/explore"
	"repro/comptest/mutation"
	"repro/comptest/serve"
	"repro/internal/knowledge"
	"repro/internal/lint"
	"repro/internal/method"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/script"
	"repro/internal/sheet"
	"repro/internal/stand"
	"repro/internal/topology"
	"repro/internal/version"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with the process surface made testable: any error —
// including an unknown subcommand, so CI smoke steps can never pass on
// a typo — exits 1.
func realMain(args []string, out, errw io.Writer) int {
	if err := run(args, out); err != nil {
		// Library errors already carry the "comptest:" package prefix;
		// avoid printing it twice.
		fmt.Fprintln(errw, "comptest:", strings.TrimPrefix(err.Error(), "comptest: "))
		return 1
	}
	return 0
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:], out)
	case "vet":
		return cmdVet(args[1:], out)
	case "run":
		return cmdRun(args[1:], out)
	case "mutate":
		return cmdMutate(args[1:], out)
	case "explore":
		return cmdExplore(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "worker":
		return cmdWorker(args[1:], out)
	case "slo":
		return cmdSLO(args[1:], out)
	case "version":
		fmt.Fprintln(out, version.String())
		return nil
	case "reuse":
		return cmdReuse(args[1:], out)
	case "tables":
		return cmdTables(out)
	case "archive":
		return cmdArchive(args[1:], out)
	case "transfer":
		return cmdTransfer(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	}
	usage(out)
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `comptest — test-stand-independent component testing (DATE 2005 reproduction)

subcommands:
  gen    -workbook FILE [-test NAME] [-out DIR]    generate XML test scripts
  vet    [-format text|json|sarif] [-severity S] [-baseline FILE] [-write-baseline FILE]
         [-killmatrix FILE] [-builtins] [WORKBOOK...]
                                                   static analysis over workbooks; exits
                                                   nonzero on error findings not in the baseline
  run    [-workbook FILE] [-stand NAME] [-dut NAME] [-fault NAME] [-parallel N] [-format text|csv|xml|junit|ndjson] [-junit FILE] [-trace FILE] [-coordinator URL]
  mutate [-workbook FILE] [-dut NAME] [-stand NAME] [-all] [-parallel N] [-format text|json]
         [-kills FILE] [-run-to-completion]
                                                   mutation kill matrix + test-strength report;
                                                   -kills (default <workbook>.kills.json) orders
                                                   each mutant's scripts most-lethal-first and
                                                   is rewritten after the run
  explore [-workbook FILE] [-dut NAME] [-stand NAME] [-budget N] [-seed N] [-parallel N]
          [-oracle FAULTS|survivors] [-promote FILE] [-format text|json]
                                                   coverage-guided scenario exploration
  serve  [-addr HOST:PORT] [-workers N] [-queue N] [-parallel N]
         [-workers-remote] [-shard-units N] [-lease DUR] [-scrape-timeout DUR]
         [-log-format text|json] [-slo LIST]
         [-metrics-addr HOST:PORT] [-debug-addr HOST:PORT]
                                                   campaign-execution service (HTTP JSON job API);
                                                   -workers-remote shards jobs across joined workers;
                                                   /metrics, /healthz and /slo are always on -addr
  worker -join URL [-addr HOST:PORT] [-name NAME] [-workers N] [-parallel N]
         [-log-format text|json] [-debug-addr HOST:PORT]
                                                   execution node for a -workers-remote coordinator
  slo    [-url URL] [-objectives LIST] [-format text|json]
                                                   evaluate a node's (or fleet's) latency SLOs;
                                                   exits nonzero when an objective is violated
  version                                          module + go toolchain version
  reuse  [-workbook FILE]                          cross-stand reuse matrix
  tables                                           regenerate the paper's tables
  archive [-out FILE] [-origin NAME]               archive built-in suites as a knowledge base
  transfer -archive FILE [-stand NAME]             which archived tests run on a stand

stands: `+strings.Join(comptest.StandNames(), ", ")+`
DUTs:   `+strings.Join(comptest.DUTNames(), ", "))
}

// loadWorkbook reads a workbook file, or the built-in one for "".
func loadWorkbook(path, builtin string) (*comptest.Suite, string, error) {
	if path == "" {
		s, err := comptest.LoadSuiteString(builtin)
		return s, "builtin", err
	}
	s, err := comptest.LoadSuiteFile(path)
	return s, path, err
}

// builtinFor maps -dut names to their registered built-in workbooks.
// Unknown names fall back to the paper workbook; cmdRun surfaces the
// bad name itself via its NewDUT probe.
func builtinFor(dut string) string {
	if wb, err := comptest.BuiltinWorkbook(dut); err == nil {
		return wb
	}
	return paper.Workbook
}

func standFor(name string, sc *script.Script, reg *method.Registry) (stand.Config, error) {
	if name == "" {
		name = "paper_stand"
	}
	return comptest.BuildStand(name, reg, stand.HarnessFromScript(sc))
}

func cmdGen(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	workbook := fs.String("workbook", "", "workbook file (default: built-in paper workbook)")
	test := fs.String("test", "", "generate only this test case")
	outDir := fs.String("out", "", "write <test>.xml files here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, _, err := loadWorkbook(*workbook, paper.Workbook)
	if err != nil {
		return err
	}
	var scripts []*script.Script
	if *test != "" {
		sc, err := suite.GenerateScript(*test)
		if err != nil {
			return err
		}
		scripts = []*script.Script{sc}
	} else {
		if scripts, err = suite.GenerateScripts(); err != nil {
			return err
		}
	}
	for _, sc := range scripts {
		if *outDir != "" {
			path := filepath.Join(*outDir, sc.Name+".xml")
			if err := comptest.WriteScriptFile(path, sc); err != nil {
				return err
			}
			fmt.Fprintln(out, "wrote", path)
			continue
		}
		text, err := script.EncodeString(sc)
		if err != nil {
			return err
		}
		fmt.Fprint(out, text)
	}
	return nil
}

// lintSuite assembles the static-analysis input for one loaded suite:
// the cross-validated artefacts plus the raw workbook (suppression
// directives), the saved kill matrix (weak-check) and the default
// stand-profile environments.
func lintSuite(suite *comptest.Suite, path, killmatrix string) *lint.Suite {
	ls := &lint.Suite{
		Signals:  suite.Signals,
		Statuses: suite.Statuses,
		Tests:    suite.Tests,
		Workbook: suite.Workbook,
	}
	// The kill matrix is taken from -killmatrix, or from the sidecar
	// <workbook>.kills.json written by `comptest mutate -format json`.
	if killmatrix == "" && path != "" {
		if sidecar := path + ".kills.json"; fileExists(sidecar) {
			killmatrix = sidecar
		}
	}
	if killmatrix != "" {
		if k, err := lint.ReadKillMatrixFile(killmatrix); err == nil {
			ls.Kills = k
		}
	}
	return ls
}

func fileExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && !st.IsDir()
}

func findingsAtLeast(fs []lint.Finding, min lint.Severity) []lint.Finding {
	var out []lint.Finding
	for _, f := range fs {
		if f.Severity >= min {
			out = append(out, f)
		}
	}
	return out
}

// cmdVet runs the full static-analysis engine over one or more workbook
// files (positional arguments; the built-in paper workbook when none
// are given) and fails on error-severity findings the baseline does not
// cover.
func cmdVet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text|json|sarif")
	severity := fs.String("severity", "info", "minimum severity to report: info|warning|error")
	baseline := fs.String("baseline", "", "baseline file; covered findings are dropped (ratchet)")
	writeBaseline := fs.String("write-baseline", "", "write the surviving findings as a new baseline and exit 0")
	killmatrix := fs.String("killmatrix", "", "mutation strength JSON for weak-check (default: <workbook>.kills.json if present)")
	builtins := fs.Bool("builtins", false, "also vet every registered DUT's built-in workbook")
	if err := fs.Parse(args); err != nil {
		return err
	}
	minSev, err := lint.ParseSeverity(*severity)
	if err != nil {
		return err
	}
	var base *lint.Baseline
	if *baseline != "" {
		if base, err = lint.ReadBaselineFile(*baseline); err != nil {
			return err
		}
	}

	// Targets: the workbook files named on the command line, the
	// built-in paper workbook when nothing is named, and with -builtins
	// every registered DUT's embedded workbook.
	type target struct {
		path string // file path; "" for embedded workbooks
		name string // report label; "" defers to loadWorkbook
		wb   string // embedded workbook text used when path == ""
	}
	var targets []target
	for _, p := range fs.Args() {
		targets = append(targets, target{path: p, wb: paper.Workbook})
	}
	if len(targets) == 0 && !*builtins {
		targets = append(targets, target{wb: paper.Workbook})
	}
	if *builtins {
		for _, dut := range comptest.DUTNames() {
			wb, err := comptest.BuiltinWorkbook(dut)
			if err != nil {
				return err
			}
			targets = append(targets, target{name: "builtin:" + dut, wb: wb})
		}
	}

	rep := &lint.Report{}
	var all []lint.Finding
	for _, tgt := range targets {
		suite, name, err := loadWorkbook(tgt.path, tgt.wb)
		if err != nil {
			return err
		}
		if tgt.name != "" {
			name = tgt.name
		}
		// Every generated script must compile against the method
		// registry; the analyzers below only see the workbook sheets.
		if _, err := comptest.Compile(suite); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res, err := lint.Run(lintSuite(suite, tgt.path, *killmatrix), lint.Options{MinSeverity: minSev})
		if err != nil {
			return err
		}
		findings := res.Findings
		if base != nil {
			findings = base.Apply(findings)
		}
		if findings == nil {
			findings = []lint.Finding{}
		}
		rep.Workbooks = append(rep.Workbooks, lint.WorkbookReport{
			File: name, Findings: findings, Suppressed: len(res.Suppressed),
		})
		all = append(all, findings...)
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(all)
		if err := lint.WriteBaselineFile(*writeBaseline, b); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d entries)\n", *writeBaseline, len(b.Entries))
		return nil
	}

	switch *format {
	case "text":
		if err := lint.WriteText(out, rep); err != nil {
			return err
		}
	case "json":
		if err := lint.WriteJSON(out, rep); err != nil {
			return err
		}
	case "sarif":
		if err := lint.WriteSARIF(out, rep); err != nil {
			return err
		}
	default:
		return fmt.Errorf("vet: unknown format %q (want text, json or sarif)", *format)
	}
	if errs := findingsAtLeast(all, lint.Error); len(errs) > 0 {
		return fmt.Errorf("vet: %d new error finding(s)", len(errs))
	}
	return nil
}

// reportWriter maps a -format name to its report writer.
func reportWriter(format string) (func(io.Writer, *report.Report) error, error) {
	switch format {
	case "text":
		return report.WriteText, nil
	case "csv":
		return report.WriteCSV, nil
	case "xml":
		return report.WriteXML, nil
	case "junit":
		return report.WriteJUnit, nil
	case "ndjson":
		return report.WriteJSON, nil
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workbook := fs.String("workbook", "", "workbook file (default: built-in workbook of the DUT)")
	standName := fs.String("stand", "paper_stand", "stand profile")
	dutName := fs.String("dut", "interior_light", "DUT model")
	fault := fs.String("fault", "", "inject a named fault into the DUT")
	parallel := fs.Int("parallel", 1, "run up to N scripts concurrently, each on its own stand instance")
	format := fs.String("format", "text", "report format: text, csv, xml, junit or ndjson")
	junitPath := fs.String("junit", "", "also write the campaign as one JUnit <testsuites> file")
	tracePath := fs.String("trace", "", "write the campaign trace to FILE as NDJSON spans (campaign → unit → step, byte-stable across reruns)")
	coordinator := fs.String("coordinator", "", "submit the campaign to this coordinator/serve URL instead of executing locally")
	tenant := fs.String("tenant", "", "quota account the job bills to on the remote server (with -coordinator)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	write, err := reportWriter(*format)
	if err != nil {
		return err
	}
	if *coordinator != "" {
		var faults []string
		if *fault != "" {
			faults = []string{*fault}
		}
		return runRemote(*coordinator, *workbook, *standName, *dutName, *tenant, faults, *parallel, write, *junitPath, *tracePath, out)
	}
	if *tenant != "" {
		return fmt.Errorf("run: -tenant only applies with -coordinator (local runs have no quota account)")
	}
	suite, _, err := loadWorkbook(*workbook, builtinFor(*dutName))
	if err != nil {
		return err
	}
	// Compile once: the plan carries every script's validated,
	// classified form, and each unit executes through it.
	plan, err := comptest.Compile(suite)
	if err != nil {
		return err
	}
	// DUT name and fault are validated once, up front; the units then
	// carry them by name (stands stay poolable across units).
	var faults []string
	if *fault != "" {
		faults = []string{*fault}
	}
	if err := comptest.CheckFaults(*dutName, faults...); err != nil {
		return err
	}
	// Reports are streamed in script order even when -parallel reorders
	// completion. The first write failure cancels the campaign so the
	// remaining scripts are not simulated for output nobody receives.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var writeErr error
	var reports []*report.Report // in Seq order, for -junit
	sink := comptest.Ordered(comptest.SinkFunc(func(res comptest.Result) {
		// Completed reports are always recorded: the -junit file must
		// cover everything that ran, even after an output-write error
		// stops the streamed rendering.
		if res.Err == nil {
			reports = append(reports, res.Report)
		}
		if writeErr != nil {
			return
		}
		if res.Err != nil {
			writeErr = res.Err
		} else {
			writeErr = write(out, res.Report)
		}
		if writeErr != nil {
			cancel()
		}
	}))
	opts := []comptest.Option{
		comptest.WithStand(*standName),
		comptest.WithParallelism(*parallel),
		comptest.WithSink(sink),
	}
	units := plan.Units([]string{*standName}, *dutName)
	for i := range units {
		units[i].Faults = faults
	}
	var (
		tracer    *comptest.Tracer
		spans     *report.SpanWriter
		traceFile *os.File
	)
	if *tracePath != "" {
		if traceFile, err = os.Create(*tracePath); err != nil {
			return err
		}
		defer traceFile.Close()
		spans = report.NewSpanWriter(traceFile)
		tracer = comptest.NewTracer(spans)
		tracer.Attach(units)
		opts = append(opts, comptest.WithSink(tracer))
	}
	r, err := comptest.NewRunner(opts...)
	if err != nil {
		return err
	}
	sum, err := r.Campaign(ctx, units)
	if tracer != nil {
		// Flush even on a red or errored campaign: a partial trace of
		// what DID run is exactly the debugging artefact -trace is for.
		tracer.Flush()
		if serr := spans.Err(); serr != nil {
			return serr
		}
		if cerr := traceFile.Close(); cerr != nil {
			return cerr
		}
	}
	// The JUnit file records whatever completed, even when the campaign
	// fails — a red run is exactly what CI wants to ingest.
	if *junitPath != "" {
		f, ferr := os.Create(*junitPath)
		if ferr != nil {
			return ferr
		}
		ferr = report.WriteJUnitSuites(f, reports)
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return ferr
		}
	}
	if writeErr != nil {
		return writeErr
	}
	if err != nil {
		return err
	}
	if sum.Passed != sum.Units {
		return fmt.Errorf("test run FAILED (%s)", sum)
	}
	return nil
}

// runRemote submits the campaign as a job to a running serve or
// coordinator instance, streams the merged NDJSON back, renders every
// report with the chosen format writer and maps the remote verdict to
// the exit code — `comptest run` semantics, execution elsewhere.
func runRemote(base, workbook, standName, dutName, tenant string, faults []string,
	parallel int, write func(io.Writer, *report.Report) error, junitPath, tracePath string, out io.Writer) error {
	spec := serve.JobSpec{
		Kind:        serve.KindCampaign,
		DUT:         dutName,
		Stand:       standName,
		Faults:      faults,
		Parallelism: parallel,
		Trace:       tracePath != "",
		Tenant:      tenant,
	}
	if workbook != "" {
		wb, err := os.ReadFile(workbook)
		if err != nil {
			return err
		}
		spec.Workbook = string(wb)
	} else {
		wb, err := comptest.BuiltinWorkbook(dutName)
		if err != nil {
			return err
		}
		spec.Workbook = wb
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		if ra := resp.Header.Get("Retry-After"); resp.StatusCode == http.StatusTooManyRequests && ra != "" {
			return fmt.Errorf("run: %s rejected the job (%d, retry in %ss): %s",
				base, resp.StatusCode, ra, bytes.TrimSpace(msg))
		}
		return fmt.Errorf("run: %s rejected the job (%d): %s", base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}

	stream, err := http.Get(base + "/v1/jobs/" + st.ID + "/stream")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("run: stream status %d", stream.StatusCode)
	}
	var reports []*report.Report // stream order == unit order, for -junit
	br := bufio.NewReader(stream.Body)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
		line = line[:len(line)-1]
		rep, derr := report.DecodeJSON(line)
		if derr != nil {
			// A unit that never produced a report (report.ErrorLine).
			el, eerr := report.DecodeErrorLine(line)
			if eerr != nil {
				return fmt.Errorf("run: unrecognisable stream line: %.120s", line)
			}
			return fmt.Errorf("run: unit %d (%s) errored remotely: %s", el.Seq, el.Script, el.Error)
		}
		reports = append(reports, rep)
		if err := write(out, rep); err != nil {
			return err
		}
	}
	// The stream just ended, so the job is terminal and its trace log —
	// populated job-side by the same Tracer the local path uses — is
	// complete and identical to what a local -trace run would write.
	if tracePath != "" {
		tr, err := http.Get(base + "/v1/jobs/" + st.ID + "/trace")
		if err != nil {
			return err
		}
		defer tr.Body.Close()
		if tr.StatusCode != http.StatusOK {
			return fmt.Errorf("run: trace status %d", tr.StatusCode)
		}
		f, ferr := os.Create(tracePath)
		if ferr != nil {
			return ferr
		}
		_, ferr = io.Copy(f, tr.Body)
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return ferr
		}
	}
	// Like the local path, the JUnit file records whatever completed —
	// red runs included.
	if junitPath != "" {
		f, ferr := os.Create(junitPath)
		if ferr != nil {
			return ferr
		}
		ferr = report.WriteJUnitSuites(f, reports)
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return ferr
		}
	}

	final, err := http.Get(base + "/v1/jobs/" + st.ID)
	if err != nil {
		return err
	}
	defer final.Body.Close()
	var fs serve.JobStatus
	if err := json.NewDecoder(final.Body).Decode(&fs); err != nil {
		return err
	}
	switch {
	case fs.State == serve.StateDone && fs.Verdict == "green":
		return nil
	case fs.State == serve.StateDone:
		if fs.Campaign != nil {
			return fmt.Errorf("test run FAILED (%d units: %d passed, %d failed, %d errored, %d skipped)",
				fs.Campaign.Units, fs.Campaign.Passed, fs.Campaign.Failed, fs.Campaign.Errored, fs.Campaign.Skipped)
		}
		return fmt.Errorf("test run FAILED (verdict %s)", fs.Verdict)
	default:
		return fmt.Errorf("run: remote job ended %s: %s", fs.State, fs.Error)
	}
}

// cmdMutate runs the mutation kill matrix and prints the test-strength
// report: kill scores per DUT and requirement, the surviving mutants,
// and the lint coverage findings that explain them.
func cmdMutate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	workbook := fs.String("workbook", "", "workbook file (default: built-in workbook of the DUT)")
	dutName := fs.String("dut", "interior_light", "DUT model to mutate")
	standName := fs.String("stand", "", "stand profile (default: the DUT's known-green stand)")
	all := fs.Bool("all", false, "mutate every registered DUT with a built-in workbook")
	parallel := fs.Int("parallel", 1, "run up to N mutant executions concurrently")
	format := fs.String("format", "text", "report format: text or json")
	kills := fs.String("kills", "", "kill-statistics sidecar: read to order each mutant's scripts most-lethal-first, rewritten after the run (default: <workbook>.kills.json when -workbook is given)")
	full := fs.Bool("run-to-completion", false, "disable early kill: run every script of every mutant (verdicts are identical either way)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}

	var plans []*mutation.Plan
	if *all {
		// -all enumerates every builtin DUT on its own default stand; a
		// single-target flag alongside it would be silently ignored.
		var conflict string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "dut", "stand", "workbook":
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("mutate: -all conflicts with -%s", conflict)
		}
		var err error
		if plans, err = mutation.EnumerateBuiltin(); err != nil {
			return err
		}
	} else {
		suite, _, err := loadWorkbook(*workbook, builtinFor(*dutName))
		if err != nil {
			return err
		}
		plan, err := mutation.Enumerate(*dutName, *standName, suite)
		if err != nil {
			return err
		}
		plans = []*mutation.Plan{plan}
	}

	// The sidecar feeds back each script's demonstrated kill count, so
	// early kill decides most mutants on their first run; after the run
	// it is rewritten from the fresh matrix.
	killsPath := *kills
	if killsPath == "" && *workbook != "" {
		killsPath = *workbook + ".kills.json"
	}
	var stats *lint.KillMatrix
	if killsPath != "" && fileExists(killsPath) {
		k, err := lint.ReadKillMatrixFile(killsPath)
		if err != nil {
			return err
		}
		stats = k
	}

	var strength report.Strength
	for _, plan := range plans {
		mat, err := mutation.Run(context.Background(), plan, mutation.Options{
			Parallelism: *parallel, KillStats: stats, RunToCompletion: *full})
		if err != nil {
			return err
		}
		// A mutant whose execution could not even be built has no
		// verdict; reporting a clean-looking matrix around it would
		// overstate the suite's strength.
		if errored := mat.Errored(); len(errored) > 0 {
			return fmt.Errorf("mutate: %s: mutant %s could not be executed: %v",
				plan.DUT, errored[0].Mutant.ID, errored[0].Err)
		}
		findings := lint.Check(plan.Suite.Signals, plan.Suite.Statuses, plan.Suite.Tests)
		strength.DUTs = append(strength.DUTs, mat.Strength(findings))
	}
	if killsPath != "" {
		f, ferr := os.Create(killsPath)
		if ferr != nil {
			return ferr
		}
		ferr = report.WriteStrengthJSON(f, &strength)
		if cerr := f.Close(); ferr == nil {
			ferr = cerr
		}
		if ferr != nil {
			return ferr
		}
	}
	if *format == "json" {
		return report.WriteStrengthJSON(out, &strength)
	}
	return report.WriteStrengthText(out, &strength)
}

// cmdExplore runs coverage-guided scenario exploration: seeded random
// walks over the DUT's stimulus space, scored by behavioural coverage
// and (optionally) by which surviving fault mutants they kill, shrunk
// and promoted into workbook tests.
func cmdExplore(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	workbook := fs.String("workbook", "", "workbook file (default: built-in workbook of the DUT)")
	dutName := fs.String("dut", "interior_light", "DUT model to explore")
	standName := fs.String("stand", "", "stand profile (default: the DUT's known-green stand)")
	budget := fs.Int("budget", 32, "candidate walks to generate and execute")
	seed := fs.Int64("seed", 1, "generator seed; identical seeds reproduce identical corpora")
	parallel := fs.Int("parallel", 1, "run up to N executions concurrently")
	oracle := fs.String("oracle", "", "comma-separated fault names used as kill oracles, or 'survivors' to target the suite's surviving fault mutants")
	promote := fs.String("promote", "", "write the promoted workbook (suite + discovered scenarios) to FILE")
	format := fs.String("format", "text", "report format: text or json")
	minSteps := fs.Int("minsteps", 0, "minimum walk length (default 4)")
	maxSteps := fs.Int("maxsteps", 0, "maximum walk length (default 24)")
	durations := fs.String("durations", "", "comma-separated hold-duration pool in seconds (default 0.5,1,2,3,5)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	var pool []float64
	if *durations != "" {
		for _, d := range strings.Split(*durations, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(d), 64)
			if err != nil || !(f > 0 && f <= math.MaxFloat64) {
				return fmt.Errorf("explore: malformed duration %q", d)
			}
			pool = append(pool, f)
		}
	}
	suite, _, err := loadWorkbook(*workbook, builtinFor(*dutName))
	if err != nil {
		return err
	}
	ctx := context.Background()
	var faults []string
	switch {
	case *oracle == "survivors":
		if faults, err = explore.SurvivingFaults(ctx, *dutName, *standName, suite, *parallel); err != nil {
			return err
		}
	case *oracle != "":
		for _, f := range strings.Split(*oracle, ",") {
			if f = strings.TrimSpace(f); f != "" {
				faults = append(faults, f)
			}
		}
	}
	ex, err := explore.New(suite, explore.Options{
		DUT:         *dutName,
		Stand:       *standName,
		Seed:        *seed,
		Budget:      *budget,
		Parallelism: *parallel,
		Oracle:      faults,
		MinSteps:    *minSteps,
		MaxSteps:    *maxSteps,
		Durations:   pool,
	})
	if err != nil {
		return err
	}
	res, err := ex.Run(ctx)
	if err != nil {
		return err
	}
	if *promote != "" {
		wb, err := res.Workbook()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*promote, []byte(wb), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "promoted %d scenario(s) to %s\n", res.Corpus.Len(), *promote)
	}
	if *format == "json" {
		return report.WriteExplorationJSON(out, res.Exploration())
	}
	return report.WriteExplorationText(out, res.Exploration())
}

// Test seams for cmdServe: production blocks until SIGINT/SIGTERM;
// tests override the context to drive shutdown and observe the bound
// address without signals or sleeps. logDest is where -log-format
// events go (stderr in production; a buffer in tests).
var (
	serveCtx   context.Context   // nil = signal.NotifyContext
	serveReady func(addr string) // called once the listener is bound
	logDest    io.Writer         // nil = os.Stderr
)

// eventLogger builds the process-wide structured logger for serve and
// worker from their -log-format flag.
func eventLogger(format string) (*slog.Logger, error) {
	w := logDest
	if w == nil {
		w = os.Stderr
	}
	return obs.NewLogger(w, format)
}

// cmdServe runs the campaign-execution service: a bounded job queue +
// worker pool behind an HTTP JSON API (see comptest/serve). With
// -workers-remote it runs as a distributed coordinator instead
// (comptest/dist): jobs shard across workers joined via `comptest
// worker -join`, falling back to local execution while the fleet is
// empty. It blocks until interrupted, then shuts down gracefully —
// in-flight jobs are cancelled through their contexts, so running
// scripts stop at the next step boundary with the remaining checks
// SKIPped.
func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8833", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 2, "jobs executed concurrently")
	queue := fs.Int("queue", 16, "bounded queue depth; a full queue rejects jobs with 503")
	parallel := fs.Int("parallel", 1, "default per-job worker-pool bound")
	remote := fs.Bool("workers-remote", false, "coordinate remote workers: shard jobs across nodes joined via 'comptest worker -join'")
	shardUnits := fs.Int("shard-units", 4, "max campaign units per shard (with -workers-remote)")
	stateDir := fs.String("state-dir", "", "durable coordination: journal every job to DIR/journal.ndjson and recover in-flight campaigns on restart (with -workers-remote)")
	stealLocal := fs.Bool("steal-local", false, "let the coordinator's own executor steal shards that waited -steal-after for a saturated fleet (with -workers-remote)")
	stealAfter := fs.Duration("steal-after", 2*time.Second, "how long a shard waits for a remote slot before -steal-local claims it (with -workers-remote)")
	lease := fs.Duration("lease", 15*time.Second, "worker lease: a node silent this long is not scheduled (with -workers-remote)")
	scrapeTimeout := fs.Duration("scrape-timeout", 2*time.Second, "per-worker /metrics fetch bound during fleet aggregation (with -workers-remote)")
	quotaActive := fs.Int("quota-active", 0, "per-tenant cap on queued+running jobs; over it submissions get 429 (0 = unlimited)")
	quotaRate := fs.Float64("quota-rate", 0, "per-tenant sustained submissions per second, token-bucket enforced with 429 + Retry-After (0 = unlimited)")
	quotaBurst := fs.Int("quota-burst", 0, "token-bucket depth for -quota-rate: back-to-back submissions allowed after idling (default: rate rounded up)")
	logFormat := fs.String("log-format", "text", "structured event log format on stderr: text|json")
	sloList := fs.String("slo", "", `SLO objectives for /slo, e.g. "comptest_unit_seconds:p95<=60,comptest_queue_wait_seconds:p95<=30" (default: built-in objectives)`)
	metricsAddr := fs.String("metrics-addr", "", "also serve /metrics on this address (it is always on -addr; this adds a listener scrapers can reach when -addr is firewalled)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof on this address (profiler off unless set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := eventLogger(*logFormat)
	if err != nil {
		return err
	}
	objectives, err := obs.ParseObjectives(*sloList)
	if err != nil {
		return err
	}
	serveOpts := serve.Options{
		Workers:            *workers,
		QueueDepth:         *queue,
		DefaultParallelism: *parallel,
		Logger:             logger,
		Objectives:         objectives,
		Quota: serve.QuotaOptions{
			MaxActive:  *quotaActive,
			RatePerSec: *quotaRate,
			Burst:      *quotaBurst,
		},
	}
	var (
		handler http.Handler
		metrics http.Handler
		closeFn func()
		mode    string
	)
	if *remote {
		coord := dist.New(dist.Options{
			Serve:         serveOpts,
			ShardUnits:    *shardUnits,
			StateDir:      *stateDir,
			StealLocal:    *stealLocal,
			StealAfter:    *stealAfter,
			LeaseTTL:      *lease,
			ScrapeTimeout: *scrapeTimeout,
			Logger:        logger,
		})
		handler, metrics, closeFn = coord.Handler(), coord.MetricsHandler(), coord.Close
		mode = fmt.Sprintf("coordinator, shard-units %d; join workers with 'comptest worker -join URL'", *shardUnits)
		if *stateDir != "" {
			mode += fmt.Sprintf("; durable state in %s", *stateDir)
		}
	} else {
		srv := serve.New(serveOpts)
		handler, metrics, closeFn = srv.Handler(), srv.Metrics().Handler(), srv.Close
		mode = "single node"
	}
	defer closeFn()

	if *metricsAddr != "" {
		stopMetrics, maddr, err := serveAux(*metricsAddr, "/metrics", metrics)
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Fprintf(out, "comptest serve: metrics on http://%s/metrics\n", maddr)
	}
	if *debugAddr != "" {
		stopDebug, daddr, err := serveAux(*debugAddr, "/debug/pprof/", obs.DebugHandler())
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(out, "comptest serve: pprof on http://%s/debug/pprof/\n", daddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "comptest serve: listening on http://%s (%d workers, queue %d, %s)\n",
		ln.Addr(), *workers, *queue, mode)
	if serveReady != nil {
		serveReady(ln.Addr().String())
	}

	ctx := serveCtx
	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(out, "comptest serve: shutting down")
		// Cancel the jobs FIRST: that closes every result log, so
		// attached streams end cleanly at a terminal state instead of
		// pinning Shutdown to its timeout and being severed mid-line.
		closeFn()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}

// serveAux starts one side-channel listener (metrics or pprof) beside
// the main API. The returned stop closes it; the serve error that
// follows Close is the normal shutdown path and is dropped.
func serveAux(addr, path string, h http.Handler) (func(), string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle(path, h)
	hs := &http.Server{Handler: mux}
	go func() { _ = hs.Serve(ln) }()
	return func() { _ = hs.Close() }, ln.Addr().String(), nil
}

// cmdWorker runs one execution node: a local serve engine on its own
// port, registered and heartbeating with a -workers-remote
// coordinator, executing the shards dispatched to it.
func cmdWorker(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	join := fs.String("join", "", "coordinator base URL (required), e.g. http://127.0.0.1:8833")
	addr := fs.String("addr", "127.0.0.1:0", "listen address for this worker's job API")
	name := fs.String("name", "", "worker label shown in the coordinator's /v1/workers")
	workers := fs.Int("workers", 2, "shards executed concurrently (advertised as capacity)")
	parallel := fs.Int("parallel", 1, "default per-shard worker-pool bound")
	queue := fs.Int("queue", 16, "bounded shard queue depth")
	logFormat := fs.String("log-format", "text", "structured event log format on stderr: text|json")
	debugAddr := fs.String("debug-addr", "", "serve /debug/pprof on this address (profiler off unless set)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *join == "" {
		return fmt.Errorf("worker: -join URL is required")
	}
	logger, err := eventLogger(*logFormat)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		stopDebug, daddr, err := serveAux(*debugAddr, "/debug/pprof/", obs.DebugHandler())
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(out, "comptest worker: pprof on http://%s/debug/pprof/\n", daddr)
	}
	w, err := dist.StartWorker(dist.WorkerOptions{
		Coordinator: *join,
		Name:        *name,
		Addr:        *addr,
		Logger:      logger,
		Serve: serve.Options{
			Workers:            *workers,
			QueueDepth:         *queue,
			DefaultParallelism: *parallel,
			Logger:             logger,
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "comptest worker: %s serving on %s, joined %s (%s)\n",
		w.ID(), w.URL(), *join, version.String())
	if serveReady != nil {
		serveReady(w.URL())
	}
	ctx := serveCtx
	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	return w.Wait(ctx)
}

// cmdSLO fetches a serve or coordinator node's /slo report and renders
// the verdict: every objective's interpolated quantile against its
// bound. Against a coordinator the estimates cover the whole fleet
// (worker histogram cells fold into one). A violated objective exits
// nonzero, so CI can gate on latency like it gates on verdicts.
func cmdSLO(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	base := fs.String("url", "http://127.0.0.1:8833", "serve or coordinator base URL")
	objectives := fs.String("objectives", "", `comma-separated overrides, e.g. "comptest_unit_seconds:p95<=60" (default: the server's configured objectives)`)
	format := fs.String("format", "text", "output format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "text" && *format != "json" {
		return fmt.Errorf("slo: unknown format %q (want text or json)", *format)
	}
	target := strings.TrimSuffix(*base, "/") + "/slo"
	if *objectives != "" {
		// Validate locally so a typo reads as a flag error, not a 400.
		if _, err := obs.ParseObjectives(*objectives); err != nil {
			return err
		}
		target += "?objective=" + url.QueryEscape(*objectives)
	}
	resp, err := http.Get(target)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("slo: %s: status %d: %s", target, resp.StatusCode, bytes.TrimSpace(msg))
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("slo: malformed report from %s: %w", target, err)
	}
	if *format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else if err := rep.WriteText(out); err != nil {
		return err
	}
	if !rep.Pass {
		return fmt.Errorf("slo: objectives violated")
	}
	return nil
}

func cmdReuse(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reuse", flag.ContinueOnError)
	workbook := fs.String("workbook", "", "workbook file (default: built-in paper workbook)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite, _, err := loadWorkbook(*workbook, paper.Workbook)
	if err != nil {
		return err
	}
	scripts, err := suite.GenerateScripts()
	if err != nil {
		return err
	}
	cfgs, err := stand.Profiles(suite.Registry, stand.HarnessFromScript(scripts[0]))
	if err != nil {
		return err
	}
	m, err := comptest.AnalyzeReuse(scripts, cfgs)
	if err != nil {
		return err
	}
	fmt.Fprint(out, m.String())
	return nil
}

func cmdTables(out io.Writer) error {
	reg := method.Builtin()
	suite, err := comptest.LoadSuiteString(paper.Workbook)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "== Table 1: test definition sheet (interior illumination) ==")
	fmt.Fprint(out, renderSheet(suite.Test("InteriorIllumination").ToSheet()))

	fmt.Fprintln(out, "\n== Table 2: status table ==")
	fmt.Fprint(out, renderSheet(suite.Statuses.ToSheet("StatusDefinition")))

	wb, err := sheet.ReadWorkbookString(paper.StandSheets)
	if err != nil {
		return err
	}
	cat, err := resource.ParseSheet(wb.Sheet("Resources"), reg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n== Table 3: resource table ==")
	fmt.Fprint(out, renderSheet(cat.ToSheet("Resources", reg)))

	m, err := topology.ParseSheet(wb.Sheet("Connections"))
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\n== Table 4: connection matrix ==")
	fmt.Fprint(out, renderSheet(m.ToSheet("Connections")))

	fmt.Fprintln(out, "\n== Figure 1: test circuit (ASCII rendering) ==")
	fmt.Fprint(out, m.Render())

	fmt.Fprintln(out, "\n== Section 3: generated XML fragment (status Ho on int_ill) ==")
	sc, err := suite.GenerateScript("InteriorIllumination")
	if err != nil {
		return err
	}
	text, err := script.EncodeString(sc)
	if err != nil {
		return err
	}
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		// The statement form is <signal name="int_ill"> followed by the
		// method element; the paper prints the "Ho" check, recognisable
		// by its (1.1*ubatt) upper limit.
		if strings.TrimSpace(line) == `<signal name="int_ill">` && i+2 < len(lines) &&
			strings.Contains(lines[i+1], "(1.1*ubatt)") {
			fmt.Fprintln(out, strings.TrimSpace(line))
			fmt.Fprintln(out, "      "+strings.TrimSpace(lines[i+1]))
			fmt.Fprintln(out, strings.TrimSpace(lines[i+2]))
			break
		}
	}
	return nil
}

// renderSheet prints a sheet as an aligned table.
func renderSheet(s *sheet.Sheet) string {
	widths := make([]int, s.NumCols())
	for r := 0; r < s.NumRows(); r++ {
		for c, cell := range s.Row(r) {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	var b strings.Builder
	for r := 0; r < s.NumRows(); r++ {
		for c, cell := range s.Row(r) {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[c], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// builtinProjects lists the component families with built-in workbooks,
// straight from the DUT registry.
func builtinProjects() []struct{ component, workbook string } {
	var out []struct{ component, workbook string }
	for _, name := range comptest.DUTNames() {
		wb, err := comptest.BuiltinWorkbook(name)
		if err != nil {
			continue
		}
		out = append(out, struct{ component, workbook string }{name, wb})
	}
	return out
}

func cmdArchive(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("archive", flag.ContinueOnError)
	outFile := fs.String("out", "", "write the knowledge-base XML here (default stdout)")
	origin := fs.String("origin", "builtin", "project name recorded as the origin")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := knowledge.NewBase()
	for _, p := range builtinProjects() {
		suite, err := comptest.LoadSuiteString(p.workbook)
		if err != nil {
			return err
		}
		scripts, err := suite.GenerateScripts()
		if err != nil {
			return err
		}
		for _, sc := range scripts {
			if err := base.Add(&knowledge.Entry{
				Component: p.component, Name: sc.Name, Origin: *origin, Script: sc,
			}); err != nil {
				return err
			}
		}
	}
	w := out
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := knowledge.Write(w, base); err != nil {
		return err
	}
	if *outFile != "" {
		fmt.Fprintf(out, "archived %d test scripts to %s\n", base.Len(), *outFile)
	}
	return nil
}

func cmdTransfer(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("transfer", flag.ContinueOnError)
	archive := fs.String("archive", "", "knowledge-base XML produced by 'comptest archive'")
	standName := fs.String("stand", "mini_bench", "target stand profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *archive == "" {
		return fmt.Errorf("transfer: -archive is required")
	}
	f, err := os.Open(*archive)
	if err != nil {
		return err
	}
	defer f.Close()
	base, err := knowledge.Read(f)
	if err != nil {
		return err
	}
	reg := method.Builtin()
	cfg, err := standFor(*standName, &script.Script{Version: script.Version}, reg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "transfer analysis against %s:\n", cfg.Name)
	for _, comp := range base.Components() {
		ok, reasons := base.Transferable(comp, cfg.Catalog, reg)
		fmt.Fprintf(out, "  %-16s %d/%d transferable\n", comp, len(ok), len(ok)+len(reasons))
		for id, why := range reasons {
			fmt.Fprintf(out, "    %-40s %s\n", id, why)
		}
	}
	return nil
}
