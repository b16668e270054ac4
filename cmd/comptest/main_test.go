package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/paper"
	"repro/internal/report"
	"repro/internal/version"
)

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestNoArgs(t *testing.T) {
	out, err := runCLI(t)
	if err == nil || !strings.Contains(out, "subcommands") {
		t.Errorf("bare invocation: %v\n%s", err, out)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	if _, err := runCLI(t, "frobnicate"); err == nil {
		t.Error("unknown subcommand accepted")
	}
}

func TestHelp(t *testing.T) {
	out, err := runCLI(t, "help")
	if err != nil || !strings.Contains(out, "reuse") {
		t.Errorf("help: %v\n%s", err, out)
	}
}

func TestGenBuiltin(t *testing.T) {
	out, err := runCLI(t, "gen")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<testscript", `name="InteriorIllumination"`, `(1.1*ubatt)`} {
		if !strings.Contains(out, want) {
			t.Errorf("gen output lacks %q", want)
		}
	}
}

func TestGenToDir(t *testing.T) {
	dir := t.TempDir()
	out, err := runCLI(t, "gen", "-out", dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote") {
		t.Errorf("gen -out output: %s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "InteriorIllumination.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<testscript") {
		t.Error("script file content wrong")
	}
}

func TestGenNamedTest(t *testing.T) {
	if _, err := runCLI(t, "gen", "-test", "InteriorIllumination"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "gen", "-test", "Ghost"); err == nil {
		t.Error("unknown test accepted")
	}
}

func TestGenWorkbookFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wb.csw")
	if err := os.WriteFile(path, []byte(paper.Workbook), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "gen", "-workbook", path); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "gen", "-workbook", "/no/such/file"); err == nil {
		t.Error("missing workbook accepted")
	}
}

func TestRunDefault(t *testing.T) {
	out, err := runCLI(t, "run")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "PASS: InteriorIllumination on paper_stand") {
		t.Errorf("run output:\n%s", out)
	}
}

func TestRunFormats(t *testing.T) {
	out, err := runCLI(t, "run", "-format", "csv")
	if err != nil || !strings.Contains(out, "script,stand,step") {
		t.Errorf("csv run: %v\n%s", err, out)
	}
	out, err = runCLI(t, "run", "-format", "xml")
	if err != nil || !strings.Contains(out, "<testreport") {
		t.Errorf("xml run: %v", err)
	}
	if _, err := runCLI(t, "run", "-format", "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunWithFaultFails(t *testing.T) {
	out, err := runCLI(t, "run", "-fault", "stuck_off")
	if err == nil {
		t.Errorf("faulty DUT passed:\n%s", out)
	}
	if _, err := runCLI(t, "run", "-fault", "bogus"); err == nil {
		t.Error("unknown fault accepted")
	}
}

func TestRunOtherDUTs(t *testing.T) {
	for _, dut := range []string{"central_locking", "window_lifter"} {
		out, err := runCLI(t, "run", "-dut", dut, "-stand", "full_lab")
		if err != nil {
			t.Errorf("%s: %v\n%s", dut, err, out)
		}
	}
	if _, err := runCLI(t, "run", "-dut", "toaster"); err == nil {
		t.Error("unknown DUT accepted")
	}
	if _, err := runCLI(t, "run", "-stand", "garage"); err == nil {
		t.Error("unknown stand accepted")
	}
}

func TestReuse(t *testing.T) {
	out, err := runCLI(t, "reuse")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"full_lab", "mini_bench", "hil_rack", "reuse: 100.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("reuse output lacks %q:\n%s", want, out)
		}
	}
}

func TestTables(t *testing.T) {
	out, err := runCLI(t, "tables")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 1", "day: no interior", "off after 300s",
		"Table 2", "put_can", "UBATT",
		"Table 3", "Ress1", "get_u",
		"Table 4", "Sw1.1", "Mx4.2",
		"Figure 1",
		`u_max="(1.1*ubatt)"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output lacks %q", want)
		}
	}
}

func TestArchiveAndTransfer(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "kb.xml")
	out, err := runCLI(t, "archive", "-out", archive, "-origin", "unit-test")
	if err != nil || !strings.Contains(out, "archived 12 test scripts") {
		t.Fatalf("archive: %v\n%s", err, out)
	}
	out, err = runCLI(t, "transfer", "-archive", archive, "-stand", "mini_bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"central_locking", "3/4 transferable", "get_t", "interior_light", "1/1 transferable"} {
		if !strings.Contains(out, want) {
			t.Errorf("transfer output lacks %q:\n%s", want, out)
		}
	}
	// Full lab takes everything.
	out, err = runCLI(t, "transfer", "-archive", archive, "-stand", "full_lab")
	if err != nil || strings.Contains(out, "missing methods") {
		t.Errorf("full_lab transfer: %v\n%s", err, out)
	}
	// Error paths.
	if _, err := runCLI(t, "transfer"); err == nil {
		t.Error("transfer without -archive accepted")
	}
	if _, err := runCLI(t, "transfer", "-archive", "/no/such/file"); err == nil {
		t.Error("transfer with missing archive accepted")
	}
}

func TestArchiveToStdout(t *testing.T) {
	out, err := runCLI(t, "archive")
	if err != nil || !strings.Contains(out, "<knowledgebase>") {
		t.Errorf("archive to stdout: %v", err)
	}
}

func TestRunJUnitFormat(t *testing.T) {
	out, err := runCLI(t, "run", "-format", "junit")
	if err != nil || !strings.Contains(out, "<testsuite") || !strings.Contains(out, "step0/int_ill/get_u") {
		t.Errorf("junit run: %v\n%s", err, out)
	}
}

func TestRunJUnitFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.xml")
	// central_locking has a 4-script suite: the file must hold one
	// <testsuite> per campaign report under a <testsuites> root.
	if _, err := runCLI(t, "run", "-dut", "central_locking", "-stand", "full_lab", "-junit", path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "<testsuites") {
		t.Error("missing <testsuites> root")
	}
	if n := strings.Count(text, "<testsuite name="); n != 4 {
		t.Errorf("got %d testsuite elements, want 4:\n%s", n, text)
	}
	// A failing campaign still writes the file, with the failures in it.
	path2 := filepath.Join(t.TempDir(), "failed.xml")
	if _, err := runCLI(t, "run", "-fault", "stuck_off", "-junit", path2); err == nil {
		t.Fatal("faulty DUT passed")
	}
	data, err = os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<failure") {
		t.Error("failed campaign's JUnit file records no <failure>")
	}
}

func TestMutate(t *testing.T) {
	out, err := runCLI(t, "mutate")
	if err != nil {
		t.Fatalf("mutate: %v\n%s", err, out)
	}
	for _, want := range []string{
		"interior_light on paper_stand",
		"SURVIVED  fault/only_fl",
		"unstimulated-input",
		"by requirement:",
		"killed    fault/stuck_off",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("mutate output lacks %q:\n%s", want, out)
		}
	}
}

func TestMutateJSON(t *testing.T) {
	out, err := runCLI(t, "mutate", "-format", "json", "-parallel", "2")
	if err != nil {
		t.Fatalf("mutate -format json: %v", err)
	}
	for _, want := range []string{`"dut": "interior_light"`, `"id": "fault/only_fl"`, `"killed": false`} {
		if !strings.Contains(out, want) {
			t.Errorf("mutate JSON lacks %q", want)
		}
	}
	if _, err := runCLI(t, "mutate", "-format", "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := runCLI(t, "mutate", "-dut", "toaster"); err == nil {
		t.Error("unknown DUT accepted")
	}
	if _, err := runCLI(t, "mutate", "-all", "-dut", "interior_light"); err == nil {
		t.Error("-all with -dut accepted; the single-target flag would be ignored")
	}
}

func TestExplore(t *testing.T) {
	out, err := runCLI(t, "explore", "-budget", "8", "-seed", "1", "-oracle", "only_fl")
	if err != nil {
		t.Fatalf("explore: %v\n%s", err, out)
	}
	for _, want := range []string{
		"Scenario exploration report",
		"interior_light on paper_stand: seed 1, budget 8 candidates",
		"coverage keys",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explore output lacks %q:\n%s", want, out)
		}
	}
}

func TestExploreJSONAndPromote(t *testing.T) {
	promoted := filepath.Join(t.TempDir(), "promoted.csw")
	out, err := runCLI(t, "explore", "-budget", "16", "-seed", "1",
		"-oracle", "survivors", "-parallel", "2", "-format", "json", "-promote", promoted)
	if err != nil {
		t.Fatalf("explore json: %v\n%s", err, out)
	}
	for _, want := range []string{`"dut": "interior_light"`, `"seed": 1`, `"kills"`, "only_fl"} {
		if !strings.Contains(out, want) {
			t.Errorf("explore JSON lacks %q:\n%s", want, out)
		}
	}
	// The promoted workbook must be a loadable suite that still carries
	// the paper's original test plus the discovered scenarios.
	b, err := os.ReadFile(promoted)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "Test_InteriorIllumination") ||
		!strings.Contains(string(b), "Test_Explore") {
		t.Errorf("promoted workbook incomplete:\n%s", b)
	}
	if out, err := runCLI(t, "run", "-workbook", promoted); err != nil {
		t.Errorf("promoted workbook does not run green: %v\n%s", err, out)
	}
}

func TestExploreErrors(t *testing.T) {
	if _, err := runCLI(t, "explore", "-format", "yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := runCLI(t, "explore", "-dut", "toaster"); err == nil {
		t.Error("unknown DUT accepted")
	}
	if _, err := runCLI(t, "explore", "-oracle", "ghost_fault", "-budget", "1"); err == nil {
		t.Error("unknown oracle fault accepted")
	}
	for _, d := range []string{"NaN,1", "INF,1", "1,+Inf"} {
		if _, err := runCLI(t, "explore", "-durations", d, "-budget", "1"); err == nil {
			t.Errorf("-durations %s accepted", d)
		}
	}
}

// TestRunNonFiniteDt: a workbook step whose dt is INF or NaN is
// rejected with an error instead of reaching the stand's clock.
func TestRunNonFiniteDt(t *testing.T) {
	for _, dt := range []string{"INF", "NaN"} {
		wb := strings.Replace(paper.Workbook, "\n7;280;", "\n7;"+dt+";", 1)
		if wb == paper.Workbook {
			t.Fatal("paper workbook lacks step 7's row")
		}
		path := filepath.Join(t.TempDir(), "wb.csw")
		if err := os.WriteFile(path, []byte(wb), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runCLI(t, "run", "-workbook", path)
		if err == nil || !strings.Contains(err.Error(), "non-finite dt") {
			t.Errorf("dt %s: err %v\n%s", dt, err, out)
		}
	}
}

// TestExitCodes pins the process surface: an unknown subcommand (or
// any other error) must exit 1 — a CI smoke step invoking a typo'd
// subcommand may never silently pass — and help must exit 0.
func TestExitCodes(t *testing.T) {
	var out, errw strings.Builder
	if code := realMain([]string{"frobnicate"}, &out, &errw); code != 1 {
		t.Errorf("unknown subcommand: exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), `unknown subcommand "frobnicate"`) {
		t.Errorf("stderr: %q", errw.String())
	}
	if !strings.Contains(out.String(), "subcommands") {
		t.Error("usage not printed on unknown subcommand")
	}

	out.Reset()
	errw.Reset()
	if code := realMain([]string{"help"}, &out, &errw); code != 0 || errw.Len() != 0 {
		t.Errorf("help: exit %d, stderr %q", code, errw.String())
	}
	if code := realMain(nil, &out, &errw); code != 1 {
		t.Errorf("no args: exit %d, want 1", code)
	}
	if code := realMain([]string{"run", "-fault", "stuck_off"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("failing campaign: exit %d, want 1", code)
	}
	if code := realMain([]string{"version"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("version: exit %d, want 0", code)
	}
	if code := realMain([]string{"worker"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("worker without -join: exit %d, want 1", code)
	}
	if code := realMain([]string{"worker", "-join", "http://127.0.0.1:1"}, io.Discard, io.Discard); code != 1 {
		t.Errorf("worker with unreachable coordinator: exit %d, want 1", code)
	}
}

// TestVersion pins the version subcommand to the identity string the
// distributed handshake exchanges (internal/version).
func TestVersion(t *testing.T) {
	out, err := runCLI(t, "version")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != version.String() {
		t.Errorf("version printed %q, want %q", strings.TrimSpace(out), version.String())
	}
	for _, want := range []string{"comptest ", "go1"} {
		if !strings.Contains(out, want) {
			t.Errorf("version output lacks %q: %s", want, out)
		}
	}
}

// TestDistributedEndToEnd drives the full CLI surface of the
// distributed layer in-process: a -workers-remote coordinator, a
// joined worker whose handshake carries the `comptest version`
// identity string, and `run -coordinator` executing a campaign
// through both.
func TestDistributedEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan string, 2)
	events := &syncBuffer{}
	serveCtx, serveReady, logDest = ctx, func(a string) { addrs <- a }, events
	defer func() { serveCtx, serveReady, logDest = nil, nil, nil }()

	done := make(chan error, 2)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-workers-remote", "-shard-units", "1",
			"-log-format", "json"}, io.Discard)
	}()
	coord := "http://" + <-addrs
	go func() {
		done <- run([]string{"worker", "-join", coord, "-name", "node-a", "-workers", "2"}, io.Discard)
	}()
	<-addrs // the worker's own URL; registration already succeeded

	// The coordinator's JSON event log must have recorded the handshake
	// with the worker correlation attr.
	if text := events.String(); !strings.Contains(text, `"msg":"worker registered"`) ||
		!strings.Contains(text, `"worker":"w-0001"`) {
		t.Errorf("coordinator event log lacks a worker-correlated registration record:\n%s", text)
	}

	// The registered worker must advertise exactly what `comptest
	// version` prints — the handshake and the subcommand share
	// internal/version.
	versionOut, err := runCLI(t, "version")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(coord + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var fleet struct {
		Workers []struct {
			Name    string `json:"name"`
			Version string `json:"version"`
			State   string `json:"state"`
		} `json:"workers"`
	}
	err = json.NewDecoder(resp.Body).Decode(&fleet)
	resp.Body.Close()
	if err != nil || len(fleet.Workers) != 1 {
		t.Fatalf("fleet: %v %+v", err, fleet)
	}
	w := fleet.Workers[0]
	if w.Name != "node-a" || w.State != "live" {
		t.Errorf("worker record: %+v", w)
	}
	if w.Version != strings.TrimSpace(versionOut) {
		t.Errorf("handshake version %q != `comptest version` output %q", w.Version, strings.TrimSpace(versionOut))
	}

	// A 4-script campaign through `run -coordinator`, sharded 1 unit
	// per shard onto the worker, merged back in script order. The
	// -junit file must cover the remote campaign like a local one.
	junit := filepath.Join(t.TempDir(), "remote.xml")
	out, err := runCLI(t, "run", "-coordinator", coord, "-dut", "central_locking", "-stand", "full_lab", "-junit", junit)
	if err != nil {
		t.Fatalf("run -coordinator: %v\n%s", err, out)
	}
	if n := strings.Count(out, "PASS:"); n != 4 {
		t.Errorf("remote campaign printed %d PASS lines, want 4:\n%s", n, out)
	}
	if data, err := os.ReadFile(junit); err != nil {
		t.Errorf("remote -junit file: %v", err)
	} else if n := strings.Count(string(data), "<testsuite name="); n != 4 {
		t.Errorf("remote -junit file has %d testsuites, want 4", n)
	}

	// A faulted remote campaign must fail the CLI like a local one.
	if _, err := runCLI(t, "run", "-coordinator", coord, "-fault", "stuck_off"); err == nil ||
		!strings.Contains(err.Error(), "FAILED") {
		t.Errorf("faulted remote campaign: %v", err)
	}

	// `comptest slo` against the coordinator evaluates fleet-folded
	// histograms: the campaigns above left real samples behind.
	sloOut, err := runCLI(t, "slo", "-url", coord)
	if err != nil {
		t.Errorf("slo against the coordinator: %v\n%s", err, sloOut)
	} else if !strings.Contains(sloOut, "SLO: pass") {
		t.Errorf("fleet SLO verdict:\n%s", sloOut)
	}

	cancel()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}
}

// TestRunNDJSON streams a campaign as NDJSON and decodes it back.
func TestRunNDJSON(t *testing.T) {
	out, err := runCLI(t, "run", "-format", "ndjson")
	if err != nil {
		t.Fatalf("run -format ndjson: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d NDJSON lines, want 1:\n%s", len(lines), out)
	}
	rep, err := report.DecodeJSON([]byte(lines[0]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Script != "InteriorIllumination" || !rep.Passed() {
		t.Errorf("decoded report wrong: %s", rep.Summary())
	}
}

// TestServeEndToEnd drives the serve subcommand in-process: submit a
// campaign job over HTTP, stream its NDJSON report, check the verdict,
// then shut the server down through the (test-seamed) signal context.
func TestServeEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make(chan string, 1)
	serveCtx, serveReady = ctx, func(a string) { addrs <- a }
	defer func() { serveCtx, serveReady = nil, nil }()

	done := make(chan error, 1)
	go func() { done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-workers", "1"}, io.Discard) }()
	base := "http://" + <-addrs

	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"campaign"}`))
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || status.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, status)
	}

	// The stream ends exactly when the job reaches a terminal state.
	resp, err = http.Get(base + "/v1/jobs/" + status.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 1 {
		t.Fatalf("streamed %d lines, want 1:\n%s", len(lines), body)
	}
	rep, err := report.DecodeJSON([]byte(lines[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("streamed report not green: %s", rep.Summary())
	}

	resp, err = http.Get(base + "/v1/jobs/" + status.ID)
	if err != nil {
		t.Fatal(err)
	}
	final, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{`"state": "done"`, `"verdict": "green"`} {
		if !strings.Contains(string(final), want) {
			t.Errorf("final status lacks %s:\n%s", want, final)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
}

func TestServeBadFlags(t *testing.T) {
	if _, err := runCLI(t, "serve", "-addr", "not an address"); err == nil {
		t.Error("bad listen address accepted")
	}
	// There is no shard auto-tuner: -shard-target must be rejected, not
	// silently ignored. The bad address keeps a regression from binding.
	_, err := runCLI(t, "serve", "-workers-remote", "-shard-target", "30", "-addr", "not an address")
	if err == nil || !strings.Contains(err.Error(), "shard-target") {
		t.Errorf("-shard-target: err = %v, want an undefined-flag error", err)
	}
}
