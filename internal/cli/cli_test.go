package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// testApp returns an app with captured output and an in-memory
// filesystem for SVG writes.
func testApp() (*App, *bytes.Buffer, *bytes.Buffer, map[string]*bytes.Buffer) {
	var out, errb bytes.Buffer
	files := map[string]*bytes.Buffer{}
	a := &App{
		Stdout: &out,
		Stderr: &errb,
		ReadFile: func(path string) ([]byte, error) {
			if b, ok := files[path]; ok {
				return b.Bytes(), nil
			}
			return nil, fmt.Errorf("no file %s", path)
		},
		CreateFile: func(path string) (io.WriteCloser, error) {
			b := &bytes.Buffer{}
			files[path] = b
			return nopCloser{b}, nil
		},
		MkdirAll: func(string, os.FileMode) error { return nil },
	}
	return a, &out, &errb, files
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestNoArgsShowsUsage(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute(nil); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatal("usage not shown")
	}
}

// The commands `run -format` replaced are unknown, with no alias.
func TestUnknownCommand(t *testing.T) {
	for _, cmd := range []string{"bogus", "csv", "svg", "scale", "locks", "ipc"} {
		a, _, errb, _ := testApp()
		if code := a.Execute([]string{cmd, "T2"}); code != 2 {
			t.Fatalf("%s: exit = %d, want 2", cmd, code)
		}
		if !strings.Contains(errb.String(), "unknown command") {
			t.Fatalf("%s: error not reported", cmd)
		}
	}
}

func TestList(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"list"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"T2", "F13", "A6", "table", "figure"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "run", "T2"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "System Call") || !strings.Contains(out.String(), "Norm.") {
		t.Fatalf("run output malformed:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"run", "T99"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatal("error not reported")
	}
}

func TestRunWithoutIDs(t *testing.T) {
	a, _, _, _ := testApp()
	if code := a.Execute([]string{"run"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestCSV(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "run", "T4", "-format=csv"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out.String(), "experiment,series,") {
		t.Fatalf("csv header missing:\n%.100s", out.String())
	}
}

func TestSVGWritesFiles(t *testing.T) {
	a, out, _, files := testApp()
	if code := a.Execute([]string{"-runs", "3", "-out", "figs", "run", "T2", "F3", "-format=svg"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, path := range []string{"figs/T2.svg", "figs/F3.svg"} {
		b, ok := files[path]
		if !ok {
			t.Fatalf("missing %s; wrote: %v", path, out.String())
		}
		if !strings.Contains(b.String(), "<svg") {
			t.Fatalf("%s is not SVG", path)
		}
	}
}

func TestReplayBuiltin(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"replay", "tmpfiles"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"Linux 1.2.8", "FreeBSD 2.0.5R", "Solaris 2.4", "0 errors"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("replay output missing %q:\n%s", want, out.String())
		}
	}
}

func TestReplayFromFile(t *testing.T) {
	a, out, _, files := testApp()
	files["my.trace"] = bytes.NewBufferString("mkdir /d\ncreate /d/f 64K\nread /d/f\n")
	if code := a.Execute([]string{"replay", "my.trace"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "my.trace") {
		t.Fatal("trace name not echoed")
	}
}

func TestReplayMissingTrace(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"replay", "nope.trace"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "no such file") {
		t.Fatalf("error not reported: %s", errb.String())
	}
}

func TestReplayBadTraceFile(t *testing.T) {
	a, _, errb, _ := testApp()
	files := map[string]*bytes.Buffer{"bad.trace": bytes.NewBufferString("frob /x\n")}
	a.ReadFile = func(p string) ([]byte, error) {
		if b, ok := files[p]; ok {
			return b.Bytes(), nil
		}
		return nil, fmt.Errorf("no file")
	}
	if code := a.Execute([]string{"replay", "bad.trace"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown operation") {
		t.Fatalf("parse error not surfaced: %s", errb.String())
	}
}

func TestLatency(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"latency"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "selfpipe") || !strings.Contains(out.String(), "Solaris 2.4") {
		t.Fatalf("latency output malformed:\n%s", out.String())
	}
}

func TestNotes(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"notes"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"Installation experiences", "Porting experiences", "Conclusions"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("notes missing %q", want)
		}
	}
}

func TestPlatform(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"platform"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"Pentium", "HP 3725", "Quantum", "Table 1", "ext2fs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("platform missing %q", want)
		}
	}
}

func TestFutureFlag(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "-future", "run", "T2"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "1.3.40") {
		t.Fatal("-future did not add the development kernels")
	}
}

func TestBadFlag(t *testing.T) {
	a, _, _, _ := testApp()
	if code := a.Execute([]string{"-nonsense"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestCheckCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("check runs every exhibit")
	}
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"check"}); code != 0 {
		t.Fatalf("check failed (exit %d):\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "30/30 claims hold.") {
		t.Fatalf("unexpected check summary:\n%s", out.String())
	}
}

func TestProfilesDumpAndReload(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"profiles"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	dump := out.String()
	if !strings.Contains(dump, `"scan-all"`) || !strings.Contains(dump, "SunOS") {
		t.Fatalf("profiles dump incomplete:\n%.300s", dump)
	}
	// The dump must be loadable back through -profiles.
	b, bOut, _, _ := testApp()
	b.ReadFile = func(string) ([]byte, error) { return []byte(dump), nil }
	if code := b.Execute([]string{"-runs", "2", "-profiles", "x.json", "run", "T2"}); code != 0 {
		t.Fatalf("reload exit = %d", code)
	}
	// The run now includes built-ins twice over: just check one extra name.
	if !strings.Contains(bOut.String(), "SunOS 4.1.4") {
		t.Fatal("extra profiles not benchmarked")
	}
}

func TestProfilesFlagBadFile(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"-profiles", "missing.json", "run", "T2"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if errb.Len() == 0 {
		t.Fatal("no error reported")
	}
}

func TestProfilesFlagBadJSON(t *testing.T) {
	a, _, errb, _ := testApp()
	a.ReadFile = func(string) ([]byte, error) { return []byte(`[{"Name":"X"}]`), nil }
	if code := a.Execute([]string{"-profiles", "x.json", "run", "T2"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "profile") {
		t.Fatalf("validation error not surfaced: %s", errb.String())
	}
}

func TestTraceCommand(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"trace"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"dispatch", "pipe-write", "wake", "scanned 3", "miss true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trace output missing %q", want)
		}
	}
	// Solaris' trace must show its expensive dispatches.
	if !strings.Contains(out.String(), "Solaris 2.4 — one") {
		t.Error("trace should cover every system")
	}
}

func TestHTMLCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("html runs every exhibit")
	}
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "html"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	doc := out.String()
	if !strings.Contains(doc, "<!DOCTYPE html>") || !strings.Contains(doc, "F12") {
		t.Fatalf("html output malformed: %.200s", doc)
	}
}

func TestNewAppBindsRealEnvironment(t *testing.T) {
	var out, errb bytes.Buffer
	a := NewApp(&out, &errb)
	if a.ReadFile == nil || a.CreateFile == nil || a.MkdirAll == nil {
		t.Fatal("NewApp left hooks nil")
	}
	if code := a.Execute([]string{"list"}); code != 0 {
		t.Fatal("real-environment app cannot list")
	}
}

func TestExperimentsCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments runs every exhibit and claim")
	}
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "experiments"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	doc := out.String()
	for _, want := range []string{
		"# EXPERIMENTS — paper vs. measured",
		"## T7 —", "## F13 —", "## A7 —", "## X2 —",
		"## Claim audit", "| C30 |",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("experiments output missing %q", want)
		}
	}
}

func TestFlagsAfterCommand(t *testing.T) {
	// The flag package stops at the first positional; Execute re-parses so
	// `run T2 -j 2 -runs 3` works the same as `-j 2 -runs 3 run T2`.
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"run", "T2", "-j", "2", "-runs", "3"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "System Call") {
		t.Fatalf("interleaved flags dropped the run:\n%s", out.String())
	}

	b, bOut, bErr, _ := testApp()
	if code := b.Execute([]string{"-j", "2", "-runs", "3", "run", "T2"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, bErr.String())
	}
	if out.String() != bOut.String() {
		t.Fatal("flag position changed the output")
	}
}

func TestRunParallelStdoutIdentical(t *testing.T) {
	// The tentpole guarantee at the CLI layer: -j N never changes a byte
	// of stdout.
	serial, sOut, _, _ := testApp()
	if code := serial.Execute([]string{"-runs", "3", "-j", "1", "run", "T2", "F3", "A1"}); code != 0 {
		t.Fatalf("serial exit = %d", code)
	}
	par, pOut, _, _ := testApp()
	if code := par.Execute([]string{"-runs", "3", "-j", "8", "run", "T2", "F3", "A1"}); code != 0 {
		t.Fatalf("parallel exit = %d", code)
	}
	if sOut.String() != pOut.String() {
		t.Fatal("-j 8 stdout differs from -j 1")
	}
}

func TestStatsGoToStderrOnly(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "-j", "2", "-stats", "run", "T2"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"runner:", "sweep memo:", "slowest:"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errb.String())
		}
		if strings.Contains(out.String(), want) {
			t.Errorf("stats leaked into stdout (%q)", want)
		}
	}

	// Without -stats, stderr stays silent.
	b, _, bErr, _ := testApp()
	if code := b.Execute([]string{"-runs", "3", "run", "T2"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if bErr.Len() != 0 {
		t.Fatalf("unexpected stderr without -stats: %s", bErr.String())
	}
}

func TestSensitivityCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity runs perturbed replicas")
	}
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-runs", "3", "-trials", "1", "-eps", "0.05", "sensitivity"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "claims survive") {
		t.Fatalf("sensitivity summary missing:\n%.300s", out.String())
	}
}

// The profiling flags must work on any subcommand, writing both pprof
// files through the injectable CreateFile.
func TestProfileFlagsWriteProfiles(t *testing.T) {
	a, _, errb, files := testApp()
	if code := a.Execute([]string{"-cpuprofile", "cpu.pb", "-memprofile", "mem.pb", "list"}); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errb.String())
	}
	for _, path := range []string{"cpu.pb", "mem.pb"} {
		b, ok := files[path]
		if !ok {
			t.Fatalf("%s was not created", path)
		}
		if b.Len() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestProfileFileCreateError(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		a, _, errb, _ := testApp()
		a.CreateFile = func(path string) (io.WriteCloser, error) {
			return nil, fmt.Errorf("disk full: %s", path)
		}
		if code := a.Execute([]string{flag, "p.pb", "list"}); code != 2 {
			t.Fatalf("%s: exit = %d, want 2", flag, code)
		}
		if !strings.Contains(errb.String(), "disk full") {
			t.Fatalf("%s: error not reported: %s", flag, errb.String())
		}
	}
}

func TestMetricsCommandPhaseSums(t *testing.T) {
	// The acceptance criterion: `pentiumbench metrics F1` prints a
	// per-phase table whose phase columns sum to the reported total
	// within float tolerance.
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"metrics", "F1"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	text := out.String()
	if !strings.Contains(text, "per-phase attribution (µs)") {
		t.Fatalf("missing table header:\n%s", text)
	}
	rows := 0
	cols := 0
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		// The header row fixes the table width; data rows carry exactly
		// that many trailing numeric columns after the system label
		// (which can itself contain version numbers like "Solaris 2.4").
		if len(fields) > 1 && fields[0] == "system" {
			cols = len(fields) - 1
			continue
		}
		if cols < 2 || len(fields) <= cols {
			continue
		}
		nums := make([]float64, 0, cols)
		bad := false
		for _, f := range fields[len(fields)-cols:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				bad = true
				break
			}
			nums = append(nums, v)
		}
		if bad {
			continue
		}
		total := nums[len(nums)-1]
		var sum float64
		for _, v := range nums[:len(nums)-1] {
			sum += v
		}
		if diff := sum - total; diff > 1e-6*total || diff < -1e-6*total {
			t.Errorf("row %q: phases sum %.4f != total %.4f", line, sum, total)
		}
		rows++
	}
	if rows < 3 {
		t.Fatalf("expected a row per system, found %d:\n%s", rows, text)
	}
}

func TestMetricsNeedsIDs(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"metrics"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "observable") {
		t.Fatalf("error should list observable ids: %s", errb.String())
	}
}

func TestMetricsUnknownID(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"metrics", "F99"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "F99") {
		t.Fatalf("error should name the id: %s", errb.String())
	}
}

func TestTraceChromeExport(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"trace", "F12"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	var events []map[string]any
	if err := json.Unmarshal(out.Bytes(), &events); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export is empty")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		ph, _ := e["ph"].(string)
		kinds[ph] = true
	}
	for _, want := range []string{"M", "B", "E"} {
		if !kinds[want] {
			t.Errorf("chrome export missing %q events", want)
		}
	}
}

func TestTraceExportIdenticalAcrossWorkers(t *testing.T) {
	serial, sOut, _, _ := testApp()
	if code := serial.Execute([]string{"-j", "1", "trace", "F12", "F13"}); code != 0 {
		t.Fatal("serial trace failed")
	}
	par, pOut, _, _ := testApp()
	if code := par.Execute([]string{"-j", "8", "trace", "F12", "F13"}); code != 0 {
		t.Fatal("parallel trace failed")
	}
	if !bytes.Equal(sOut.Bytes(), pOut.Bytes()) {
		t.Fatal("-j 8 chrome trace differs from -j 1")
	}
}

func TestTraceTextFormat(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"trace", "F12", "-format", "text"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "spans") || !strings.Contains(out.String(), "tracks") {
		t.Fatalf("text format missing span summary:\n%s", out.String())
	}
}

func TestTraceBadFormat(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"trace", "F12", "-format", "yaml"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "yaml") {
		t.Fatalf("error should name the format: %s", errb.String())
	}
}

func TestTraceProcsFlag(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"trace", "-procs", "4"}); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out.String(), "one 4-process token-ring lap") {
		t.Fatalf("-procs did not change the ring size:\n%s", out.String())
	}
	b, _, errb, _ := testApp()
	if code := b.Execute([]string{"trace", "-procs", "1"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-procs") {
		t.Fatalf("error should mention -procs: %s", errb.String())
	}
}

// footerCount runs a metrics command and returns the number its footer
// line starting with prefix reports.
func footerCount(t *testing.T, prefix string, args ...string) int64 {
	t.Helper()
	a, out, errb, _ := testApp()
	if code := a.Execute(args); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			n, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
			if err != nil {
				t.Fatalf("%v: footer line %q: %v", args, line, err)
			}
			return n
		}
	}
	t.Fatalf("%v: no footer line starting %q:\n%s", args, prefix, out)
	return 0
}

// observeRuns observes ids as the CLI views do, on two workers.
func observeRuns(t *testing.T, ids []string, opts core.ObserveOpts) []*core.Observation {
	t.Helper()
	obsv, err := core.NewRunner(2).ObserveRuns(core.DefaultConfig(), ids, opts)
	if err != nil {
		t.Fatal(err)
	}
	return obsv
}

// TestSuiteSumsExemplarDrops checks the metrics footer's eviction count
// against the runs it renders: with one exemplar kept per window, most
// candidates are evicted, and the footer must give the sum of every
// run's evictions.
func TestSuiteSumsExemplarDrops(t *testing.T) {
	var want int64
	for _, o := range observeRuns(t, []string{"S1"}, core.ObserveOpts{ExemplarK: 1}) {
		for _, run := range o.Runs {
			want += run.ExemplarDrops
		}
	}
	got := footerCount(t, "exemplars: ", "-exemplars", "1", "metrics", "S1")
	if want <= 0 || got != want {
		t.Fatalf("footer evictions = %d; want the runs' positive sum %d", got, want)
	}
}

// TestMetricsFooterSumsTraceDrops checks the footer's trace-drop count
// against the runs it renders: F1's rings wrap in every personality, and
// the footer must give the sum of every run's ring drops.
func TestMetricsFooterSumsTraceDrops(t *testing.T) {
	var want int64
	var runs int
	for _, o := range observeRuns(t, []string{"F1", "F12"}, core.ObserveOpts{}) {
		for _, run := range o.Runs {
			want += int64(run.Process.Dropped)
			if run.Process.Dropped > 0 {
				runs++
			}
		}
	}
	got := footerCount(t, "recorder: ", "metrics", "F1", "F12")
	if runs < 2 || got != want {
		t.Fatalf("footer drops = %d; want %d, summed over %d runs that drop (at least 2)", got, want, runs)
	}
}

func TestMetricsFooterReportsRecorderDrops(t *testing.T) {
	// The footer surfaces obs.Recorder ring drops so a truncated capture
	// is never mistaken for a complete one.
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"metrics", "F12"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "trace events dropped") {
		t.Fatalf("metrics footer missing drop count:\n%s", out.String())
	}
}
