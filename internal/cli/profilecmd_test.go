package cli

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline"
)

func TestProfileTopFormat(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"profile", "F12"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"flat", "cum", "spans", "frame", "Linux 1.2.8", "100.00%"} {
		if !strings.Contains(s, want) {
			t.Errorf("top output missing %q:\n%s", want, s)
		}
	}
}

func TestProfileFoldedFormat(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"profile", "T2", "-format", "folded"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) == 0 {
		t.Fatal("folded output empty")
	}
	prev := ""
	for _, l := range lines {
		// frame names may contain spaces; the weight follows the LAST space
		cut := strings.LastIndex(l, " ")
		if cut < 0 {
			t.Fatalf("bad folded line %q", l)
		}
		stack, weight := l[:cut], l[cut+1:]
		if !strings.Contains(stack, ";") {
			t.Fatalf("folded line %q has no stack separator", l)
		}
		if _, err := strconv.ParseInt(weight, 10, 64); err != nil {
			t.Fatalf("folded line %q: weight %q not an integer", l, weight)
		}
		if stack <= prev {
			t.Fatalf("folded stacks not sorted: %q after %q", stack, prev)
		}
		prev = stack
	}
}

func TestProfilePprofToFile(t *testing.T) {
	a, out, errb, files := testApp()
	if code := a.Execute([]string{"profile", "T2", "-format", "pprof", "-o", "prof.pb"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	f, ok := files["prof.pb"]
	if !ok || f.Len() == 0 {
		t.Fatal("pprof output file missing or empty")
	}
	if !strings.Contains(out.String(), "wrote prof.pb") {
		t.Fatalf("no confirmation on stdout: %s", out.String())
	}
	if !bytes.Contains(f.Bytes(), []byte("virtualtime")) {
		t.Fatal("pprof file missing the virtualtime sample type string")
	}
}

func TestProfileIdenticalAcrossWorkers(t *testing.T) {
	for _, format := range []string{"top", "folded", "pprof"} {
		serial, sOut, _, _ := testApp()
		if code := serial.Execute([]string{"-j", "1", "profile", "T2", "F12", "F13", "-format", format}); code != 0 {
			t.Fatalf("%s: serial profile failed", format)
		}
		par, pOut, _, _ := testApp()
		if code := par.Execute([]string{"-j", "8", "profile", "T2", "F12", "F13", "-format", format}); code != 0 {
			t.Fatalf("%s: parallel profile failed", format)
		}
		if !bytes.Equal(sOut.Bytes(), pOut.Bytes()) {
			t.Fatalf("%s: -j 8 profile differs from -j 1", format)
		}
	}
}

func TestProfileTopFlagTruncates(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"profile", "F12", "-top", "1"}); code != 0 {
		t.Fatal("profile -top failed")
	}
	if !strings.Contains(out.String(), "more frames)") {
		t.Fatalf("-top 1 should leave a truncation note:\n%s", out.String())
	}
}

func TestProfileBadFormat(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"profile", "T2", "-format", "svg"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "svg") {
		t.Fatalf("error should name the format: %s", errb.String())
	}
}

func TestProfileNeedsIDs(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"profile"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "observable") {
		t.Fatalf("error should list observable ids: %s", errb.String())
	}
}

func TestBaselineRecordThenCheckPasses(t *testing.T) {
	a, out, errb, files := testApp()
	if code := a.Execute([]string{"baseline", "record", "T2", "F12", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "wrote b.json") {
		t.Fatalf("record gave no confirmation: %s", out.String())
	}
	if _, ok := files["b.json"]; !ok {
		t.Fatal("baseline file not written")
	}

	// check re-reads the file through the same in-memory filesystem.
	b := &App{Stdout: &bytes.Buffer{}, Stderr: &bytes.Buffer{},
		ReadFile: a.ReadFile, CreateFile: a.CreateFile, MkdirAll: a.MkdirAll}
	if code := b.Execute([]string{"baseline", "check", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("clean check exit = %d: %s\n%s", code,
			b.Stdout.(*bytes.Buffer).String(), b.Stderr.(*bytes.Buffer).String())
	}
	if !strings.Contains(b.Stdout.(*bytes.Buffer).String(), "match") {
		t.Fatalf("clean check should report the match: %s", b.Stdout.(*bytes.Buffer).String())
	}
}

// TestBaselineRecordWritesProfileNs holds the baseline capture to the
// profiles it records: the runs come unfolded, and the capture folds
// them, so every run of a probe that records spans gets a nonzero
// profile_ns.
func TestBaselineRecordWritesProfileNs(t *testing.T) {
	a, _, errb, files := testApp()
	ids := []string{"T2", "T4", "F1", "F12"}
	if code := a.Execute(append([]string{"baseline", "record", "-baseline", "b.json"}, ids...)); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	f, err := baseline.Load(files["b.json"].Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		runs := f.Experiments[id].Runs
		if len(runs) != 3 {
			t.Fatalf("%s: %d runs recorded, want 3", id, len(runs))
		}
		for label, run := range runs {
			if run.ProfileNs <= 0 {
				t.Errorf("%s / %s: profile_ns = %d, want the fold's positive weight", id, label, run.ProfileNs)
			}
		}
	}
}

func TestBaselineCheckCatchesInjectedRegression(t *testing.T) {
	a, _, errb, files := testApp()
	if code := a.Execute([]string{"baseline", "record", "F12", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	// Tamper with an integer ledger in the recorded file: a one-count
	// change must fail the gate.
	tampered := strings.Replace(files["b.json"].String(),
		`"disk.writes": 400`, `"disk.writes": 401`, 1)
	if tampered == files["b.json"].String() {
		t.Fatalf("fixture drift: disk.writes ledger not found in baseline:\n%s",
			files["b.json"].String())
	}
	files["b.json"] = bytes.NewBufferString(tampered)

	var out, errb2 bytes.Buffer
	b := &App{Stdout: &out, Stderr: &errb2,
		ReadFile: a.ReadFile, CreateFile: a.CreateFile, MkdirAll: a.MkdirAll}
	if code := b.Execute([]string{"baseline", "check", "-baseline", "b.json"}); code != 1 {
		t.Fatalf("tampered check exit = %d, want 1: %s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"rank", "changed", "disk.writes", "401", "400"} {
		if !strings.Contains(s, want) {
			t.Errorf("regression table missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(errb2.String(), "baseline check failed") {
		t.Fatalf("failure not reported on stderr: %s", errb2.String())
	}
}

func TestBaselineCheckUsesRecordedSeed(t *testing.T) {
	a, _, errb, files := testApp()
	if code := a.Execute([]string{"-seed", "7", "baseline", "record", "T2", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(files["b.json"].String(), `"seed": 7`) {
		t.Fatal("recorded seed not serialized")
	}
	// A check run with a different -seed must still pass: the gate runs
	// with the file's seed, making it self-contained.
	var out, errb2 bytes.Buffer
	b := &App{Stdout: &out, Stderr: &errb2,
		ReadFile: a.ReadFile, CreateFile: a.CreateFile, MkdirAll: a.MkdirAll}
	if code := b.Execute([]string{"-seed", "99", "baseline", "check", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("check exit = %d: %s\n%s", code, out.String(), errb2.String())
	}
}

// TestBaselineCheckIgnoresProcs: the baseline file records no probe
// options, so a check with -procs must run the probes at the defaults
// they were recorded with, as /api/baseline/diff does.
func TestBaselineCheckIgnoresProcs(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"baseline", "record", "T2", "F1", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	var out, errb2 bytes.Buffer
	b := &App{Stdout: &out, Stderr: &errb2,
		ReadFile: a.ReadFile, CreateFile: a.CreateFile, MkdirAll: a.MkdirAll}
	if code := b.Execute([]string{"-procs", "4", "baseline", "check", "-baseline", "b.json"}); code != 0 {
		t.Fatalf("-procs 4 check exit = %d: %s\n%s", code, out.String(), errb2.String())
	}
}

func TestBaselineDiff(t *testing.T) {
	a, _, errb, files := testApp()
	if code := a.Execute([]string{"baseline", "record", "T2", "-baseline", "a.json"}); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	files["same.json"] = bytes.NewBuffer(append([]byte(nil), files["a.json"].Bytes()...))

	var out bytes.Buffer
	b := &App{Stdout: &out, Stderr: &bytes.Buffer{},
		ReadFile: a.ReadFile, CreateFile: a.CreateFile, MkdirAll: a.MkdirAll}
	if code := b.Execute([]string{"baseline", "diff", "a.json", "same.json"}); code != 0 {
		t.Fatalf("identical diff exit = %d: %s", code, out.String())
	}
	if !strings.Contains(out.String(), "agree") {
		t.Fatalf("diff of identical files should agree: %s", out.String())
	}

	files["other.json"] = bytes.NewBufferString(strings.Replace(files["a.json"].String(),
		`"kernel.processes": `, `"kernel.procs.renamed": `, 1))
	var out2 bytes.Buffer
	c := &App{Stdout: &out2, Stderr: &bytes.Buffer{},
		ReadFile: a.ReadFile, CreateFile: a.CreateFile, MkdirAll: a.MkdirAll}
	code := c.Execute([]string{"baseline", "diff", "a.json", "other.json"})
	if code != 1 {
		t.Fatalf("differing diff exit = %d, want 1: %s", code, out2.String())
	}
	if !strings.Contains(out2.String(), "missing") || !strings.Contains(out2.String(), "added") {
		t.Fatalf("diff should show missing and added metrics:\n%s", out2.String())
	}
}

func TestBaselineBadVerb(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"baseline"}); code != 2 {
		t.Fatalf("bare baseline exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "record") {
		t.Fatalf("error should name the verbs: %s", errb.String())
	}
	b, _, errb2, _ := testApp()
	if code := b.Execute([]string{"baseline", "erase"}); code != 2 {
		t.Fatalf("unknown verb exit = %d, want 2", code)
	}
	if !strings.Contains(errb2.String(), "erase") {
		t.Fatalf("error should echo the verb: %s", errb2.String())
	}
}

func TestBaselineCheckMissingFile(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"baseline", "check", "-baseline", "nope.json"}); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "nope.json") {
		t.Fatalf("error should name the file: %s", errb.String())
	}
}
