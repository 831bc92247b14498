package cli

import (
	"bytes"
	"strings"
	"testing"
)

// TestScaleCommand is the CLI face of the scale-out tentpole: the sweep
// table carries every personality, the percentile columns and the
// decade populations up to -clients.
func TestScaleCommand(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"-clients", "1000", "run", "S1", "-format=table"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"NFS server scale-out: 8 nfsd slots",
		"clients", "ops/s", "p50 ms", "p99 ms", "p999 ms", "retrans", "shed",
		"Linux 1.2.8:", "FreeBSD 2.0.5R:", "Solaris 2.4:",
		"\n         10 ", "\n        100 ", "\n       1000 ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scale output missing %q:\n%s", want, text)
		}
	}
	if errb.Len() != 0 {
		t.Fatalf("unexpected stderr: %s", errb.String())
	}
}

// The scale report is a pure function of the seed: two invocations are
// byte-identical, and a different seed changes the bytes.
func TestScaleOutputDeterministic(t *testing.T) {
	run := func(args ...string) string {
		a, out, errb, _ := testApp()
		if code := a.Execute(args); code != 0 {
			t.Fatalf("exit = %d: %s", code, errb.String())
		}
		return out.String()
	}
	first := run("-clients", "1000", "run", "S1", "-format=table")
	second := run("-clients", "1000", "run", "S1", "-format=table")
	if first != second {
		t.Fatal("twin scale runs differ")
	}
	if reseeded := run("-clients", "1000", "-seed", "2", "run", "S1", "-format=table"); reseeded == first {
		t.Fatal("seed change did not change the scale report")
	}
}

// -nfsd reshapes the server: more worker slots must change the header
// and (at a saturated point) the served throughput.
func TestScaleNfsdFlag(t *testing.T) {
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"-clients", "1000", "-nfsd", "16", "run", "S1", "-format=table"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "16 nfsd slots") {
		t.Fatalf("-nfsd not reflected:\n%s", out.String())
	}
}

// Satellite 6: a lossy plan degrades the curves — the report names the
// plan, differs from the clean run, and shows nonzero retransmits —
// instead of crashing anything.
func TestScaleWithFaultPlan(t *testing.T) {
	clean, cleanOut, _, _ := testApp()
	if code := clean.Execute([]string{"-clients", "100", "run", "S1", "-format=table"}); code != 0 {
		t.Fatal("clean scale failed")
	}
	lossy, lossyOut, errb := faultApp()
	if code := lossy.Execute([]string{"-clients", "100", "run", "S1", "-format=table", "-faults", "plan.json"}); code != 0 {
		t.Fatalf("lossy exit = %d: %s", code, errb.String())
	}
	text := lossyOut.String()
	if !strings.Contains(text, `fault plan "test-lossy" injected`) {
		t.Fatalf("plan name missing:\n%s", text)
	}
	if text == cleanOut.String() {
		t.Fatal("fault plan did not change the scale report")
	}
	// Every personality's rows must show retransmits under 5% loss:
	// the retrans column sits between the util%% and drops columns.
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "%") && strings.Contains(line, " 0        0       0") {
			t.Fatalf("lossy row with zero retransmits: %q", line)
		}
	}
}

// The scale exhibits ride the persistent memo like every other
// experiment: a cold `run S1 S2` fills the store, the warm re-run is
// served from it, and all three renders are byte-identical.
func TestMemoColdWarmScaleExhibits(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-runs", "3", "run", "S1", "S2", "-stats"}
	plain, plainOut, _, _ := testApp()
	if code := plain.Execute(args); code != 0 {
		t.Fatalf("plain exit = %d", code)
	}
	cold, coldOut, coldErr, _ := testApp()
	if code := cold.Execute(append([]string{"-memo", dir}, args...)); code != 0 {
		t.Fatalf("cold exit = %d: %s", code, coldErr.String())
	}
	warm, warmOut, warmErr, _ := testApp()
	if code := warm.Execute(append([]string{"-memo", dir}, args...)); code != 0 {
		t.Fatalf("warm exit = %d: %s", code, warmErr.String())
	}
	if coldOut.String() != plainOut.String() {
		t.Fatal("attaching -memo changed the cold scale run's stdout")
	}
	if warmOut.String() != coldOut.String() {
		t.Fatal("warm (memoized) scale stdout differs from cold stdout")
	}
	if !strings.Contains(coldErr.String(), "memo store: 0 hits, 2 misses") {
		t.Errorf("cold stats missing store misses:\n%s", coldErr.String())
	}
	if !strings.Contains(warmErr.String(), "memo store: 2 hits, 0 misses") {
		t.Errorf("warm stats missing store hits:\n%s", warmErr.String())
	}
}

// Each selected table prints once, in presentation order; "all" selects
// every table, and -stats stays silent.
func TestRunTablesInPresentationOrder(t *testing.T) {
	run := func(args ...string) string {
		a, out, errb, _ := testApp()
		if code := a.Execute(append([]string{"-clients", "1000", "-stats"}, args...)); code != 0 || errb.Len() != 0 {
			t.Fatalf("%v: exit = %d: %s", args, code, errb.String())
		}
		return out.String()
	}
	scale := run("run", "S1", "-format=table")
	locks := run("run", "L1", "-format=table")
	ipc := run("run", "I1", "-format=table")
	if run("run", "all", "-format=table") != scale+locks+ipc {
		t.Error("run all -format=table is not the scale, locks and ipc tables in order")
	}
	if run("run", "I1", "S2", "S1", "-format=table") != scale+ipc {
		t.Error("run I1 S2 S1 -format=table is not the scale then the ipc table")
	}
}

// run refuses a format, an id or a flag its format does not take, with
// exit 2 and the choices it does take.
func TestRunFormatErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown format", []string{"run", "T2", "-format=yaml"}, `unknown run format "yaml" (want text, csv, svg or table)`},
		{"id with no table", []string{"run", "S1", "T2", "-format=table"}, "T2 has no model table (tables: [S1 S2 L1 L2 I1])"},
		{"faults on the locks table", []string{"run", "S1", "L1", "-format=table", "-faults", "plan.json"}, "-faults does not apply to the [L1 L2] table"},
		{"faults on every table", []string{"run", "all", "-format=table", "-faults", "plan.json"}, "-faults does not apply to the [L1 L2] table"},
		{"memo on the tables", []string{"run", "S1", "-format=table", "-memo", t.TempDir()}, "-memo does not apply to run -format=table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, out, errb, files := testApp()
			files["plan.json"] = bytes.NewBufferString(planJSON)
			if code := a.Execute(tc.args); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("stderr %q does not contain %q", errb.String(), tc.want)
			}
			if out.Len() != 0 {
				t.Fatalf("a refused run printed:\n%s", out.String())
			}
		})
	}
}
