package cli

import (
	"bytes"
	"strings"
	"testing"
)

// planJSON is a small but active plan used across the CLI fault tests.
const planJSON = `{
  "name": "test-lossy",
  "disk": {"latency_spike_prob": 0.05, "transient_error_prob": 0.02},
  "net":  {"udp_loss_prob": 0.05, "tcp_seg_loss_prob": 0.02},
  "cache": {"page_steal_prob": 0.01}
}`

func faultApp() (*App, *bytes.Buffer, *bytes.Buffer) {
	a, out, errb, files := testApp()
	files["plan.json"] = bytes.NewBufferString(planJSON)
	return a, out, errb
}

func TestFaultsCommandRunsPlan(t *testing.T) {
	a, out, errb := faultApp()
	if code := a.Execute([]string{"faults", "T7", "-faults", "plan.json"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		`under plan "test-lossy"`, "clean", "faulted", "delta",
		"injected (summed across systems):", "fault.net.rpc_retransmits",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("faults output missing %q:\n%s", want, text)
		}
	}
}

func TestFaultsAllExpandsToFaultableIDs(t *testing.T) {
	a, out, errb := faultApp()
	if code := a.Execute([]string{"faults", "all", "-faults", "plan.json"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	for _, id := range []string{"T5", "T6", "T7", "F12", "F13"} {
		if !strings.Contains(out.String(), id+" — ") {
			t.Errorf("faults all skipped %s", id)
		}
	}
}

// Satellite 5's regression: the faulted report is byte-identical at any
// worker count — every fault arrival derives from the per-(experiment,
// personality) RNG fork, never from scheduling.
func TestFaultsOutputIdenticalAcrossWorkers(t *testing.T) {
	serial, sOut, sErr := faultApp()
	if code := serial.Execute([]string{"-j", "1", "faults", "all", "-faults", "plan.json"}); code != 0 {
		t.Fatalf("serial exit = %d: %s", code, sErr.String())
	}
	par, pOut, pErr := faultApp()
	if code := par.Execute([]string{"-j", "8", "faults", "all", "-faults", "plan.json"}); code != 0 {
		t.Fatalf("parallel exit = %d: %s", code, pErr.String())
	}
	if !bytes.Equal(sOut.Bytes(), pOut.Bytes()) {
		t.Fatal("-j 8 faults report differs from -j 1")
	}
}

// Golden error paths: every bad invocation exits nonzero with a one-line
// diagnostic — never a stack trace.
func TestFaultsErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no plan", []string{"faults", "T7"}, "faults needs -faults"},
		{"no ids", []string{"faults", "-faults", "plan.json"}, "faultable:"},
		{"unknown id", []string{"faults", "T99", "-faults", "plan.json"}, "T99"},
		{"unreadable plan", []string{"faults", "T7", "-faults", "nope.json"}, "nope.json"},
		{"inert plan", []string{"faults", "T7", "-faults", "inert.json"}, "inert"},
		{"typo in plan field", []string{"faults", "T7", "-faults", "typo.json"}, "bad plan"},
		{"out-of-range probability", []string{"faults", "T7", "-faults", "hot.json"}, "udp_loss_prob"},
		{"plan flag is gone", []string{"faults", "T7", "-plan", "plan.json"}, "flag provided but not defined: -plan"},
		{"faults flag on run", []string{"run", "T2", "-faults", "plan.json"}, "-faults does not apply"},
		{"unreadable faults flag", []string{"metrics", "T7", "-faults", "nope.json"}, "nope.json"},
		{"spike beyond an hour", []string{"faults", "F12", "-faults", "spike.json"}, "disk.latency_spike_ms = 1e+300 must be non-negative and at most 3600000"},
		{"timeout beyond an hour", []string{"-clients", "100", "run", "S1", "-format=table", "-faults", "rto.json"}, "net.rto_ms = 1e+300 must be non-negative and at most 3600000"},
		{"retries beyond 64", []string{"faults", "F12", "-faults", "retries.json"}, "disk.max_retries = 1e+12 must be non-negative and at most 64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, _, errb, files := testApp()
			files["plan.json"] = bytes.NewBufferString(planJSON)
			files["inert.json"] = bytes.NewBufferString(`{"name": "inert"}`)
			files["typo.json"] = bytes.NewBufferString(`{"net": {"udp_loss_probe": 0.1}}`)
			files["hot.json"] = bytes.NewBufferString(`{"net": {"udp_loss_prob": 1.0}}`)
			files["spike.json"] = bytes.NewBufferString(`{"disk":{"latency_spike_prob":0.5,"latency_spike_ms":1e300}}`)
			files["rto.json"] = bytes.NewBufferString(`{"net":{"udp_loss_prob":0.5,"rto_ms":1e300,"max_backoff_ms":1e300}}`)
			files["retries.json"] = bytes.NewBufferString(`{"disk":{"transient_error_prob":1,"max_retries":1000000000000}}`)
			if code := a.Execute(tc.args); code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
			msg := errb.String()
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("stderr %q does not contain %q", msg, tc.want)
			}
			if strings.Contains(msg, "goroutine") || strings.Contains(msg, "panic:") {
				t.Fatalf("stack trace leaked:\n%s", msg)
			}
		})
	}
}

// Satellite 3: legal-but-meaningless numeric flag values get one-line
// usage errors, and malformed syntax is caught by the flag package —
// no input may reach a panic.
func TestNumericFlagRangeErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"runs zero", []string{"-runs", "0", "run", "T2"}, "-runs must be positive"},
		{"runs negative", []string{"-runs", "-3", "run", "T2"}, "-runs must be positive"},
		{"j negative", []string{"-j", "-1", "run", "T2"}, "-j must be >= 0"},
		{"procs negative", []string{"-procs", "-4", "trace"}, "-procs must be >= 0"},
		{"procs one", []string{"-procs", "1", "metrics", "F1"}, "-procs must be 0 (the command default) or at least 2"},
		{"trials zero", []string{"-trials", "0", "sensitivity"}, "-trials must be positive"},
		{"top negative", []string{"-top", "-1", "profile", "F12"}, "-top must be >= 0"},
		{"clients negative", []string{"-clients", "-5", "run", "S1", "-format=table"}, "-clients must be >= 0"},
		{"nfsd negative", []string{"-nfsd", "-2", "run", "S1", "-format=table"}, "-nfsd must be >= 0"},
		{"clients above cap", []string{"-clients", "10000001", "run", "S1", "-format=table"}, "-clients must be at most 10000000 (got 10000001)"},
		{"nfsd above cap", []string{"-nfsd", "1025", "run", "S1", "-format=table"}, "-nfsd must be at most 1024 (got 1025)"},
		{"procs above cap", []string{"-procs", "1025", "metrics", "F1"}, "-procs must be at most 1024 (got 1025)"},
		{"runs above cap", []string{"-runs", "1001", "run", "all"}, "-runs must be at most 1000 (got 1001)"},
		{"trials above cap", []string{"-trials", "101", "sensitivity"}, "-trials must be at most 100 (got 101)"},
		{"j above cap", []string{"-j", "1025", "run", "T2"}, "-j must be at most 1024 (got 1025)"},
		{"eps nan", []string{"-eps", "NaN", "sensitivity"}, "-eps must be a finite non-negative number"},
		{"eps at bound", []string{"-eps", "1", "sensitivity"}, "-eps must be below 1, so every perturbation factor 1±eps stays positive (got 1)"},
		{"eps above bound", []string{"-eps", "3", "-trials", "1", "sensitivity"}, "-eps must be below 1"},
		{"tol negative", []string{"-tol", "-0.5", "baseline", "check"}, "-tol must be a finite non-negative number"},
		{"tol inf", []string{"-tol", "Inf", "baseline", "check"}, "-tol must be a finite non-negative number"},
		{"j malformed", []string{"-j", "many", "run", "T2"}, "invalid value"},
		{"tol malformed", []string{"-tol", "x", "baseline", "check"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, _, errb, _ := testApp()
			if code := a.Execute(tc.args); code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Fatalf("stderr %q does not contain %q", errb.String(), tc.want)
			}
		})
	}
}

// Observability probes accept -faults and report the injected counters in
// their metric tables, staying byte-identical across worker counts.
func TestMetricsWithFaultsShowsInjectedCounters(t *testing.T) {
	a, out, errb, files := testApp()
	files["plan.json"] = bytes.NewBufferString(planJSON)
	if code := a.Execute([]string{"metrics", "T7", "-faults", "plan.json"}); code != 0 {
		t.Fatalf("exit = %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fault.net.") {
		t.Fatalf("faulted metrics missing fault counters:\n%s", out.String())
	}
	// Without -faults the same probe carries no fault keys.
	b, bOut, _, _ := testApp()
	if code := b.Execute([]string{"metrics", "T7"}); code != 0 {
		t.Fatal("clean metrics failed")
	}
	if strings.Contains(bOut.String(), "fault.") {
		t.Fatal("clean metrics leaked fault counters")
	}
}
