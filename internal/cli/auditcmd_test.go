package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestAuditCommandText(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-clients", "500", "audit", "S1"}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	s := out.String()
	for _, want := range []string{"queueing-law audit", "verdict", "ok", "all invariants hold"} {
		if !strings.Contains(s, want) {
			t.Fatalf("audit output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "FAIL") {
		t.Fatalf("clean run reported a failure:\n%s", s)
	}
}

func TestAuditCommandJSON(t *testing.T) {
	a, out, _, _ := testApp()
	if code := a.Execute([]string{"-clients", "500", "-format", "json", "audit", "S2"}); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var obsv []struct {
		ID      string
		Reports []struct {
			System    string `json:"system"`
			Evaluated int    `json:"evaluated"`
			Failed    int    `json:"failed"`
		}
	}
	if err := json.Unmarshal(out.Bytes(), &obsv); err != nil {
		t.Fatalf("audit json: %v", err)
	}
	if len(obsv) != 1 || obsv[0].ID != "S2" || len(obsv[0].Reports) == 0 {
		t.Fatalf("unexpected audit json shape: %+v", obsv)
	}
	for _, rep := range obsv[0].Reports {
		if rep.Failed != 0 || rep.Evaluated < 20 {
			t.Fatalf("report %s: failed=%d evaluated=%d", rep.System, rep.Failed, rep.Evaluated)
		}
	}
}

func TestAuditCommandRejectsBadInput(t *testing.T) {
	a, _, errb, _ := testApp()
	if code := a.Execute([]string{"audit"}); code != 2 {
		t.Fatalf("bare audit exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "auditable") {
		t.Fatal("missing-ids error should list the auditable set")
	}
	a, _, errb, _ = testApp()
	if code := a.Execute([]string{"audit", "T2"}); code != 2 {
		t.Fatalf("audit T2 exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "not auditable") {
		t.Fatal("unknown-id error not reported")
	}
	a, _, errb, _ = testApp()
	if code := a.Execute([]string{"-format", "yaml", "audit", "S1"}); code != 2 {
		t.Fatalf("bad format exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown audit format") {
		t.Fatal("bad-format error not reported")
	}
	a, _, errb, _ = testApp()
	if code := a.Execute([]string{"-exemplars", "-1", "audit", "S1"}); code != 2 {
		t.Fatalf("negative -exemplars exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "-exemplars") {
		t.Fatal("negative -exemplars not rejected by range check")
	}
}

// The audit command runs each id's personalities on the -j pool; the
// verdicts keep profile order, so the bytes are the same at any -j.
func TestAuditCommandSameAtAnyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("audits every auditable id twice")
	}
	var outs [2]string
	for i, j := range []string{"1", "3"} {
		a, out, errb, _ := testApp()
		if code := a.Execute([]string{"-j", j, "-format", "json", "audit", "all"}); code != 0 {
			t.Fatalf("-j %s audit all: exit %d: %s", j, code, errb)
		}
		outs[i] = out.String()
	}
	if outs[0] != outs[1] {
		t.Fatal("audit all -format=json differs between -j 1 and -j 3")
	}
}

// L1 is audited through an audit-only probe, and that probe must not
// make L1 observable: the observable set stays the 17 ids the
// experiments listing shows, Runner.Observe, faults and baseline record
// refuse L1 with the observe error, metrics exits 2 and /api/metrics/L1
// is a 404. None of them may render or record an empty L1.
func TestAuditOnlyIDsStayOffOtherSurfaces(t *testing.T) {
	observable := []string{"T2", "T4", "T5", "T6", "T7", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F12", "F13", "S1", "S2"}
	if got := core.ObservableIDs(); !slices.Equal(got, observable) {
		t.Fatalf("ObservableIDs() = %v, want %v", got, observable)
	}
	if !slices.Contains(core.AuditableIDs(), "L1") {
		t.Fatalf("AuditableIDs() = %v lacks L1", core.AuditableIDs())
	}
	refusal := fmt.Sprintf("observe L1: core: no observability probe for \"L1\" (have %v)", observable)
	if _, err := core.NewRunner(1).Observe(core.DefaultConfig(), []string{"L1"}, core.ObserveOpts{}); err == nil || err.Error() != refusal {
		t.Errorf("Runner.Observe(L1): error %v, want %q", err, refusal)
	}
	plan, err := os.ReadFile("../../examples/lossy-nfs.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-faults", "plan.json", "faults", "L1"},
		{"baseline", "record", "L1"},
	} {
		a, out, errb, files := testApp()
		files["plan.json"] = bytes.NewBuffer(plan)
		if code := a.Execute(args); code != 2 || errb.String() != "pentiumbench: "+refusal+"\n" {
			t.Errorf("%v: exit %d, stderr %q; want 2 and the observe refusal", args, code, errb)
		}
		if out.Len() != 0 || len(files) != 1 {
			t.Errorf("%v: wrote %d stdout bytes and %d files, want none", args, out.Len(), len(files)-1)
		}
	}
	a, out, errb, _ := testApp()
	if code := a.Execute([]string{"metrics", "L1"}); code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), `"L1" is not observable`) {
		t.Errorf("metrics L1: exit %d, stdout %q, stderr %q; want 2 and the not-observable refusal", code, out, errb)
	}
	h := sharedRunHandler(cmdOpts{window: sim.Duration(100 * time.Millisecond)})
	if rec := serveRecorder(h, "/api/metrics/L1"); rec.Code != http.StatusNotFound {
		t.Errorf("/api/metrics/L1: status %d, want 404: %s", rec.Code, rec.Body)
	}
}
