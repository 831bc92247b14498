package cli

import (
	"encoding/json"
	"strings"
	"testing"
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
