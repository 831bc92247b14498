package bench

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// The issue's acceptance probe: MAB over NFS on a lossy-UDP plan must run
// to completion — the hard-mount retry/timeout/backoff path absorbs every
// lost RPC — and the retransmit work must be visible in the metrics, not
// silently swallowed.
func TestMABNFSCompletesOverLossyUDP(t *testing.T) {
	plan := &fault.Plan{Net: fault.NetFaults{
		UDPLossProb:   0.05,
		RTOMs:         100,
		BackoffFactor: 2,
		MaxBackoffMs:  3000,
	}}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func() (MABResult, *Scope) {
		o := &Scope{Faults: fault.New(plan, sim.NewRNG(7))}
		return o.MABNFS(osprofile.Solaris24(), ServerLinux, DefaultMAB(), 7), o
	}
	cleanObs := new(Scope)
	clean := cleanObs.MABNFS(osprofile.Solaris24(), ServerLinux, DefaultMAB(), 7)
	res, o := run()

	if res.Total <= 0 {
		t.Fatal("faulted MAB did not complete")
	}
	if res.Total <= clean.Total {
		t.Errorf("lossy run (%v) not slower than clean run (%v)", res.Total, clean.Total)
	}
	retrans, ok := o.Metrics.Get("nfs.retransmits")
	if !ok || retrans == 0 {
		t.Fatalf("nfs.retransmits = %v, %v: retries invisible in metrics", retrans, ok)
	}
	if v, ok := o.Metrics.Get("fault.net.rpc_retransmits"); !ok || v != retrans {
		t.Errorf("fault.net.rpc_retransmits = %v (%v), want %v", v, ok, retrans)
	}
	if v, ok := o.Metrics.Get("fault.net.rto_wait_us"); !ok || v == 0 {
		t.Errorf("fault.net.rto_wait_us = %v (%v): timeout waits unattributed", v, ok)
	}
	// A clean run's snapshot carries no fault keys at all — the committed
	// baseline stays byte-for-byte valid.
	for _, c := range cleanObs.Metrics.Counters {
		if len(c.Name) >= 6 && c.Name[:6] == "fault." {
			t.Errorf("clean run leaked fault metric %s", c.Name)
		}
	}
	// Same plan, same seed: the lossy run replays bit-identically.
	res2, o2 := run()
	if res2 != res {
		t.Error("faulted MAB result not deterministic")
	}
	if v, _ := o2.Metrics.Get("nfs.retransmits"); v != retrans {
		t.Errorf("retransmit count drifted across replays: %v vs %v", v, retrans)
	}
}
