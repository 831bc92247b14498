package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"negative prob", Plan{Disk: DiskFaults{LatencySpikeProb: -0.1}}, "disk.latency_spike_prob"},
		{"prob above one", Plan{Cache: CacheFaults{PageStealProb: 1.5}}, "cache.page_steal_prob"},
		{"udp loss of one hangs hard mounts", Plan{Net: NetFaults{UDPLossProb: 1}}, "udp_loss_prob"},
		{"tcp loss of one never drains", Plan{Net: NetFaults{TCPSegLossProb: 1}}, "tcp_seg_loss_prob"},
		{"negative spike", Plan{Disk: DiskFaults{LatencySpikeMs: -3}}, "non-negative"},
		{"backoff below one", Plan{Net: NetFaults{BackoffFactor: 0.5}}, "backoff_factor"},
		{"steal fraction of one empties the cache", Plan{Cache: CacheFaults{StealFraction: 1}}, "steal_fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) passed, want error about %s", tc.plan, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %s", err, tc.want)
			}
		})
	}
	zero := Plan{}
	if err := zero.Validate(); err != nil {
		t.Errorf("zero plan must validate: %v", err)
	}
	if zero.Active() {
		t.Error("zero plan must be inert")
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load([]byte(`{"net": {"udp_loss_probe": 0.1}}`)); err == nil {
		t.Fatal("a typo in a plan field must not silently disable the injector")
	}
	if _, err := Load([]byte(`{"net": {"udp_loss_prob": 0.1}`)); err == nil {
		t.Fatal("truncated JSON must not load")
	}
	p, err := Load([]byte(`{"name": "x", "net": {"udp_loss_prob": 0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Active() || p.Net.UDPLossProb != 0.1 {
		t.Fatalf("loaded plan %+v", p)
	}
}

func TestMarshalLoadRoundTrip(t *testing.T) {
	p := &Plan{
		Name:  "rt",
		Disk:  DiskFaults{LatencySpikeProb: 0.25, LatencySpikeMs: 10, MaxRetries: 3},
		Net:   NetFaults{UDPLossProb: 0.05, RTOMs: 50, BackoffFactor: 2, MaxBackoffMs: 400},
		Cache: CacheFaults{PageStealProb: 0.01, StealFraction: 0.5, MinCapacityMB: 2},
	}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if *q != *p {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, q)
	}
}

// TestNilInjectorsAreInert is the byte-identity guarantee for unfaulted
// runs: every draw on a nil injector returns the no-fault answer and,
// critically, consumes no RNG state.
func TestNilInjectorsAreInert(t *testing.T) {
	var d *DiskInjector
	var n *NetInjector
	var c *CacheInjector
	if d.AccessExtra(10, 20, 30) != 0 {
		t.Error("nil DiskInjector injected time")
	}
	if n.DropUDP() || n.DupUDP() || n.ReorderUDP() || n.DropSegment() || n.DropRPC() {
		t.Error("nil NetInjector dropped something")
	}
	if n.RTOWait(3) != 0 || n.AckDelay() != 0 {
		t.Error("nil NetInjector charged time")
	}
	if _, ok := c.StealTarget(1 << 20); ok {
		t.Error("nil CacheInjector stole pages")
	}
	inj := New(nil, nil)
	if inj.Active() {
		t.Error("New(nil) built live injectors")
	}
	inj = New(&Plan{}, sim.NewRNG(1))
	if inj.Disk != nil || inj.Net != nil || inj.Cache != nil {
		t.Error("inert plan built live injectors")
	}
}

// TestInjectorDeterminism: the same plan and seed replay the identical
// fault sequence; subsystem streams are independent of one another.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{
		Disk: DiskFaults{LatencySpikeProb: 0.3, TransientErrorProb: 0.2, SlowSectorProb: 0.1},
		Net:  NetFaults{UDPLossProb: 0.2, UDPDupProb: 0.1, TCPSegLossProb: 0.1, AckDelayUs: 100},
	}
	drive := func(inj Injectors) (uint64, sim.Duration) {
		var events uint64
		var extra sim.Duration
		for i := 0; i < 500; i++ {
			extra += inj.Disk.AccessExtra(sim.Duration(11*sim.Millisecond), sim.Duration(10*sim.Millisecond), sim.Duration(500*sim.Microsecond))
			if inj.Net.DropUDP() {
				events++
			}
			if inj.Net.DupUDP() {
				events++
			}
			if inj.Net.DropSegment() {
				events++
				extra += inj.Net.RTOWait(int(events % 4))
			}
		}
		return events, extra
	}
	a := New(plan, sim.NewRNG(42))
	b := New(plan, sim.NewRNG(42))
	ea, xa := drive(a)
	eb, xb := drive(b)
	if ea != eb || xa != xb {
		t.Fatalf("same (plan, seed) diverged: %d/%v vs %d/%v", ea, xa, eb, xb)
	}
	if ea == 0 || xa == 0 {
		t.Fatal("no faults fired at these probabilities")
	}
	if a.Disk.Spikes != b.Disk.Spikes || a.Net.UDPLost != b.Net.UDPLost {
		t.Error("counters diverged between identical runs")
	}
}

func TestRTOWaitBacksOffAndCaps(t *testing.T) {
	inj := New(&Plan{Net: NetFaults{UDPLossProb: 0.5, RTOMs: 100, BackoffFactor: 2, MaxBackoffMs: 350}}, sim.NewRNG(1))
	w0 := inj.Net.RTOWait(0)
	w1 := inj.Net.RTOWait(1)
	w2 := inj.Net.RTOWait(2)
	w9 := inj.Net.RTOWait(9)
	if w0 != sim.Duration(100*sim.Millisecond) || w1 != sim.Duration(200*sim.Millisecond) {
		t.Errorf("backoff start %v, %v", w0, w1)
	}
	if w2 != sim.Duration(350*sim.Millisecond) || w9 != w2 {
		t.Errorf("cap not applied: %v, %v", w2, w9)
	}
	if inj.Net.RTOWaitTime != w0+w1+w2+w9 {
		t.Errorf("RTOWaitTime = %v", inj.Net.RTOWaitTime)
	}
}

func TestStealTargetFloorsAndCounts(t *testing.T) {
	inj := New(&Plan{Cache: CacheFaults{PageStealProb: 1 - 1e-12, StealFraction: 0.5, MinCapacityMB: 4}}, sim.NewRNG(3))
	target, ok := inj.Cache.StealTarget(16 << 20)
	if !ok || target != 8<<20 {
		t.Fatalf("StealTarget(16MB) = %d, %v", target, ok)
	}
	// Already at the floor: nothing left to steal.
	if _, ok := inj.Cache.StealTarget(4 << 20); ok {
		t.Error("stole below the configured floor")
	}
	if inj.Cache.Steals != 1 || inj.Cache.StolenBytes != 8<<20 {
		t.Errorf("counters = %d steals, %d bytes", inj.Cache.Steals, inj.Cache.StolenBytes)
	}
}

func TestFoldMetricsOnlyLiveInjectors(t *testing.T) {
	inj := New(&Plan{Disk: DiskFaults{LatencySpikeProb: 0.5}}, sim.NewRNG(7))
	for i := 0; i < 50; i++ {
		inj.Disk.AccessExtra(1000, 1000, 100)
	}
	reg := obs.NewRegistry()
	inj.FoldMetrics(reg, "fault.")
	snap := reg.Snapshot()
	if v, ok := snap.Get("fault.disk.latency_spikes"); !ok || v == 0 {
		t.Errorf("fault.disk.latency_spikes = %v, %v", v, ok)
	}
	if _, ok := snap.Get("fault.net.udp_lost"); ok {
		t.Error("inactive net injector folded metrics")
	}
	// The all-nil bundle folds nothing at all.
	empty := obs.NewRegistry()
	Injectors{}.FoldMetrics(empty, "fault.")
	if s := empty.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil injectors folded %v", s.Counters)
	}
}

// Each plan here is accepted by a Validate that checks signs but not
// magnitudes, and then crashes or hangs a run: a spike of 1e300 ms
// overflows the simulated clock, a 1e300 ms timeout schedules events in
// the past, and 10^12 retries never finish. Load refuses each, naming
// the field and its bound.
func TestLoadRejectsUnboundedMagnitudes(t *testing.T) {
	cases := []struct{ plan, want string }{
		{`{"disk":{"latency_spike_prob":0.5,"latency_spike_ms":1e300}}`,
			"disk.latency_spike_ms = 1e+300 must be non-negative and at most 3600000"},
		{`{"net":{"udp_loss_prob":0.5,"rto_ms":1e300,"max_backoff_ms":1e300}}`,
			"net.rto_ms = 1e+300 must be non-negative and at most 3600000"},
		{`{"disk":{"transient_error_prob":1,"max_retries":1000000000000}}`,
			"disk.max_retries = 1e+12 must be non-negative and at most 64"},
	}
	for _, tc := range cases {
		_, err := Load([]byte(tc.plan))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Load(%s) = %v, want an error containing %q", tc.plan, err, tc.want)
		}
	}
}

// FuzzPlanLoad holds Load to its contract on any input: it never panics,
// an accepted plan survives Marshal then Load unchanged, and the delays
// its injectors add stay within [0, 1 h]. AccessExtra gets zero drive
// mechanics, so it returns the plan's own delay alone.
func FuzzPlanLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(data)
		if err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		q, err := Load(out)
		if err != nil {
			t.Fatalf("marshalled plan does not load: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, q)
		}
		inj := New(p, sim.NewRNG(1))
		check := func(what string, d sim.Duration) {
			if d < 0 || d > 3600*sim.Second {
				t.Fatalf("%s = %v, outside [0, 1h]", what, d)
			}
		}
		check("AccessExtra", inj.Disk.AccessExtra(0, 0, 0))
		for attempt := 0; attempt <= 64; attempt++ {
			check("RTOWait", inj.Net.RTOWait(attempt))
		}
		check("AckDelay", inj.Net.AckDelay())
	})
}
