// Package fault is the deterministic fault-injection engine: a seedable,
// JSON-serializable Plan describing per-subsystem perturbations, and the
// injector objects the models consult while they run. Every fault arrival
// is drawn from a sim.RNG stream forked per subsystem, so a (plan, seed)
// pair reproduces the identical fault sequence at any worker count — a
// faulted run is as bit-deterministic as an unfaulted one.
//
// A nil injector is inert: every draw method on a nil receiver returns
// the no-fault answer without touching the RNG, so un-faulted runs are
// byte-identical to builds that predate this package.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Plan is a complete fault scenario. Plans are plain JSON so they can be
// checked in, diffed and replayed; see examples/lossy-nfs.json.
type Plan struct {
	// Name labels the plan in output.
	Name string `json:"name,omitempty"`
	// Disk perturbs the disk mechanics model.
	Disk DiskFaults `json:"disk,omitempty"`
	// Net perturbs UDP datagrams, the TCP sliding window, and NFS RPCs.
	Net NetFaults `json:"net,omitempty"`
	// Cache applies buffer-cache page-steal pressure.
	Cache CacheFaults `json:"cache,omitempty"`
}

// DiskFaults perturb the seek/rotate/transfer mechanics of disk.Access.
type DiskFaults struct {
	// LatencySpikeProb is the per-access probability of a latency spike
	// (thermal recalibration, bus contention) of LatencySpikeMs.
	LatencySpikeProb float64 `json:"latency_spike_prob,omitempty"`
	// LatencySpikeMs is the spike magnitude in milliseconds (default 30,
	// at most one hour).
	LatencySpikeMs float64 `json:"latency_spike_ms,omitempty"`
	// TransientErrorProb is the per-access probability that the command
	// fails and is retried; each retry costs a full revolution plus the
	// controller overhead. Retries redraw, so bursts are geometric.
	TransientErrorProb float64 `json:"transient_error_prob,omitempty"`
	// MaxRetries bounds consecutive transient-error retries of one access
	// (default 8, at most 64).
	MaxRetries int `json:"max_retries,omitempty"`
	// SlowSectorProb is the per-access probability the target sector was
	// remapped to the spare area: an extra average seek and a full
	// revolution, charged through the same mechanics as a normal access.
	SlowSectorProb float64 `json:"slow_sector_prob,omitempty"`
}

// NetFaults perturb the network models: datagram fates for UDP, segment
// loss and delayed ACKs for TCP, and loss with retry/timeout/backoff for
// NFS RPCs over UDP.
type NetFaults struct {
	// UDPLossProb is the per-datagram (and per-NFS-RPC round trip) loss
	// probability. Must be < 1: NFS mounts are hard mounts and retry
	// until the RPC gets through.
	UDPLossProb float64 `json:"udp_loss_prob,omitempty"`
	// UDPDupProb is the per-datagram duplication probability (the
	// receiver processes the copy too).
	UDPDupProb float64 `json:"udp_dup_prob,omitempty"`
	// UDPReorderProb is the per-datagram reordering probability. UDP has
	// no resequencing, so reorders are counted, not charged.
	UDPReorderProb float64 `json:"udp_reorder_prob,omitempty"`
	// TCPSegLossProb is the per-segment loss probability inside the TCP
	// sliding-window walk; a lost segment costs its transmission, a
	// retransmit timeout, and the retransmission.
	TCPSegLossProb float64 `json:"tcp_seg_loss_prob,omitempty"`
	// AckDelayUs delays every TCP ack cycle by this many microseconds
	// (delayed-ACK interaction). A one-packet window pays it per segment;
	// a 16-packet window amortizes it across the burst. At most one hour.
	AckDelayUs float64 `json:"ack_delay_us,omitempty"`
	// RTOMs is the initial retransmit timeout in milliseconds
	// (default 100, at most one hour).
	RTOMs float64 `json:"rto_ms,omitempty"`
	// BackoffFactor multiplies the timeout per consecutive retransmit of
	// the same request (default 2, classic exponential backoff).
	BackoffFactor float64 `json:"backoff_factor,omitempty"`
	// MaxBackoffMs caps the backed-off timeout (default 3000, at most one
	// hour).
	MaxBackoffMs float64 `json:"max_backoff_ms,omitempty"`
}

// CacheFaults shrink the dynamically sized buffer cache mid-run: the VM
// system stealing pages back under memory pressure.
type CacheFaults struct {
	// PageStealProb is the per-file-operation probability of a steal.
	PageStealProb float64 `json:"page_steal_prob,omitempty"`
	// StealFraction is the fraction of current capacity taken per steal
	// (default 0.25).
	StealFraction float64 `json:"steal_fraction,omitempty"`
	// MinCapacityMB floors the shrunken cache (default 1).
	MinCapacityMB int `json:"min_capacity_mb,omitempty"`
}

// The bounds on the magnitudes a plan sets: no fault delay is longer
// than an hour (a longer one says nothing about the modelled systems,
// and past ~292 years it overflows the simulated clock), and one disk
// access retries at most maxRetries times.
const (
	maxDelayMs = 3_600_000
	maxRetries = 64
)

// bounded validates one magnitude field against [0, max].
func bounded(name string, v, max float64) error {
	if !(v >= 0 && v <= max) {
		return fmt.Errorf("fault: %s = %v must be non-negative and at most %.0f", name, v, max)
	}
	return nil
}

// probability validates one probability field.
func probability(name string, v float64, allowOne bool) error {
	if v < 0 || v > 1 || (!allowOne && v == 1) {
		lim := "[0,1]"
		if !allowOne {
			lim = "[0,1)"
		}
		return fmt.Errorf("fault: %s = %v outside %s", name, v, lim)
	}
	return nil
}

// Validate checks every field is in range. A zero Plan is valid (and
// inert).
func (p *Plan) Validate() error {
	checks := []error{
		probability("disk.latency_spike_prob", p.Disk.LatencySpikeProb, true),
		probability("disk.transient_error_prob", p.Disk.TransientErrorProb, true),
		probability("disk.slow_sector_prob", p.Disk.SlowSectorProb, true),
		probability("net.udp_loss_prob", p.Net.UDPLossProb, false),
		probability("net.udp_dup_prob", p.Net.UDPDupProb, true),
		probability("net.udp_reorder_prob", p.Net.UDPReorderProb, true),
		probability("net.tcp_seg_loss_prob", p.Net.TCPSegLossProb, false),
		probability("cache.page_steal_prob", p.Cache.PageStealProb, true),
		bounded("disk.latency_spike_ms", p.Disk.LatencySpikeMs, maxDelayMs),
		bounded("disk.max_retries", float64(p.Disk.MaxRetries), maxRetries),
		bounded("net.ack_delay_us", p.Net.AckDelayUs, maxDelayMs*1000),
		bounded("net.rto_ms", p.Net.RTOMs, maxDelayMs),
		bounded("net.max_backoff_ms", p.Net.MaxBackoffMs, maxDelayMs),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if p.Net.BackoffFactor != 0 && p.Net.BackoffFactor < 1 {
		return fmt.Errorf("fault: net.backoff_factor = %v must be >= 1", p.Net.BackoffFactor)
	}
	if p.Cache.StealFraction < 0 || p.Cache.StealFraction >= 1 {
		return fmt.Errorf("fault: cache.steal_fraction = %v outside [0,1)", p.Cache.StealFraction)
	}
	if p.Cache.MinCapacityMB < 0 {
		return fmt.Errorf("fault: cache.min_capacity_mb must be non-negative")
	}
	return nil
}

// Active reports whether the plan injects anything at all.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Disk.active() || p.Net.active() || p.Cache.active()
}

func (d DiskFaults) active() bool {
	return d.LatencySpikeProb > 0 || d.TransientErrorProb > 0 || d.SlowSectorProb > 0
}

func (n NetFaults) active() bool {
	return n.UDPLossProb > 0 || n.UDPDupProb > 0 || n.UDPReorderProb > 0 ||
		n.TCPSegLossProb > 0 || n.AckDelayUs > 0
}

func (c CacheFaults) active() bool { return c.PageStealProb > 0 }

// Load parses and validates a plan from JSON. Unknown fields are errors,
// so a typo in a plan file cannot silently disable an injector.
func Load(data []byte) (*Plan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	p := &Plan{}
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("fault: bad plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Marshal renders the plan as indented JSON.
func (p *Plan) Marshal() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// Injectors bundles one run's per-subsystem injectors. Inactive
// subsystems get nil members, which the models treat as "no faults".
type Injectors struct {
	Disk  *DiskInjector
	Net   *NetInjector
	Cache *CacheInjector
}

// New builds injectors for a plan, forking one independent RNG stream per
// subsystem so the draw sequence of one injector can never shift
// another's. A nil or inert plan yields all-nil injectors.
func New(plan *Plan, rng *sim.RNG) Injectors {
	var inj Injectors
	if plan == nil {
		return inj
	}
	if plan.Disk.active() {
		inj.Disk = &DiskInjector{cfg: plan.Disk, rng: rng.Fork(1)}
	}
	if plan.Net.active() {
		inj.Net = &NetInjector{cfg: plan.Net, rng: rng.Fork(2)}
	}
	if plan.Cache.active() {
		inj.Cache = &CacheInjector{cfg: plan.Cache, rng: rng.Fork(3)}
	}
	return inj
}

// Active reports whether any injector is live.
func (i Injectors) Active() bool { return i.Disk != nil || i.Net != nil || i.Cache != nil }

// FoldMetrics adds every live injector's counters to a registry under the
// given prefix ("fault." conventionally). Callers fold only on faulted
// runs, so un-faulted metric snapshots carry no fault keys.
func (i Injectors) FoldMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	if i.Disk != nil {
		i.Disk.FoldMetrics(reg, prefix+"disk.")
	}
	if i.Net != nil {
		i.Net.FoldMetrics(reg, prefix+"net.")
	}
	if i.Cache != nil {
		i.Cache.FoldMetrics(reg, prefix+"cache.")
	}
}

// DiskInjector perturbs disk accesses. All methods are nil-receiver safe.
type DiskInjector struct {
	cfg DiskFaults
	rng *sim.RNG

	// Spikes, Remaps and Retries count injected events; ExtraTime is the
	// total time they added.
	Spikes, Remaps, Retries uint64
	ExtraTime               sim.Duration
}

func (j *DiskInjector) maxRetries() int {
	if j.cfg.MaxRetries > 0 {
		return j.cfg.MaxRetries
	}
	return 8
}

func (j *DiskInjector) spike() sim.Duration {
	ms := j.cfg.LatencySpikeMs
	if ms == 0 {
		ms = 30
	}
	return sim.Duration(ms * float64(sim.Millisecond))
}

// AccessExtra draws this access's faults and returns the extra time to
// charge, given the drive's rotation period, average seek and controller
// overhead. The extra time flows through the caller's normal charging
// path, so phase ledgers stay exact under injection.
func (j *DiskInjector) AccessExtra(rotation, avgSeek, controller sim.Duration) sim.Duration {
	if j == nil {
		return 0
	}
	var extra sim.Duration
	if j.cfg.LatencySpikeProb > 0 && j.rng.Float64() < j.cfg.LatencySpikeProb {
		j.Spikes++
		extra += j.spike()
	}
	if j.cfg.SlowSectorProb > 0 && j.rng.Float64() < j.cfg.SlowSectorProb {
		// Remapped sector: the arm excursion to the spare area and a full
		// revolution to pick the data up.
		j.Remaps++
		extra += avgSeek + rotation
	}
	if j.cfg.TransientErrorProb > 0 {
		for r := 0; r < j.maxRetries(); r++ {
			if j.rng.Float64() >= j.cfg.TransientErrorProb {
				break
			}
			// The command failed: wait a revolution and reissue.
			j.Retries++
			extra += rotation + controller
		}
	}
	j.ExtraTime += extra
	return extra
}

// FoldMetrics adds the disk fault counters under the given prefix.
func (j *DiskInjector) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "latency_spikes").Add(float64(j.Spikes))
	reg.Counter(prefix + "sector_remaps").Add(float64(j.Remaps))
	reg.Counter(prefix + "transient_retries").Add(float64(j.Retries))
	reg.Counter(prefix + "extra_us").Add(j.ExtraTime.Microseconds())
}

// NetInjector perturbs the network paths. All methods are nil-receiver
// safe.
type NetInjector struct {
	cfg NetFaults
	rng *sim.RNG

	// UDP datagram fates.
	UDPLost, UDPDuplicated, UDPReordered uint64
	// TCP segment losses and the accumulated fault time (RTO waits plus
	// delayed-ack time); SegTime+AckTime+SwitchTime+FaultTime equals a
	// faulted transfer's elapsed time exactly.
	TCPRetransmits uint64
	// NFS RPC round trips lost and retransmitted.
	RPCRetransmits uint64
	// RTOWaitTime and AckDelayTime attribute the injected waiting.
	RTOWaitTime, AckDelayTime sim.Duration
}

// DropUDP draws one datagram-loss decision.
func (j *NetInjector) DropUDP() bool {
	if j == nil || j.cfg.UDPLossProb <= 0 {
		return false
	}
	if j.rng.Float64() < j.cfg.UDPLossProb {
		j.UDPLost++
		return true
	}
	return false
}

// DupUDP draws one datagram-duplication decision.
func (j *NetInjector) DupUDP() bool {
	if j == nil || j.cfg.UDPDupProb <= 0 {
		return false
	}
	if j.rng.Float64() < j.cfg.UDPDupProb {
		j.UDPDuplicated++
		return true
	}
	return false
}

// ReorderUDP draws one datagram-reordering decision.
func (j *NetInjector) ReorderUDP() bool {
	if j == nil || j.cfg.UDPReorderProb <= 0 {
		return false
	}
	if j.rng.Float64() < j.cfg.UDPReorderProb {
		j.UDPReordered++
		return true
	}
	return false
}

// DropSegment draws one TCP segment-loss decision.
func (j *NetInjector) DropSegment() bool {
	if j == nil || j.cfg.TCPSegLossProb <= 0 {
		return false
	}
	if j.rng.Float64() < j.cfg.TCPSegLossProb {
		j.TCPRetransmits++
		return true
	}
	return false
}

// DropRPC draws one NFS round-trip-loss decision (request or reply lost
// on the wire; the client cannot tell which, it just times out).
func (j *NetInjector) DropRPC() bool {
	if j == nil || j.cfg.UDPLossProb <= 0 {
		return false
	}
	if j.rng.Float64() < j.cfg.UDPLossProb {
		j.RPCRetransmits++
		return true
	}
	return false
}

// RTOWait returns the retransmit timeout for the attempt'th consecutive
// loss of one request, with exponential backoff capped at MaxBackoffMs,
// and accounts the wait.
func (j *NetInjector) RTOWait(attempt int) sim.Duration {
	if j == nil {
		return 0
	}
	rto := j.cfg.RTOMs
	if rto == 0 {
		rto = 100
	}
	factor := j.cfg.BackoffFactor
	if factor == 0 {
		factor = 2
	}
	cap := j.cfg.MaxBackoffMs
	if cap == 0 {
		cap = 3000
	}
	for i := 0; i < attempt && rto < cap; i++ {
		rto *= factor
	}
	if rto > cap {
		rto = cap
	}
	d := sim.Duration(rto * float64(sim.Millisecond))
	j.RTOWaitTime += d
	return d
}

// AckDelay returns the delayed-ack time to add to one TCP ack cycle, and
// accounts it.
func (j *NetInjector) AckDelay() sim.Duration {
	if j == nil || j.cfg.AckDelayUs <= 0 {
		return 0
	}
	d := sim.Duration(j.cfg.AckDelayUs * float64(sim.Microsecond))
	j.AckDelayTime += d
	return d
}

// FoldMetrics adds the network fault counters under the given prefix.
func (j *NetInjector) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "udp_lost").Add(float64(j.UDPLost))
	reg.Counter(prefix + "udp_duplicated").Add(float64(j.UDPDuplicated))
	reg.Counter(prefix + "udp_reordered").Add(float64(j.UDPReordered))
	reg.Counter(prefix + "tcp_retransmits").Add(float64(j.TCPRetransmits))
	reg.Counter(prefix + "rpc_retransmits").Add(float64(j.RPCRetransmits))
	reg.Counter(prefix + "rto_wait_us").Add(j.RTOWaitTime.Microseconds())
	reg.Counter(prefix + "ack_delay_us").Add(j.AckDelayTime.Microseconds())
}

// CacheInjector applies page-steal pressure to a buffer cache. All
// methods are nil-receiver safe.
type CacheInjector struct {
	cfg CacheFaults
	rng *sim.RNG

	// Steals counts capacity shrinks; StolenBytes their total size.
	Steals      uint64
	StolenBytes int64
}

// StealTarget draws one page-steal decision for a cache currently sized
// current bytes. When a steal fires it returns the new (smaller)
// capacity and true.
func (j *CacheInjector) StealTarget(current int64) (int64, bool) {
	if j == nil || j.cfg.PageStealProb <= 0 {
		return 0, false
	}
	if j.rng.Float64() >= j.cfg.PageStealProb {
		return 0, false
	}
	frac := j.cfg.StealFraction
	if frac == 0 {
		frac = 0.25
	}
	min := int64(j.cfg.MinCapacityMB) << 20
	if min == 0 {
		min = 1 << 20
	}
	target := current - int64(float64(current)*frac)
	if target < min {
		target = min
	}
	if target >= current {
		return 0, false
	}
	j.Steals++
	j.StolenBytes += current - target
	return target, true
}

// FoldMetrics adds the cache fault counters under the given prefix.
func (j *CacheInjector) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "page_steals").Add(float64(j.Steals))
	reg.Counter(prefix + "stolen_bytes").Add(float64(j.StolenBytes))
}
