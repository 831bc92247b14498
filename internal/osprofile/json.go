package osprofile

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"repro/internal/sim"
)

// JSON serialization lets users define operating-system personalities in
// a file and benchmark them with `pentiumbench -profiles file.json ...`
// without writing Go. Durations serialize as readable strings ("2.31µs"),
// and the structural enums serialize by name.

var metaPolicyNames = map[MetaPolicy]string{
	MetaSync:         "sync",
	MetaAsync:        "async",
	MetaOrderedAsync: "ordered-async",
}

// MarshalJSON implements json.Marshaler.
func (p MetaPolicy) MarshalJSON() ([]byte, error) {
	name, ok := metaPolicyNames[p]
	if !ok {
		return nil, fmt.Errorf("osprofile: unknown MetaPolicy %d", int(p))
	}
	return json.Marshal(name)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *MetaPolicy) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for k, v := range metaPolicyNames {
		if v == s {
			*p = k
			return nil
		}
	}
	return fmt.Errorf("osprofile: unknown metadata policy %q (want sync, async, or ordered-async)", s)
}

var schedulerNames = map[SchedulerKind]string{
	SchedScanAll:      "scan-all",
	SchedRunQueues:    "run-queues",
	SchedPreemptiveMT: "preemptive-mt",
}

// MarshalJSON implements json.Marshaler.
func (k SchedulerKind) MarshalJSON() ([]byte, error) {
	name, ok := schedulerNames[k]
	if !ok {
		return nil, fmt.Errorf("osprofile: unknown SchedulerKind %d", int(k))
	}
	return json.Marshal(name)
}

// UnmarshalJSON implements json.Unmarshaler.
func (k *SchedulerKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for kk, v := range schedulerNames {
		if v == s {
			*k = kk
			return nil
		}
	}
	return fmt.Errorf("osprofile: unknown scheduler %q (want scan-all, run-queues, or preemptive-mt)", s)
}

// String names the scheduler kind (used by diagnostics).
func (k SchedulerKind) String() string {
	if n, ok := schedulerNames[k]; ok {
		return n
	}
	return fmt.Sprintf("SchedulerKind(%d)", int(k))
}

// WriteJSON serializes profiles as an indented JSON array.
func WriteJSON(w io.Writer, profiles []*Profile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(profiles)
}

// LoadJSON reads a JSON array of profiles and validates each.
func LoadJSON(r io.Reader) ([]*Profile, error) {
	var profiles []*Profile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&profiles); err != nil {
		return nil, fmt.Errorf("osprofile: %v", err)
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("osprofile: profile %d (%s): %v", i, p, err)
		}
	}
	return profiles, nil
}

// Magnitude bounds on the Kernel, Lock, FS, Net, NFS and Noise sections,
// as fault.Validate bounds a fault plan. A cost past maxCost overflows
// virtual time in the longer benchmarks, and a noise level is a relative
// standard deviation: past 1 a run's noise outweighs its mean. The attribute cache's lifetime
// is a timeout rather than a cost: real NFS clients hold attributes for
// at most a minute by default (acregmax, acdirmax). Every pipe step moves
// at most a buffer, so a tiny capacity multiplies bw_pipe's steps; the
// dispatch table is allocated up front and scanned on every dispatch;
// each synchronous write is a disk access per operation; the caches live
// in the modelled machine's 32 MB; and the protocol sizes stay within
// what IPv4 carries: an MSS from the 536-byte default to a loopback
// segment, a UDP payload from the 548 bytes every host must accept to
// the 65,507-byte maximum, and NFS transfers from 512 bytes to 64 KiB.
const (
	maxCost         = sim.Second
	maxAttrCacheTTL = 60 * sim.Second
	memoryMB        = 32
)

// Validate checks a personality for the invariants the models rely on
// and bounds every cost, count and size, each error naming the field and
// its bound.
func (p *Profile) Validate() error {
	if p.Name == "" || p.Version == "" {
		return fmt.Errorf("missing name or version")
	}
	// Every duration, found by reflection so a new one is covered.
	for _, sec := range []struct {
		name string
		v    any
	}{{"Kernel", &p.Kernel}, {"Lock", &p.Lock}, {"FS", &p.FS}, {"Net", &p.Net}, {"NFS", &p.NFS}} {
		v := reflect.ValueOf(sec.v).Elem()
		for i := 0; i < v.NumField(); i++ {
			d, ok := v.Field(i).Interface().(sim.Duration)
			if !ok {
				continue
			}
			name, limit := sec.name+"."+v.Type().Field(i).Name, maxCost
			if name == "NFS.AttrCacheTTL" {
				limit = maxAttrCacheTTL
			}
			if d < 0 || d > limit {
				return fmt.Errorf("%s = %v must be non-negative and at most %v", name, d, limit)
			}
		}
	}
	// Every noise level, found the same way, and TCP's.
	level := func(name string, v float64) error {
		if v >= 0 && v <= 1 { // NaN fails both
			return nil
		}
		return fmt.Errorf("%s = %v must be in [0, 1]", name, v)
	}
	noise := reflect.ValueOf(p.Noise)
	for i := 0; i < noise.NumField(); i++ {
		if err := level("Noise."+noise.Type().Field(i).Name, noise.Field(i).Float()); err != nil {
			return err
		}
	}
	if err := level("Net.TCPNoise", p.Net.TCPNoise); err != nil {
		return err
	}
	for _, b := range []struct {
		name      string
		v, lo, hi int
		unit      string
	}{
		{"Kernel.PipeCapacity", p.Kernel.PipeCapacity, 512, 1 << 20, " bytes"},
		{"Kernel.CtxTableSize", p.Kernel.CtxTableSize, 0, 4096, ""},
		{"FS.SyncWritesPerCreate", p.FS.SyncWritesPerCreate, 0, 64, ""},
		{"FS.SyncWritesPerUnlink", p.FS.SyncWritesPerUnlink, 0, 64, ""},
		{"FS.SyncWritesPerMkdir", p.FS.SyncWritesPerMkdir, 0, 64, ""},
		{"FS.MetaSeekSpread", p.FS.MetaSeekSpread, 0, 4096, " cylinders"},
		{"FS.MetaWriteBytes", p.FS.MetaWriteBytes, 0, 64 << 10, " bytes"},
		{"FS.BufferCacheMB", p.FS.BufferCacheMB, 1, memoryMB, " MB"},
		{"FS.DirtyLimitMB", p.FS.DirtyLimitMB, 0, memoryMB, " MB"},
		{"Net.TCPWindowPackets", p.Net.TCPWindowPackets, 1, 64, " packets"},
		{"Net.MSS", p.Net.MSS, 536, 65495, " bytes"},
		{"Net.UDPMaxDatagram", p.Net.UDPMaxDatagram, 548, 65507, " bytes"},
		{"NFS.TransferSize", p.NFS.TransferSize, 512, 64 << 10, " bytes"},
		{"NFS.ForeignTransferSize", p.NFS.ForeignTransferSize, 512, 64 << 10, " bytes"},
		{"NFS.ClientCacheMB", p.NFS.ClientCacheMB, 0, memoryMB, " MB"},
		{"NFS.ServerSyncMetaPerWrite", p.NFS.ServerSyncMetaPerWrite, 0, 64, ""},
	} {
		if b.v < b.lo || b.v > b.hi {
			return fmt.Errorf("%s = %d must be in [%d, %d]%s", b.name, b.v, b.lo, b.hi, b.unit)
		}
	}
	switch {
	case p.Kernel.Syscall <= 0:
		return fmt.Errorf("syscall cost must be positive")
	case p.Kernel.Scheduler == SchedScanAll && p.Kernel.CtxPerTask <= 0:
		return fmt.Errorf("scan-all scheduler needs a per-task cost")
	case p.FS.ReadPerKB <= 0 || p.FS.WritePerKB <= 0:
		return fmt.Errorf("file data copy costs must be positive")
	case p.FS.SeqReadEff <= 0 || p.FS.SeqReadEff > 1 || p.FS.SeqWriteEff <= 0 || p.FS.SeqWriteEff > 1:
		return fmt.Errorf("sequential efficiencies must be in (0,1]")
	case p.FS.MetaPolicy == MetaSync && p.FS.MetaWriteBytes <= 0:
		return fmt.Errorf("synchronous metadata needs a write size")
	}
	return nil
}
