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

// Magnitude bounds on the Kernel section, as fault.Validate bounds a
// fault plan. A cost past maxKernelCost overflows virtual time in the
// longer benchmarks; every pipe step moves at most a buffer, so a tiny
// capacity multiplies bw_pipe's steps; and the dispatch table is
// allocated up front and scanned on every dispatch.
const (
	maxKernelCost   = sim.Second
	minPipeCapacity = 512
	maxPipeCapacity = 1 << 20
	maxCtxTableSize = 4096
)

// validateKernel bounds every Kernel duration to [0, maxKernelCost] and
// the pipe buffer and dispatch table sizes, naming the field and its
// bound.
func validateKernel(k *KernelCosts) error {
	v := reflect.ValueOf(k).Elem()
	for i := 0; i < v.NumField(); i++ {
		if d, ok := v.Field(i).Interface().(sim.Duration); ok && (d < 0 || d > maxKernelCost) {
			return fmt.Errorf("Kernel.%s = %v must be non-negative and at most %v", v.Type().Field(i).Name, d, maxKernelCost)
		}
	}
	if k.PipeCapacity < minPipeCapacity || k.PipeCapacity > maxPipeCapacity {
		return fmt.Errorf("Kernel.PipeCapacity = %d must be in [%d, %d] bytes", k.PipeCapacity, minPipeCapacity, maxPipeCapacity)
	}
	if k.CtxTableSize < 0 || k.CtxTableSize > maxCtxTableSize {
		return fmt.Errorf("Kernel.CtxTableSize = %d must be in [0, %d]", k.CtxTableSize, maxCtxTableSize)
	}
	return nil
}

// Validate checks a personality for the invariants the models rely on.
func (p *Profile) Validate() error {
	if p.Name == "" || p.Version == "" {
		return fmt.Errorf("missing name or version")
	}
	if err := validateKernel(&p.Kernel); err != nil {
		return err
	}
	switch {
	case p.Kernel.Syscall <= 0:
		return fmt.Errorf("syscall cost must be positive")
	case p.Kernel.Scheduler == SchedScanAll && p.Kernel.CtxPerTask <= 0:
		return fmt.Errorf("scan-all scheduler needs a per-task cost")
	// Lock costs are non-negative rather than required-positive so that
	// profile JSONs written before the SMP model existed stay loadable
	// (the kernel clamps zero spin quanta to a positive floor).
	case p.Lock.SpinAcquire < 0 || p.Lock.SpinCheck < 0 || p.Lock.SpinBackoffMax < 0 ||
		p.Lock.SleepAcquire < 0 || p.Lock.SleepBlock < 0 || p.Lock.SleepWake < 0 ||
		p.Lock.RCURead < 0 || p.Lock.RCUSync < 0:
		return fmt.Errorf("negative lock cost")
	case p.FS.ReadPerKB <= 0 || p.FS.WritePerKB <= 0:
		return fmt.Errorf("file data copy costs must be positive")
	case p.FS.SeqReadEff <= 0 || p.FS.SeqReadEff > 1 || p.FS.SeqWriteEff <= 0 || p.FS.SeqWriteEff > 1:
		return fmt.Errorf("sequential efficiencies must be in (0,1]")
	case p.FS.BufferCacheMB <= 0:
		return fmt.Errorf("buffer cache must be positive")
	case p.FS.MetaPolicy == MetaSync && p.FS.MetaWriteBytes <= 0:
		return fmt.Errorf("synchronous metadata needs a write size")
	case p.Net.MSS <= 0 || p.Net.TCPWindowPackets <= 0:
		return fmt.Errorf("TCP needs a positive MSS and window")
	case p.Net.UDPMaxDatagram <= 0:
		return fmt.Errorf("UDP needs a max datagram size")
	case p.NFS.TransferSize <= 0 || p.NFS.ForeignTransferSize <= 0:
		return fmt.Errorf("NFS transfer sizes must be positive")
	}
	return nil
}
