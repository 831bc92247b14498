package osprofile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Paper()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("round-tripped %d profiles, want 3", len(got))
	}
	for i, p := range Paper() {
		q := got[i]
		if q.String() != p.String() {
			t.Errorf("identity lost: %s vs %s", q, p)
		}
		if q.Kernel.Syscall != p.Kernel.Syscall {
			t.Errorf("%s: syscall %v != %v", p, q.Kernel.Syscall, p.Kernel.Syscall)
		}
		if q.Kernel.Scheduler != p.Kernel.Scheduler {
			t.Errorf("%s: scheduler changed", p)
		}
		if q.FS.MetaPolicy != p.FS.MetaPolicy {
			t.Errorf("%s: metadata policy changed", p)
		}
		if q.Net.TCPWindowPackets != p.Net.TCPWindowPackets {
			t.Errorf("%s: window changed", p)
		}
		if q.Noise.MAB != p.Noise.MAB {
			t.Errorf("%s: noise changed", p)
		}
	}
}

func TestJSONIsReadable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Profile{Linux128()}); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	// Durations are strings, enums are names.
	for _, want := range []string{`"2.31µs"`, `"scan-all"`, `"async"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing readable form %s:\n%.600s", want, s)
		}
	}
}

func TestLoadJSONRejectsUnknownFields(t *testing.T) {
	_, err := LoadJSON(strings.NewReader(`[{"Name":"X","Version":"1","Frobnitz":true}]`))
	if err == nil || !strings.Contains(err.Error(), "Frobnitz") {
		t.Fatalf("unknown field accepted: %v", err)
	}
}

func TestLoadJSONValidates(t *testing.T) {
	cases := []string{
		`[{"Name":"","Version":"1"}]`,
		`[{"Name":"X","Version":"1"}]`, // zero costs
	}
	for _, src := range cases {
		if _, err := LoadJSON(strings.NewReader(src)); err == nil {
			t.Errorf("invalid profile accepted: %s", src)
		}
	}
}

func TestLoadJSONBadEnum(t *testing.T) {
	_, err := LoadJSON(strings.NewReader(
		`[{"Name":"X","Version":"1","Kernel":{"Scheduler":"magic"}}]`))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad scheduler accepted: %v", err)
	}
	_, err = LoadJSON(strings.NewReader(
		`[{"Name":"X","Version":"1","FS":{"MetaPolicy":"lazy"}}]`))
	if err == nil || !strings.Contains(err.Error(), "lazy") {
		t.Fatalf("bad policy accepted: %v", err)
	}
}

func TestDurationJSONForms(t *testing.T) {
	// Nanosecond numbers are accepted too.
	got, err := LoadJSONOne(`{"Name":"X","Version":"1",
	  "Kernel":{"Scheduler":"run-queues","Syscall":2620,"ReadWriteExtra":"2.9µs","CtxBase":"58µs",
	    "PipeWake":"10µs","PipeCopyPerKB":"33µs","PipeCapacity":8192,"Fork":"4ms","Exec":"10ms"},
	  "FS":{"Type":"t","MetaPolicy":"sync","SyncWritesPerCreate":2,"SyncWritesPerUnlink":6,
	    "SyncWritesPerMkdir":2,"MetaSeekSpread":40,"MetaWriteBytes":4096,
	    "ReadPerKB":"46µs","WritePerKB":"83µs","AllocPerCall":"180µs","RandomIOOverhead":"400µs",
	    "OpFixed":"100µs","SeqReadEff":0.8,"SeqWriteEff":0.8,"BufferCacheMB":20,"DirtyLimitMB":8,"AttrCache":true},
	  "Net":{"UDPPerPacket":"300µs","UDPCopyPerKB":"133µs","TCPPerPacket":"50µs","TCPCopyPerKB":"75µs",
	    "TCPWindowPackets":11,"MSS":1460,"AckCost":"100µs","TCPNoise":0.02,"UDPMaxDatagram":65507},
	  "NFS":{"ClientPerRPC":"250µs","TransferSize":8192,"ForeignTransferSize":8192,"Pipelined":true,
	    "ClientCachesData":true,"ClientCacheMB":4,"SerializesSyncWrites":false,"AttrCacheTTL":"3s",
	    "ServerPerRPC":"280µs","ServerSyncWrites":true,"ServerSyncMetaPerWrite":1,
	    "RequiresPrivPort":false,"SendsPrivPort":false},
	  "Noise":{"Syscall":0.001,"Ctx":0.04,"Mem":0.01,"FS":0.03,"MAB":0.01,"Pipe":0.03,"UDP":0.04,"NFS":0.01},
	  "Lineage":"test"}`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kernel.Syscall != 2620 {
		t.Errorf("numeric nanoseconds parsed as %v", got.Kernel.Syscall)
	}
}

// LoadJSONOne is a test helper parsing a single profile object.
func LoadJSONOne(src string) (*Profile, error) {
	ps, err := LoadJSON(strings.NewReader("[" + src + "]"))
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// TestValidateBoundsSections feeds the Lock, FS, Net and NFS sections
// the probes that used to load — an NFS.ServerPerRPC of 2,000,000 h
// scheduled an S1 event in the past, an FS.ReadPerKB of 2,000,000 h
// drove F12's clock backwards — and values just past each bound: each
// must be refused naming the field and its bound.
func TestValidateBoundsSections(t *testing.T) {
	const huge = 2_000_000 * 3600 * sim.Second
	for _, tc := range []struct {
		name, want string
		set        func(p *Profile)
	}{
		{"server per rpc 2000000h", "NFS.ServerPerRPC = 2000000h0m0s must be non-negative and at most 1s", func(p *Profile) { p.NFS.ServerPerRPC = huge }},
		{"read per kb 2000000h", "FS.ReadPerKB = 2000000h0m0s must be non-negative and at most 1s", func(p *Profile) { p.FS.ReadPerKB = huge }},
		{"alloc past 1s", "FS.AllocPerCall = 1.000000001s must be non-negative and at most 1s", func(p *Profile) { p.FS.AllocPerCall = sim.Second + 1 }},
		{"negative ack", "Net.AckCost = -1ns must be non-negative and at most 1s", func(p *Profile) { p.Net.AckCost = -1 }},
		{"negative spin", "Lock.SpinAcquire = -1ns must be non-negative and at most 1s", func(p *Profile) { p.Lock.SpinAcquire = -1 }},
		{"rcu sync past 1s", "Lock.RCUSync = 1.000000001s must be non-negative and at most 1s", func(p *Profile) { p.Lock.RCUSync = sim.Second + 1 }},
		{"attr ttl past a minute", "NFS.AttrCacheTTL = 1m0.000000001s must be non-negative and at most 1m0s", func(p *Profile) { p.NFS.AttrCacheTTL = 60*sim.Second + 1 }},
		{"negative attr ttl", "NFS.AttrCacheTTL = -1ns must be non-negative and at most 1m0s", func(p *Profile) { p.NFS.AttrCacheTTL = -1 }},
		{"sync writes 65", "FS.SyncWritesPerUnlink = 65 must be in [0, 64]", func(p *Profile) { p.FS.SyncWritesPerUnlink = 65 }},
		{"seek spread 4097", "FS.MetaSeekSpread = 4097 must be in [0, 4096] cylinders", func(p *Profile) { p.FS.MetaSeekSpread = 4097 }},
		{"meta write 64 KiB + 1", "FS.MetaWriteBytes = 65537 must be in [0, 65536] bytes", func(p *Profile) { p.FS.MetaWriteBytes = 64<<10 + 1 }},
		{"buffer cache 0", "FS.BufferCacheMB = 0 must be in [1, 32] MB", func(p *Profile) { p.FS.BufferCacheMB = 0 }},
		{"buffer cache 33", "FS.BufferCacheMB = 33 must be in [1, 32] MB", func(p *Profile) { p.FS.BufferCacheMB = 33 }},
		{"dirty limit 33", "FS.DirtyLimitMB = 33 must be in [0, 32] MB", func(p *Profile) { p.FS.DirtyLimitMB = 33 }},
		{"window 0", "Net.TCPWindowPackets = 0 must be in [1, 64] packets", func(p *Profile) { p.Net.TCPWindowPackets = 0 }},
		{"window 65", "Net.TCPWindowPackets = 65 must be in [1, 64] packets", func(p *Profile) { p.Net.TCPWindowPackets = 65 }},
		{"mss 1", "Net.MSS = 1 must be in [536, 65495] bytes", func(p *Profile) { p.Net.MSS = 1 }},
		{"datagram 1", "Net.UDPMaxDatagram = 1 must be in [548, 65507] bytes", func(p *Profile) { p.Net.UDPMaxDatagram = 1 }},
		{"datagram 65508", "Net.UDPMaxDatagram = 65508 must be in [548, 65507] bytes", func(p *Profile) { p.Net.UDPMaxDatagram = 65508 }},
		{"transfer 511", "NFS.TransferSize = 511 must be in [512, 65536] bytes", func(p *Profile) { p.NFS.TransferSize = 511 }},
		{"foreign transfer 1 MiB", "NFS.ForeignTransferSize = 1048576 must be in [512, 65536] bytes", func(p *Profile) { p.NFS.ForeignTransferSize = 1 << 20 }},
		{"client cache 33", "NFS.ClientCacheMB = 33 must be in [0, 32] MB", func(p *Profile) { p.NFS.ClientCacheMB = 33 }},
		{"server sync meta 65", "NFS.ServerSyncMetaPerWrite = 65 must be in [0, 64]", func(p *Profile) { p.NFS.ServerSyncMetaPerWrite = 65 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Linux128()
			p.Name = "Probe"
			tc.set(p)
			var buf bytes.Buffer
			if err := WriteJSON(&buf, []*Profile{p}); err != nil {
				t.Fatal(err)
			}
			_, err := LoadJSON(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadJSON: %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// The bounds themselves are accepted.
	p := Linux128()
	p.NFS.AttrCacheTTL, p.FS.AllocPerCall = 60*sim.Second, sim.Second
	p.FS.BufferCacheMB, p.NFS.ClientCacheMB, p.FS.SyncWritesPerCreate = 32, 32, 64
	p.Net.MSS, p.Net.UDPMaxDatagram, p.Net.TCPWindowPackets = 536, 548, 64
	p.NFS.TransferSize, p.NFS.ForeignTransferSize = 512, 64<<10
	if err := p.Validate(); err != nil {
		t.Fatalf("a profile at the bounds: %v", err)
	}
}

// TestValidateBoundsKernel feeds the Kernel section probes that used to
// load — a Syscall of 2,000,000 h overflowed F12's virtual time, a
// one-byte pipe took bw_pipe 400 times as many steps — and values just
// past each bound: each must be refused naming the field and its bound,
// while every built-in profile, the -future set included, still loads.
func TestValidateBoundsKernel(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		set        func(k *KernelCosts)
	}{
		{"syscall 2000000h", "Kernel.Syscall = 2000000h0m0s must be non-negative and at most 1s", func(k *KernelCosts) { k.Syscall = 2_000_000 * 3600 * sim.Second }},
		{"pipe capacity 1", "Kernel.PipeCapacity = 1 must be in [512, 1048576] bytes", func(k *KernelCosts) { k.PipeCapacity = 1 }},
		{"pipe capacity 2 MiB", "Kernel.PipeCapacity = 2097152 must be in [512, 1048576] bytes", func(k *KernelCosts) { k.PipeCapacity = 2 << 20 }},
		{"table 4097", "Kernel.CtxTableSize = 4097 must be in [0, 4096]", func(k *KernelCosts) { k.CtxTableSize = 4097 }},
		{"negative table", "Kernel.CtxTableSize = -1 must be in [0, 4096]", func(k *KernelCosts) { k.CtxTableSize = -1 }},
		{"exec past 1s", "Kernel.Exec = 1.000000001s must be non-negative and at most 1s", func(k *KernelCosts) { k.Exec = sim.Second + 1 }},
		{"negative ctx base", "Kernel.CtxBase = -1ns must be non-negative and at most 1s", func(k *KernelCosts) { k.CtxBase = -1 }},
		{"negative steal cost", "Kernel.StealCost = -1ns must be non-negative and at most 1s", func(k *KernelCosts) { k.StealCost = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := Linux128()
			tc.set(&p.Kernel)
			var buf bytes.Buffer
			if err := WriteJSON(&buf, []*Profile{p}); err != nil {
				t.Fatal(err)
			}
			_, err := LoadJSON(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadJSON: %v, want an error containing %q", err, tc.want)
			}
		})
	}
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, All()); err != nil {
		t.Fatal(err)
	}
	if ps, err := LoadJSON(&buf); err != nil || len(ps) != len(All()) {
		t.Fatalf("the built-in profiles do not load back: %d profiles, %v", len(ps), err)
	}
}
