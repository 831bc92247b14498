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
