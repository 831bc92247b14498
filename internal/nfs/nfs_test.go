package nfs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/netstack"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

func mustServer(s *Server, err error) *Server {
	if err != nil {
		panic(err)
	}
	return s
}

func linuxServer() *Server {
	return mustServer(NewServer(osprofile.Linux128(), disk.QuantumEmpire2100(), 1))
}

func sunServer() *Server {
	p := osprofile.SunOS414()
	return mustServer(NewServer(p, disk.QuantumEmpire2100(), 1))
}

func mountOn(t *testing.T, client *osprofile.Profile, server *Server, opts MountOptions) (*sim.Clock, *Mount) {
	t.Helper()
	clock := &sim.Clock{}
	m, err := NewMount(clock, client, server, netstack.Ethernet10(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return clock, m
}

func TestPrivilegedPortQuirk(t *testing.T) {
	// §11: the Linux server requires a privileged client port; FreeBSD
	// clients do not bind one by default.
	clock := &sim.Clock{}
	_, err := NewMount(clock, osprofile.FreeBSD205(), linuxServer(), netstack.Ethernet10(), MountOptions{})
	if err == nil {
		t.Fatal("FreeBSD client mounted a Linux server without ResvPort; the paper's quirk requires failure")
	}
	if !strings.Contains(err.Error(), "privileged") {
		t.Fatalf("error should explain the quirk, got: %v", err)
	}
	// With the workaround it mounts.
	if _, err := NewMount(clock, osprofile.FreeBSD205(), linuxServer(), netstack.Ethernet10(), MountOptions{ResvPort: true}); err != nil {
		t.Fatal(err)
	}
	// Linux and Solaris clients bind privileged ports by default.
	for _, p := range []*osprofile.Profile{osprofile.Linux128(), osprofile.Solaris24()} {
		if _, err := NewMount(clock, p, linuxServer(), netstack.Ethernet10(), MountOptions{}); err != nil {
			t.Errorf("%s client should mount the Linux server: %v", p, err)
		}
	}
}

func TestBasicOperationsRoundTrip(t *testing.T) {
	_, m := mountOn(t, osprofile.Solaris24(), linuxServer(), MountOptions{})
	if err := m.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	f, err := m.Create("/d/file")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(10000)
	f.Close()
	st, err := m.Stat("/d/file")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 10000 {
		t.Fatalf("Stat size = %d, want 10000", st.Size)
	}
	g, err := m.Open("/d/file")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Read(20000); got != 10000 {
		t.Fatalf("Read = %d, want 10000", got)
	}
	g.Close()
	names, err := m.List("/d")
	if err != nil || len(names) != 1 || names[0] != "file" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := m.Unlink("/d/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("/d/file"); err == nil {
		t.Fatal("open after unlink should fail")
	}
}

func TestErrorsPropagate(t *testing.T) {
	_, m := mountOn(t, osprofile.FreeBSD205(), sunServer(), MountOptions{})
	if _, err := m.Open("/missing"); err == nil {
		t.Error("Open of missing file must fail")
	}
	if err := m.Unlink("/missing"); err == nil {
		t.Error("Unlink of missing file must fail")
	}
	if _, err := m.Stat("/missing"); err == nil {
		t.Error("Stat of missing file must fail")
	}
	if _, err := m.List("/missing"); err == nil {
		t.Error("List of missing dir must fail")
	}
}

func TestWireTrafficAccounting(t *testing.T) {
	_, m := mountOn(t, osprofile.FreeBSD205(), sunServer(), MountOptions{})
	f, _ := m.Create("/f")
	f.Write(64 << 10)
	f.Close()
	s := m.Stats()
	if s.WriteRPCs != 8 {
		t.Fatalf("64 KB at 8 KB wsize = %d write RPCs, want 8", s.WriteRPCs)
	}
	if s.BytesToWire < 64<<10 {
		t.Fatalf("BytesToWire = %d, want at least the payload", s.BytesToWire)
	}
}

func TestClientCacheServesRereads(t *testing.T) {
	// FreeBSD's caching client reads back its own writes locally.
	_, m := mountOn(t, osprofile.FreeBSD205(), sunServer(), MountOptions{})
	f, _ := m.Create("/f")
	f.Write(32 << 10)
	f.Close()
	g, _ := m.Open("/f")
	g.Read(32 << 10)
	g.Close()
	if got := m.Stats().ReadRPCs; got != 0 {
		t.Fatalf("caching client issued %d read RPCs for self-written data, want 0", got)
	}
	if m.Stats().CacheReads == 0 {
		t.Fatal("cache reads not counted")
	}
}

func TestLinuxClientDoesNotCache(t *testing.T) {
	_, m := mountOn(t, osprofile.Linux128(), linuxServer(), MountOptions{})
	f, _ := m.Create("/f")
	f.Write(32 << 10)
	f.Close()
	g, _ := m.Open("/f")
	g.Read(32 << 10)
	g.Close()
	if got := m.Stats().ReadRPCs; got == 0 {
		t.Fatal("the Linux 1.2.8 client must re-fetch data over the wire (§10)")
	}
}

func TestPerHandlePageReuse(t *testing.T) {
	// Even the Linux client does not re-fetch a page the same open file
	// handle already read (the MAB header-scan pattern).
	_, m := mountOn(t, osprofile.Linux128(), linuxServer(), MountOptions{})
	f, _ := m.Create("/f")
	f.Write(8 << 10)
	f.Close()
	g, _ := m.Open("/f")
	g.Read(8 << 10)
	after := m.Stats().ReadRPCs
	for i := 0; i < 5; i++ {
		g.SeekTo(0)
		g.Read(8 << 10)
	}
	g.Close()
	if got := m.Stats().ReadRPCs; got != after {
		t.Fatalf("re-reads through one handle issued %d extra RPCs", got-after)
	}
}

func TestSyncServerSlowerThanAsync(t *testing.T) {
	// §10: the spec-compliant SunOS server must be much slower for the
	// same write workload.
	elapsed := func(server *Server) sim.Duration {
		clock, m := mountOn(t, osprofile.FreeBSD205(), server, MountOptions{ResvPort: true})
		start := clock.Now()
		f, _ := m.Create("/f")
		for i := 0; i < 32; i++ {
			f.Write(8 << 10)
		}
		f.Close()
		return clock.Now().Sub(start)
	}
	async := elapsed(linuxServer())
	sync := elapsed(sunServer())
	if sync < 2*async {
		t.Fatalf("sync server (%v) should be ≫ async server (%v)", sync, async)
	}
}

func TestSyncServerCommitsToDisk(t *testing.T) {
	server := sunServer()
	_, m := mountOn(t, osprofile.Solaris24(), server, MountOptions{})
	f, _ := m.Create("/f")
	f.Write(64 << 10)
	f.Close()
	if w := server.FS().Stats().DataDiskWrites; w == 0 {
		t.Fatal("sync server never wrote data to its disk")
	}
	// A sync has nothing left to flush: every block went to disk before
	// its reply.
	before := server.FS().Stats().DataDiskWrites
	server.FS().SyncAll()
	if w := server.FS().Stats().DataDiskWrites - before; w != 0 {
		t.Fatalf("sync server left %d dirty blocks after replying", w)
	}
}

func TestAsyncServerAnswersFromCache(t *testing.T) {
	server := linuxServer()
	_, m := mountOn(t, osprofile.Solaris24(), server, MountOptions{})
	f, _ := m.Create("/f")
	f.Write(64 << 10)
	f.Close()
	if w := server.FS().Stats().DataDiskWrites; w != 0 {
		t.Fatalf("async Linux server wrote %d blocks synchronously; it should answer from cache", w)
	}
}

func TestForeignTransferSizeShrinks(t *testing.T) {
	// The Linux client drops to small transfers against a foreign server.
	_, native := mountOn(t, osprofile.Linux128(), linuxServer(), MountOptions{})
	f, _ := native.Create("/f")
	f.Write(32 << 10)
	f.Close()
	nativeRPCs := native.Stats().WriteRPCs

	_, foreign := mountOn(t, osprofile.Linux128(), sunServer(), MountOptions{})
	g, _ := foreign.Create("/f")
	g.Write(32 << 10)
	g.Close()
	foreignRPCs := foreign.Stats().WriteRPCs
	if foreignRPCs <= nativeRPCs {
		t.Fatalf("foreign server should force more, smaller write RPCs: native %d, foreign %d",
			nativeRPCs, foreignRPCs)
	}
}

func TestSolarisSerializesAgainstSyncServer(t *testing.T) {
	// Same byte count: Solaris should pay proportionally more against the
	// sync server than FreeBSD does, because it stops pipelining.
	run := func(p *osprofile.Profile, server *Server) sim.Duration {
		clock, m := mountOn(t, p, server, MountOptions{ResvPort: true})
		start := clock.Now()
		f, _ := m.Create("/f")
		for i := 0; i < 16; i++ {
			f.Write(8 << 10)
		}
		f.Close()
		return clock.Now().Sub(start)
	}
	fbsdRatio := float64(run(osprofile.FreeBSD205(), sunServer())) / float64(run(osprofile.FreeBSD205(), linuxServer()))
	solRatio := float64(run(osprofile.Solaris24(), sunServer())) / float64(run(osprofile.Solaris24(), linuxServer()))
	if solRatio <= fbsdRatio {
		t.Fatalf("Solaris sync/async ratio (%.2f) should exceed FreeBSD's (%.2f)", solRatio, fbsdRatio)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		server := sunServer()
		clock := &sim.Clock{}
		m, err := NewMount(clock, osprofile.FreeBSD205(), server, netstack.Ethernet10(), MountOptions{ResvPort: true})
		if err != nil {
			t.Fatal(err)
		}
		m.Mkdir("/d")
		for i := 0; i < 10; i++ {
			f, _ := m.Create("/d/f")
			f.Write(20 << 10)
			f.Close()
			g, _ := m.Open("/d/f")
			g.Read(20 << 10)
			g.Close()
		}
		return clock.Now()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("NFS model not deterministic: %v vs %v", a, b)
	}
}

func TestClientCacheEviction(t *testing.T) {
	c := newClientCache(10 << 10) // 10 KB budget
	c.extend("/a", 6<<10)
	c.extend("/b", 6<<10) // evicts /a
	if c.covers("/a", 1) {
		t.Fatal("LRU eviction failed: /a still covered")
	}
	if !c.covers("/b", 6<<10) {
		t.Fatal("/b should be covered")
	}
	// Touching /b then adding /c evicts nothing if /c fits after /b... it
	// does not fit, so /b goes (LRU after /c? /b was promoted by covers).
	c.extend("/c", 6<<10)
	if c.covers("/b", 1) && c.covers("/c", 1) && c.bytes > c.capacity {
		t.Fatal("cache exceeded its budget")
	}
	c.drop("/c")
	if c.covers("/c", 1) {
		t.Fatal("drop failed")
	}
}

func TestClientCacheZeroCapacity(t *testing.T) {
	c := newClientCache(0)
	c.extend("/a", 100)
	if c.covers("/a", 1) {
		t.Fatal("zero-capacity cache must never hit")
	}
}

func TestVFSInterfaceCompliance(t *testing.T) {
	var _ fs.VFS = (*Mount)(nil)
}

func TestRenameOverNFS(t *testing.T) {
	_, m := mountOn(t, osprofile.FreeBSD205(), sunServer(), MountOptions{})
	f, _ := m.Create("/a")
	f.Write(8 << 10)
	f.Close()
	before := m.Stats().MetaRPCs
	if err := m.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if m.Stats().MetaRPCs != before+1 {
		t.Fatal("rename should cost one RPC")
	}
	g, err := m.Open("/b")
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 8<<10 {
		t.Fatalf("size after rename = %d", g.Size())
	}
	g.Close()
	if err := m.Rename("/missing", "/x"); err == nil {
		t.Fatal("rename of missing file must fail")
	}
}

// A scale-out population shares one fault-plan RNG fork across thousands
// of mounts. Every injected drop must be attributed to exactly one
// mount, so summing per-mount Stats reproduces the injector's totals —
// and retransmitted requests must count their wire bytes again.
func TestRetransmitCountersAggregateAcrossMounts(t *testing.T) {
	const mounts = 1000
	run := func(inj *fault.NetInjector) Stats {
		server := linuxServer()
		var total Stats
		for i := 0; i < mounts; i++ {
			clock := &sim.Clock{}
			m, err := NewMount(clock, osprofile.Linux128(), server, netstack.Ethernet10(), MountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			m.SetFaults(inj)
			path := fmt.Sprintf("/f%d", i)
			f, err := m.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(8 << 10)
			f.Close()
			if _, err := m.Stat(path); err != nil {
				t.Fatal(err)
			}
			total.Add(m.Stats())
		}
		return total
	}

	clean := run(nil)
	plan := &fault.Plan{}
	plan.Net.UDPLossProb = 0.05
	inj := fault.New(plan, sim.NewRNG(99)).Net
	lossy := run(inj)

	if lossy.Retransmits == 0 {
		t.Fatal("5% loss across 1000 mounts produced no retransmits")
	}
	if lossy.Retransmits != inj.RPCRetransmits {
		t.Fatalf("sum of per-mount retransmits %d != shared injector's %d",
			lossy.Retransmits, inj.RPCRetransmits)
	}
	// Loss changes timing, never the operation stream: the RPC counts
	// match, and the lossy population's extra wire bytes are exactly its
	// retransmitted requests.
	if lossy.RPCs != clean.RPCs {
		t.Fatalf("loss changed the RPC count: %d vs %d", lossy.RPCs, clean.RPCs)
	}
	if lossy.BytesToWire <= clean.BytesToWire {
		t.Fatalf("retransmitted requests added no wire bytes: %d vs %d",
			lossy.BytesToWire, clean.BytesToWire)
	}
}
