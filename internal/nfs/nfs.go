// Package nfs models the Sun Network File System client and server of
// §10: a client-side file system (implementing fs.VFS, so the Modified
// Andrew Benchmark runs over it unchanged) that translates operations
// into RPCs over a 10 Mb/s Ethernet to a server running its own local
// file system on its own disk.
//
// The mechanisms that produce Tables 6 and 7 are all here:
//
//   - the server's write policy: the Linux 1.2.8 server answers write
//     RPCs from its buffer cache (violating the NFS spec but fast), while
//     the SunOS server commits data and metadata to its disk before every
//     reply;
//   - client pipelining (biod): FreeBSD overlaps wire time with server
//     processing; the Linux 1.2.8 client is stop-and-wait; Solaris
//     pipelines, but conservatively serialises when the server commits
//     synchronously;
//   - transfer sizes: clients use small rsize/wsize against servers of a
//     foreign lineage (the Linux client drops to 1 KB, which is the heart
//     of its Table 7 collapse);
//   - client data and attribute caching, which the Linux 1.2.8 client
//     lacks;
//   - the §11 privileged-port quirk: the Linux server rejects clients
//     that do not bind a reserved port, which FreeBSD does not do by
//     default.
package nfs

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fs"
	"repro/internal/netstack"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// rpcHeader is the approximate size of an NFS RPC header on the wire.
const rpcHeader = 128

// Server is an NFS server machine: an OS personality with a local file
// system on its own disk, accumulating its processing time on its own
// clock.
type Server struct {
	prof  *osprofile.Profile
	clock sim.Clock
	fsys  *fs.FileSystem
}

// NewServer builds a server running the given personality on a disk with
// the given geometry. Invalid geometry or an unusable personality is a
// returned error.
func NewServer(p *osprofile.Profile, geom disk.Geometry, seed uint64) (*Server, error) {
	s := &Server{prof: p}
	d, err := disk.New(geom, sim.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	fsys, err := fs.New(&s.clock, d, p)
	if err != nil {
		return nil, err
	}
	s.fsys = fsys
	return s, nil
}

// SetFaults attaches disk and buffer-cache injectors to the server's
// local file system (nil injectors detach).
func (s *Server) SetFaults(inj fault.Injectors) { s.fsys.SetFaults(inj) }

// OS returns the server's personality.
func (s *Server) OS() *osprofile.Profile { return s.prof }

// FS exposes the server's local file system (for tests).
func (s *Server) FS() *fs.FileSystem { return s.fsys }

// process runs work on the server and returns the server time it took,
// including the fixed per-RPC service cost.
func (s *Server) process(work func()) sim.Duration {
	start := s.clock.Now()
	s.clock.Advance(s.prof.NFS.ServerPerRPC)
	if work != nil {
		work()
	}
	return s.clock.Now().Sub(start)
}

// MountOptions configure a client mount.
type MountOptions struct {
	// ResvPort makes the client bind a reserved port even if its default
	// is not to (the workaround §11 describes for FreeBSD clients against
	// the Linux server).
	ResvPort bool
}

// Mount is an NFS-mounted file system on a client machine. It implements
// fs.VFS.
type Mount struct {
	clock  *sim.Clock
	client *osprofile.Profile
	server *Server
	link   *netstack.Link
	faults *fault.NetInjector

	attrCached map[string]bool
	dataCache  *clientCache
	openFiles  map[string]*fs.File

	stats Stats
}

// Stats counts client-observed NFS activity.
type Stats struct {
	RPCs          uint64
	ReadRPCs      uint64
	WriteRPCs     uint64
	LookupRPCs    uint64
	MetaRPCs      uint64
	BytesToWire   uint64
	BytesFromWire uint64
	CacheReads    uint64 // reads satisfied from the client cache
	// Retransmits counts RPCs re-sent after an injected loss ate the
	// request or its reply (hard-mount retry).
	Retransmits uint64
}

// NewMount mounts the server on a client. The clock is the client
// machine's clock; all client-visible latency is charged to it.
func NewMount(clock *sim.Clock, client *osprofile.Profile, server *Server, link *netstack.Link, opts MountOptions) (*Mount, error) {
	if server.prof.NFS.RequiresPrivPort && !client.NFS.SendsPrivPort && !opts.ResvPort {
		return nil, fmt.Errorf(
			"nfs: %s server requires a privileged client port and the %s client does not bind one by default; mount with ResvPort (§11)",
			server.prof, client)
	}
	cacheBytes := int64(client.NFS.ClientCacheMB) << 20
	if !client.NFS.ClientCachesData {
		cacheBytes = 0
	}
	return &Mount{
		clock:      clock,
		client:     client,
		server:     server,
		link:       link,
		attrCached: make(map[string]bool),
		dataCache:  newClientCache(cacheBytes),
		openFiles:  make(map[string]*fs.File),
	}, nil
}

// Stats returns a copy of the counters.
func (m *Mount) Stats() Stats { return m.stats }

// SetFaults attaches a network injector to the mount's RPC path (nil
// detaches). NFS here runs over UDP, so injected loss triggers the
// hard-mount retry loop in retryRPC rather than an error.
func (m *Mount) SetFaults(inj *fault.NetInjector) { m.faults = inj }

// retryRPC models the hard-mount retransmission of NFS over UDP: while
// the injector eats the request or its reply, the client pays its
// per-RPC CPU and the request's wire time again, sits out the
// retransmission timeout (exponential backoff per attempt), and
// retries. The plan validator bounds loss probability below one, so the
// loop terminates; with no injector attached it draws nothing and adds
// zero time.
func (m *Mount) retryRPC(reqBytes int) {
	for attempt := 0; m.faults.DropRPC(); attempt++ {
		m.stats.Retransmits++
		// The re-sent request goes on the wire again; count its bytes so
		// aggregated per-mount wire totals stay exact under loss.
		m.stats.BytesToWire += uint64(reqBytes)
		m.clock.Advance(m.client.NFS.ClientPerRPC +
			m.link.TransmitTime(reqBytes) + m.faults.RTOWait(attempt))
	}
}

// transferSize returns the rsize/wsize for this client-server pairing.
func (m *Mount) transferSize() int {
	if m.client.Name == m.server.prof.Name {
		return m.client.NFS.TransferSize
	}
	return m.client.NFS.ForeignTransferSize
}

// pipelined reports whether this mount overlaps RPCs for bulk data. A
// conservative client serialises against a synchronously committing
// server.
func (m *Mount) pipelined() bool {
	if !m.client.NFS.Pipelined {
		return false
	}
	if m.client.NFS.SerializesSyncWrites && m.server.prof.NFS.ServerSyncWrites {
		return false
	}
	return true
}

// localEntry charges the client-side system call overhead of a VFS
// operation.
func (m *Mount) localEntry() {
	m.clock.Advance(m.client.Kernel.Syscall + m.client.FS.OpFixed)
}

// rpc performs one synchronous RPC: client CPU, request on the wire,
// server processing, reply on the wire.
func (m *Mount) rpc(reqBytes, replyBytes int, work func()) {
	m.stats.RPCs++
	m.stats.BytesToWire += uint64(reqBytes)
	m.stats.BytesFromWire += uint64(replyBytes)
	m.retryRPC(reqBytes)
	serverTime := m.server.process(work)
	m.clock.Advance(m.client.NFS.ClientPerRPC +
		m.link.TransmitTime(reqBytes) + serverTime + m.link.TransmitTime(replyBytes))
}

// rpcStream performs a stream of n bulk RPCs. A pipelined client keeps
// several in flight, so per-RPC elapsed time is the maximum of wire time
// and server time rather than their sum (one full round trip of latency
// is paid at the tail).
func (m *Mount) rpcStream(n int, reqBytes, replyBytes int, work func(i int)) {
	if n <= 0 {
		return
	}
	pipelined := m.pipelined()
	for i := 0; i < n; i++ {
		m.stats.RPCs++
		m.stats.BytesToWire += uint64(reqBytes)
		m.stats.BytesFromWire += uint64(replyBytes)
		// A lost RPC stalls the pipeline: even a pipelined client must
		// redrive the missing request before the stream can progress.
		m.retryRPC(reqBytes)
		var w func()
		if work != nil {
			i := i
			w = func() { work(i) }
		}
		serverTime := m.server.process(w)
		wire := m.link.TransmitTime(reqBytes) + m.link.TransmitTime(replyBytes)
		if pipelined {
			d := wire
			if serverTime > d {
				d = serverTime
			}
			m.clock.Advance(m.client.NFS.ClientPerRPC + d)
		} else {
			m.clock.Advance(m.client.NFS.ClientPerRPC + wire + serverTime)
		}
	}
}

// lookupPath charges the lookup traffic for resolving a path on open or
// stat. With a warm attribute cache it is free; otherwise one LOOKUP RPC
// (plus a GETATTR for clients with no attribute cache at all, which must
// revalidate).
func (m *Mount) lookupPath(path string) {
	if m.client.NFS.AttrCacheTTL > 0 && m.attrCached[path] {
		return
	}
	m.stats.LookupRPCs++
	m.rpc(rpcHeader, rpcHeader, nil)
	if m.client.NFS.AttrCacheTTL == 0 {
		m.stats.LookupRPCs++
		m.rpc(rpcHeader, rpcHeader, nil)
	} else {
		m.attrCached[path] = true
	}
}

// Mkdir implements fs.VFS.
func (m *Mount) Mkdir(path string) error {
	m.localEntry()
	var err error
	m.stats.MetaRPCs++
	m.rpc(rpcHeader+64, rpcHeader, func() { err = m.server.fsys.Mkdir(path) })
	if err == nil && m.client.NFS.AttrCacheTTL > 0 {
		m.attrCached[path] = true
	}
	return err
}

// Create implements fs.VFS.
func (m *Mount) Create(path string) (fs.Handle, error) {
	m.localEntry()
	var sf *fs.File
	var err error
	m.stats.MetaRPCs++
	m.rpc(rpcHeader+64, rpcHeader+64, func() { sf, err = m.server.fsys.Create(path) })
	if err != nil {
		return nil, err
	}
	m.openFiles[path] = sf
	if m.client.NFS.AttrCacheTTL > 0 {
		m.attrCached[path] = true
	}
	m.dataCache.drop(path)
	return &file{m: m, path: path, sf: sf}, nil
}

// Open implements fs.VFS.
func (m *Mount) Open(path string) (fs.Handle, error) {
	m.localEntry()
	m.lookupPath(path)
	sf, ok := m.openFiles[path]
	if !ok {
		var err error
		sf, err = m.server.fsys.Open(path)
		if err != nil {
			return nil, err
		}
		m.openFiles[path] = sf
	}
	return &file{m: m, path: path, sf: sf}, nil
}

// Unlink implements fs.VFS.
func (m *Mount) Unlink(path string) error {
	m.localEntry()
	var err error
	m.stats.MetaRPCs++
	m.rpc(rpcHeader+64, rpcHeader, func() { err = m.server.fsys.Unlink(path) })
	delete(m.attrCached, path)
	m.dataCache.drop(path)
	delete(m.openFiles, path)
	return err
}

// Rename implements fs.VFS: one RENAME RPC; the server commits its
// directory metadata per its own policy.
func (m *Mount) Rename(oldPath, newPath string) error {
	m.localEntry()
	var err error
	m.stats.MetaRPCs++
	m.rpc(rpcHeader+128, rpcHeader, func() { err = m.server.fsys.Rename(oldPath, newPath) })
	delete(m.attrCached, oldPath)
	m.dataCache.drop(oldPath)
	if sf, ok := m.openFiles[oldPath]; ok && err == nil {
		m.openFiles[newPath] = sf
		delete(m.openFiles, oldPath)
	}
	if err == nil && m.client.NFS.AttrCacheTTL > 0 {
		m.attrCached[newPath] = true
	}
	return err
}

// Stat implements fs.VFS.
func (m *Mount) Stat(path string) (fs.StatInfo, error) {
	m.localEntry()
	var st fs.StatInfo
	var err error
	if m.client.NFS.AttrCacheTTL > 0 && m.attrCached[path] {
		// Served from the client attribute cache.
		st, err = m.server.fsys.Stat(path) // consistency only; uncharged server op
		return st, err
	}
	m.stats.LookupRPCs++
	m.rpc(rpcHeader, rpcHeader+64, func() { st, err = m.server.fsys.Stat(path) })
	if m.client.NFS.AttrCacheTTL > 0 {
		m.attrCached[path] = true
	}
	return st, err
}

// List implements fs.VFS.
func (m *Mount) List(path string) ([]string, error) {
	m.localEntry()
	var names []string
	var err error
	m.stats.MetaRPCs++
	m.rpc(rpcHeader, rpcHeader+512, func() { names, err = m.server.fsys.List(path) })
	return names, err
}

// file is an open NFS file handle on the client.
type file struct {
	m       *Mount
	path    string
	sf      *fs.File
	offset  int64
	maxRead int64 // high-water mark of offsets this handle has fetched
	closed  bool
}

// Read implements fs.Handle. Reads satisfied by the client cache cost
// only the local copy; otherwise the data comes over the wire in
// rsize-sized READ RPCs.
func (f *file) Read(n int64) int64 {
	if f.closed {
		panic("nfs: read on closed file")
	}
	m := f.m
	m.clock.Advance(m.client.Kernel.Syscall + m.client.Kernel.ReadWriteExtra)
	size := f.sf.Size()
	if f.offset >= size {
		return 0
	}
	if f.offset+n > size {
		n = size - f.offset
	}
	// Pages this handle already fetched stay mapped for its lifetime
	// (every 1995 client had at least per-open page reuse), and a caching
	// client can also hit its cross-open data cache.
	if f.offset+n <= f.maxRead || m.dataCache.covers(f.path, f.offset+n) {
		m.stats.CacheReads++
		m.clock.Advance(sim.Duration(int64(m.client.FS.ReadPerKB) * n / 1024))
		f.offset += n
		return n
	}
	ts := int64(m.transferSize())
	rpcs := int((n + ts - 1) / ts)
	f.sf.SeekTo(f.offset)
	m.stats.ReadRPCs += uint64(rpcs)
	m.rpcStream(rpcs, rpcHeader, int(ts)+rpcHeader, func(i int) {
		f.sf.Read(ts)
	})
	// Client-side delivery copy.
	m.clock.Advance(sim.Duration(int64(m.client.FS.ReadPerKB) * n / 1024))
	f.offset += n
	if f.offset > f.maxRead {
		f.maxRead = f.offset
	}
	m.dataCache.extend(f.path, f.offset)
	return n
}

// Write implements fs.Handle: the data goes out in wsize-sized WRITE
// RPCs. Against a synchronously committing server, every RPC's data is
// forced to the server's disk (with the metadata updates the spec
// requires) before the reply.
func (f *file) Write(n int64) {
	if f.closed {
		panic("nfs: write on closed file")
	}
	m := f.m
	m.clock.Advance(m.client.Kernel.Syscall + m.client.Kernel.ReadWriteExtra)
	// Client-side copy out of the user buffer.
	m.clock.Advance(sim.Duration(int64(m.client.FS.WritePerKB) * n / 1024))
	ts := int64(m.transferSize())
	rpcs := int((n + ts - 1) / ts)
	f.sf.SeekTo(f.offset)
	srv := m.server
	sync := srv.prof.NFS.ServerSyncWrites
	m.stats.WriteRPCs += uint64(rpcs)
	m.rpcStream(rpcs, int(ts)+rpcHeader, rpcHeader, func(i int) {
		chunk := ts
		if rem := n - int64(i)*ts; chunk > rem {
			chunk = rem
		}
		f.sf.Write(chunk)
		if sync {
			srv.fsys.CommitFile(f.sf, srv.prof.NFS.ServerSyncMetaPerWrite)
		}
	})
	f.offset += n
	m.dataCache.extend(f.path, f.offset)
}

// SeekTo implements fs.Handle.
func (f *file) SeekTo(offset int64) {
	f.m.clock.Advance(f.m.client.Kernel.Syscall)
	f.offset = offset
}

// Size implements fs.Handle.
func (f *file) Size() int64 { return f.sf.Size() }

// Close implements fs.Handle. NFS has no close RPC; close-to-open
// consistency costs a GETATTR on the next open, modelled in lookupPath.
func (f *file) Close() {
	f.m.clock.Advance(f.m.client.Kernel.Syscall)
	f.closed = true
}

// clientCache is the client-side data cache: a byte-budgeted LRU of
// whole-file prefixes. Capacity zero disables it (the Linux 1.2.8
// client).
type clientCache struct {
	capacity int64
	bytes    int64
	extents  map[string]int64
	order    []string // LRU -> MRU
}

func newClientCache(capacity int64) *clientCache {
	return &clientCache{capacity: capacity, extents: make(map[string]int64)}
}

// covers reports whether the first n bytes of path are cached, promoting
// the file on a hit.
func (c *clientCache) covers(path string, n int64) bool {
	if c.capacity <= 0 {
		return false
	}
	if c.extents[path] < n {
		return false
	}
	c.promote(path)
	return true
}

// extend records that the first n bytes of path are now cached, evicting
// least recently used files beyond capacity.
func (c *clientCache) extend(path string, n int64) {
	if c.capacity <= 0 {
		return
	}
	old, ok := c.extents[path]
	if n <= old {
		c.promote(path)
		return
	}
	c.extents[path] = n
	c.bytes += n - old
	if !ok {
		c.order = append(c.order, path)
	} else {
		c.promote(path)
	}
	for c.bytes > c.capacity && len(c.order) > 1 {
		victim := c.order[0]
		if victim == path && len(c.order) == 1 {
			break
		}
		c.order = c.order[1:]
		c.bytes -= c.extents[victim]
		delete(c.extents, victim)
	}
}

func (c *clientCache) promote(path string) {
	for i, p := range c.order {
		if p == path {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append(c.order, path)
			return
		}
	}
}

// drop forgets a file (truncation or unlink).
func (c *clientCache) drop(path string) {
	if ext, ok := c.extents[path]; ok {
		c.bytes -= ext
		delete(c.extents, path)
		for i, p := range c.order {
			if p == path {
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
	}
}
