package bench

import (
	"repro/internal/disk"
	"repro/internal/netstack"
	"repro/internal/nfs"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
)

// SunServerDisk returns the geometry modelled for the SunOS 4.1.4 file
// server's drive: an older, slower SCSI disk than the Pentium's (the
// paper does not describe the server hardware; a first-generation Sun
// 1 GB drive is representative).
func SunServerDisk() disk.Geometry {
	return disk.Geometry{
		Name:               "Sun 1.05GB (NFS server)",
		CapacityMB:         1050,
		Cylinders:          2500,
		RPM:                4400,
		TrackToTrack:       1500 * sim.Microsecond,
		AvgSeek:            12 * sim.Millisecond,
		TransferMBs:        2.5,
		ControllerOverhead: 500 * sim.Microsecond,
	}
}

// NFSServerKind selects the file server of §10.
type NFSServerKind int

const (
	// ServerLinux is the Linux 1.2.8 server (Table 6), which answers
	// from its cache.
	ServerLinux NFSServerKind = iota
	// ServerSunOS is the SunOS 4.1.4 server (Table 7), which commits
	// synchronously per the NFS spec.
	ServerSunOS
)

// NewNFSServer builds the chosen server machine. Both server kinds are
// compiled-in personalities on compiled-in geometries, so construction
// cannot fail.
func NewNFSServer(kind NFSServerKind, seed uint64) *nfs.Server {
	var (
		s   *nfs.Server
		err error
	)
	switch kind {
	case ServerLinux:
		s, err = nfs.NewServer(osprofile.Linux128(), disk.QuantumEmpire2100(), seed)
	case ServerSunOS:
		s, err = nfs.NewServer(osprofile.SunOS414(), SunServerDisk(), seed)
	default:
		panic("bench: unknown NFS server kind")
	}
	if err != nil {
		panic(err)
	}
	return s
}

// MABNFS runs the Modified Andrew Benchmark with the given OS as the NFS
// client against the chosen server (Tables 6 and 7). FreeBSD clients
// mount with the reserved-port option when the server is Linux, working
// around the §11 quirk exactly as the authors had to.
func MABNFS(p *osprofile.Profile, kind NFSServerKind, cfg MABConfig, seed uint64) MABResult {
	return (*Scope)(nil).MABNFS(p, kind, cfg, seed)
}

// mabPhaseKeys are metric-name slugs for MABResult.Phase, index-aligned
// with its phases.
var mabPhaseKeys = [5]string{"mkdir", "copy", "stat", "read", "compile"}

// MABNFS is MABNFS observed by s: the network injector rides the
// mount's RPC path (hard-mount retry under loss), and the disk and
// cache injectors ride the server's local file system. The metrics
// carry the per-phase times, the client's RPC counters (including
// retransmits when faults fired), and the server's file system and
// disk counters.
func (s *Scope) MABNFS(p *osprofile.Profile, kind NFSServerKind, cfg MABConfig, seed uint64) MABResult {
	clock := &sim.Clock{}
	server := NewNFSServer(kind, seed)
	opts := nfs.MountOptions{}
	if server.OS().NFS.RequiresPrivPort && !p.NFS.SendsPrivPort {
		opts.ResvPort = true
	}
	mount, err := nfs.NewMount(clock, p, server, netstack.Ethernet10(), opts)
	if err != nil {
		panic(err)
	}
	server.SetFaults(s.faults())
	mount.SetFaults(s.faults().Net)
	res := MABOn(clock, mount, p, cfg)
	s.capture(p, res.Total, func(reg *obs.Registry) {
		for i, key := range mabPhaseKeys {
			reg.Counter("mab.phase_us." + key).Add(res.Phase[i].Microseconds())
		}
		mount.Stats().FoldMetrics(reg, "nfs.")
		server.FS().FoldMetrics(reg, "srv.fs.")
		server.FS().Disk().Stats().FoldMetrics(reg, "srv.disk.")
	})
	return res
}
