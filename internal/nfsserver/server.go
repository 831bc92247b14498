// Package nfsserver models one NFS server under open-loop load from an
// arbitrary number of clients — the scale-out half of the paper's §10
// exhibit. The paper measures one client against one server; the model
// here asks what each personality's server policy (asynchronous Linux
// 1.2.8 answers-from-cache versus spec-compliant synchronous commits)
// costs once thousands or millions of clients contend for the same nfsd
// slots, buffer cache, and disk.
//
// The performance discipline is the point of the package:
//
//   - O(1) work and zero steady-state allocation per operation. All
//     request state lives in flat struct-of-array pools sized by the
//     server's capacity (queue depth + nfsd slots + retry rings), not by
//     the client population. Event closures are bound once at
//     construction, and the event queue holds them by value in a heap
//     that never exceeds 1 + Nfsd + retryTiers entries.
//
//   - O(1) state per client: three uint32 counters (issued, completed,
//     retransmitted) — 12 bytes — so a 10^6-client sweep costs ~12 MB,
//     not a goroutine or map entry per client.
//
//   - O(1) memory per observation: latencies stream into a fixed-boundary
//     log-bucket stats.Histogram; no sample is ever stored.
//
// Arrivals are open-loop: the merged request stream of N clients at rate
// λ each is one Poisson process at rate Nλ, so the generator draws one
// exponential gap and one client index per operation — constant work no
// matter how many clients exist — in batches of 64 draws to keep the RNG
// loop tight. Each operation is timestamped at issue, pays header wire
// time to reach the server, then either enters the bounded ingress queue,
// is dropped (queue overflow, or wire loss from the fault layer) and
// retried with exponential backoff through per-tier FIFO retry rings, or
// is served by one of the nfsd slots. Reads miss the shared buffer cache
// with probability growing in the client population's working set;
// misses — and every write on a synchronous-commit server — serialize on
// the one shared disk.
//
// Every duration is integer virtual nanoseconds, and each completed
// operation's latency decomposes exactly:
//
//	latency = attempts·wireHdr + rtoWait + queueWait + cpu + diskWait +
//	          diskTime + wireRemainder
//
// The per-component Ledger sums to the histogram's exact Sum — the same
// ledger-equals-elapsed bar the repository's other models meet — and the
// whole run is single-threaded on one event queue, so results are
// byte-identical for a given Config no matter the host or worker count.
package nfsserver

import (
	"fmt"
	"math"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/osprofile"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Operation classes in the workload mix. The 6/3/1 read/write/getattr
// split follows the MAB-over-NFS shape: data-dominated with a metadata
// tail.
const (
	clRead = iota
	clWrite
	clGetattr
	numClasses
)

var classNames = [numClasses]string{"read", "write", "getattr"}

const (
	// rpcHeader is the RPC+NFS header size, matching the client model.
	rpcHeader = 128
	// batchSize is how many arrival draws (gap, client, class) are
	// precomputed per RNG batch.
	batchSize = 64
	// retryTiers is the number of backoff tiers with their own FIFO
	// retry ring; attempts beyond the last tier reuse its (capped) RTO.
	retryTiers = 6
	// retryRingCap bounds each tier's ring; an overflowing retry is shed
	// (the client soft-fails) rather than grown — memory stays bounded
	// under any overload.
	retryRingCap = 4096
	// maxSendsPerOp caps how often one operation is sent before the
	// client gives up; NFS hard mounts retry forever, but an unbounded
	// retry loop would unbound the simulation, so the model soft-fails
	// and counts the shed.
	maxSendsPerOp = 8
	// workingSetKB is each client's share of hot file data; the server
	// buffer cache's hit rate is its capacity over the population's
	// total working set.
	workingSetKB = 64
)

// Config parameterises one server run.
type Config struct {
	// Profile selects the server personality (CPU cost per RPC, write
	// commit policy, buffer cache size).
	Profile *osprofile.Profile
	// Clients is the client population size (>= 1).
	Clients int
	// Nfsd is the number of server worker slots (default 8, the
	// conventional nfsd count of the era).
	Nfsd int
	// QueueCap bounds the RPC ingress queue (default 1024); an arrival
	// finding it full is dropped and retried by the client.
	QueueCap int
	// RatePerClient is each client's open-loop request rate in
	// operations per virtual second (default 1).
	RatePerClient float64
	// TargetOps stops the run after this many completed operations
	// (default 20000): enough for a stable p999 without letting lightly
	// loaded points run forever.
	TargetOps int
	// AttemptBudget bounds total server-ingress attempts — first sends
	// plus retransmits (default 200000). Under overload the budget, not
	// TargetOps, ends the run; completions already in queue or in
	// service still drain and count.
	AttemptBudget int
	// Seed drives the arrival and service RNG streams.
	Seed uint64
	// Faults, when non-nil, injects wire loss (DropRPC) and supplies the
	// retransmit timeout schedule for every requeue. Nil means a
	// lossless wire with the default 100 ms ×2 (cap 3 s) backoff for
	// queue-overflow drops.
	Faults *fault.NetInjector
}

func (c *Config) defaults() {
	if c.Nfsd == 0 {
		c.Nfsd = 8
	}
	if c.QueueCap == 0 {
		c.QueueCap = 1024
	}
	if c.RatePerClient == 0 {
		c.RatePerClient = 1
	}
	if c.TargetOps == 0 {
		c.TargetOps = 20000
	}
	if c.AttemptBudget == 0 {
		c.AttemptBudget = 200000
	}
}

// Ledger decomposes the total completed-operation latency into its
// phases, in exact virtual nanoseconds. Sum() equals the latency
// histogram's Sum() exactly — the model's conservation law.
type Ledger struct {
	// Wire is request+reply transmission time across all sends.
	Wire sim.Duration
	// RTO is client-side retransmit backoff waiting.
	RTO sim.Duration
	// QueueWait is time spent in the ingress queue before an nfsd picked
	// the request up.
	QueueWait sim.Duration
	// CPU is nfsd service processing.
	CPU sim.Duration
	// DiskWait is time serialized behind other requests' disk I/O.
	DiskWait sim.Duration
	// DiskTime is the request's own disk I/O.
	DiskTime sim.Duration
}

// Sum returns the ledger total.
func (l Ledger) Sum() sim.Duration {
	return l.Wire + l.RTO + l.QueueWait + l.CPU + l.DiskWait + l.DiskTime
}

// Result reports one run. All fields are exact integers or exact integer
// ratios; two runs of the same Config produce identical Results.
type Result struct {
	// Clients and Nfsd echo the configuration.
	Clients, Nfsd int
	// Arrivals counts first sends; Attempts counts every server-ingress
	// try including retransmits; Completed counts served operations.
	Arrivals, Attempts, Completed uint64
	// Retransmits counts wire-loss timeouts (matches the fault
	// injector's RPCRetransmits); QueueDrops counts ingress-queue
	// overflows; Shed counts operations abandoned after too many sends
	// or a full retry ring.
	Retransmits, QueueDrops, Shed uint64
	// Elapsed is the virtual time of the last counted completion; Busy
	// is total nfsd busy time across slots for counted operations.
	Elapsed, Busy sim.Duration
	// Ledger is the exact latency decomposition; Hist the latency
	// distribution.
	Ledger Ledger
	Hist   stats.Histogram
}

// Throughput returns completed operations per virtual second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / (float64(r.Elapsed) / 1e9)
}

// Quantile returns the q-quantile completion latency.
func (r *Result) Quantile(q float64) sim.Duration {
	return sim.Duration(r.Hist.Quantile(q))
}

// Utilization returns mean nfsd-slot busy fraction over the run.
func (r *Result) Utilization() float64 {
	if r.Elapsed <= 0 || r.Nfsd == 0 {
		return 0
	}
	return float64(r.Busy) / (float64(r.Elapsed) * float64(r.Nfsd))
}

// FoldMetrics adds the run's counters to a registry under the prefix.
func (r *Result) FoldMetrics(reg *obs.Registry, prefix string) {
	reg.Counter(prefix + "clients").Add(float64(r.Clients))
	reg.Counter(prefix + "completed").Add(float64(r.Completed))
	reg.Counter(prefix + "arrivals").Add(float64(r.Arrivals))
	reg.Counter(prefix + "attempts").Add(float64(r.Attempts))
	reg.Counter(prefix + "retransmits").Add(float64(r.Retransmits))
	reg.Counter(prefix + "queue_drops").Add(float64(r.QueueDrops))
	reg.Counter(prefix + "shed").Add(float64(r.Shed))
	reg.Counter(prefix + "elapsed_us").Add(r.Elapsed.Microseconds())
	reg.Counter(prefix + "busy_us").Add(r.Busy.Microseconds())
	reg.Counter(prefix + "wire_us").Add(r.Ledger.Wire.Microseconds())
	reg.Counter(prefix + "rto_us").Add(r.Ledger.RTO.Microseconds())
	reg.Counter(prefix + "queue_wait_us").Add(r.Ledger.QueueWait.Microseconds())
	reg.Counter(prefix + "cpu_us").Add(r.Ledger.CPU.Microseconds())
	reg.Counter(prefix + "disk_wait_us").Add(r.Ledger.DiskWait.Microseconds())
	reg.Counter(prefix + "disk_time_us").Add(r.Ledger.DiskTime.Microseconds())
	reg.Counter(prefix + "p50_us").Add(sim.Duration(r.Hist.Quantile(0.5)).Microseconds())
	reg.Counter(prefix + "p99_us").Add(sim.Duration(r.Hist.Quantile(0.99)).Microseconds())
	reg.Counter(prefix + "p999_us").Add(sim.Duration(r.Hist.Quantile(0.999)).Microseconds())
}

// ring is one backoff tier's FIFO of pending retransmits. Storage is a
// fixed circular buffer; one queue event is outstanding per non-empty
// ring, always for the head entry.
type ring struct {
	idx     [retryRingCap]int32
	due     [retryRingCap]int64
	head, n int
}

// Server is one run's state. Build with New, optionally attach a
// recorder, then Run once.
type Server struct {
	cfg Config
	evq sim.Queue
	arr *sim.RNG // arrival stream: gaps, client picks, op classes
	svc *sim.RNG // service stream: buffer-cache hit draws

	// Precomputed per-class costs.
	wireHdr    int64             // header transmit time (first frame of any request)
	wireRem    [numClasses]int64 // remaining wire time: request payload + reply
	cpuOf      [numClasses]int64 // nfsd CPU service time
	diskAccess int64             // one disk access (seek + rotate + transfer + controller)
	writeDisk  int64             // disk accesses per write (0 on async servers)
	hitP       float64           // buffer-cache hit probability for reads
	rtoOf      [retryTiers]int64 // lossless-wire backoff schedule

	// Per-client state: 12 bytes each, nothing else scales with the
	// population.
	clIssued, clDone, clRetrans []uint32

	// Request pool, struct-of-arrays with a free-list stack. Capacity is
	// a function of server resources only.
	rqID       []uint64 // arrival ordinal (1-based), stable across reruns
	rqClient   []int32
	rqClass    []uint8
	rqSends    []uint8 // completed send attempts
	rqIssue    []int64 // client issue time
	rqRTO      []int64 // accumulated backoff wait
	rqDrop     []int64 // time of the most recent drop
	rqEnq      []int64 // ingress-queue entry time
	rqStart    []int64 // service start time
	rqDiskWait []int64
	rqDiskTime []int64
	freeList   []int32

	// Ingress queue: a circular buffer of request indices.
	q           []int32
	qHead, qLen int

	// nfsd slots.
	slotReq   []int32
	idle      []int32
	slotFns   []func()
	slotTrack []obs.TrackID

	rings   [retryTiers]ring
	ringFns [retryTiers]func()

	// Arrival generator: one pending arrival event at a time, drawing
	// from a precomputed batch.
	pendClient          int32
	pendClass           uint8
	nextIssue           int64
	arrivalFn           func()
	batGap              [batchSize]int64
	batClient           [batchSize]int32
	batClass            [batchSize]uint8
	batPos, batLen      int
	interarrivalScaleNs float64

	diskFreeAt int64
	attempts   uint64
	done       bool
	endAt      int64

	// Always-on audit accounting: O(1) integer work per flow event, no
	// allocation, no RNG — an independent double-entry ledger the audit
	// engine cross-checks the Result against. sysN counts requests in
	// system (ingress queue + service), busyN busy nfsd slots; the area
	// integrals ∫N(t)dt advance lazily at each population change.
	sysN, busyN       int
	lastFlow          int64
	sysArea, busyArea int64
	resends           uint64

	rec *obs.Recorder
	ex  *obs.Exemplars

	// Time-series handles, all nil when no sampler is attached — each
	// record below is then a nil-receiver no-op, so the unsampled hot
	// path pays one predictable branch and zero allocations.
	smp        *obs.Sampler
	tsArrivals *obs.SeriesCounter
	tsDone     *obs.SeriesCounter
	tsDrops    *obs.SeriesCounter
	tsRetrans  *obs.SeriesCounter
	tsShed     *obs.SeriesCounter
	tsBusy     *obs.SeriesCounter
	tsFaults   *obs.SeriesCounter
	tsDiskNs   *obs.SeriesCounter
	tsQueue    *obs.SeriesGauge
	tsSlots    *obs.SeriesGauge
	tsBacklog  *obs.SeriesGauge
	tsLat      *obs.SeriesHist
	tsFlight   *obs.SeriesCounter

	res Result
}

// New builds a server model for the configuration. It panics on a
// missing profile or non-positive client count — programming errors, not
// runtime conditions.
func New(cfg Config) *Server {
	cfg.defaults()
	if cfg.Profile == nil {
		panic("nfsserver: nil profile")
	}
	if cfg.Clients < 1 {
		panic(fmt.Sprintf("nfsserver: %d clients", cfg.Clients))
	}
	p := cfg.Profile
	s := &Server{
		cfg: cfg,
		arr: sim.NewRNG(cfg.Seed).Fork(0x6e667361 /* "nfsa" */),
		svc: sim.NewRNG(cfg.Seed).Fork(0x6e667373 /* "nfss" */),
	}

	link := netstack.Ethernet10()
	xfer := p.NFS.TransferSize
	if xfer <= 0 {
		xfer = 8192
	}
	s.wireHdr = int64(link.TransmitTime(rpcHeader))
	wireData := int64(link.TransmitTime(xfer))
	// Remaining wire time per class = (request − header) + reply.
	s.wireRem[clRead] = s.wireHdr + wireData  // small request, data reply
	s.wireRem[clWrite] = wireData + s.wireHdr // data request, small reply
	s.wireRem[clGetattr] = s.wireHdr          // small request, small reply

	kb := int64(xfer) / 1024
	base := int64(p.NFS.ServerPerRPC)
	s.cpuOf[clRead] = base + int64(p.FS.ReadPerKB)*kb
	s.cpuOf[clWrite] = base + int64(p.FS.WritePerKB)*kb
	s.cpuOf[clGetattr] = base

	g := disk.HP3725()
	rotHalf := int64(60.0 / g.RPM / 2 * 1e9)
	blockXfer := int64(float64(disk.BlockSize) / (g.TransferMBs * 1e6) * 1e9)
	s.diskAccess = int64(g.AvgSeek) + rotHalf + blockXfer + int64(g.ControllerOverhead)
	if p.NFS.ServerSyncWrites {
		s.writeDisk = 1 + int64(p.NFS.ServerSyncMetaPerWrite)
	}

	cacheBytes := float64(p.FS.BufferCacheMB) * (1 << 20)
	wsBytes := float64(cfg.Clients) * workingSetKB * 1024
	s.hitP = cacheBytes / wsBytes
	if s.hitP > 1 {
		s.hitP = 1
	}

	for t := 0; t < retryTiers; t++ {
		ms := int64(100) << t
		if ms > 3000 {
			ms = 3000
		}
		s.rtoOf[t] = ms * int64(sim.Millisecond)
	}

	s.clIssued = make([]uint32, cfg.Clients)
	s.clDone = make([]uint32, cfg.Clients)
	s.clRetrans = make([]uint32, cfg.Clients)

	poolCap := cfg.QueueCap + cfg.Nfsd + retryTiers*retryRingCap + 1
	s.rqID = make([]uint64, poolCap)
	s.rqClient = make([]int32, poolCap)
	s.rqClass = make([]uint8, poolCap)
	s.rqSends = make([]uint8, poolCap)
	s.rqIssue = make([]int64, poolCap)
	s.rqRTO = make([]int64, poolCap)
	s.rqDrop = make([]int64, poolCap)
	s.rqEnq = make([]int64, poolCap)
	s.rqStart = make([]int64, poolCap)
	s.rqDiskWait = make([]int64, poolCap)
	s.rqDiskTime = make([]int64, poolCap)
	s.freeList = make([]int32, poolCap)
	for i := range s.freeList {
		s.freeList[i] = int32(poolCap - 1 - i)
	}

	s.q = make([]int32, cfg.QueueCap)
	s.slotReq = make([]int32, cfg.Nfsd)
	s.idle = make([]int32, 0, cfg.Nfsd)
	s.slotFns = make([]func(), cfg.Nfsd)
	for i := cfg.Nfsd - 1; i >= 0; i-- {
		slot := int32(i)
		s.slotReq[i] = -1
		s.slotFns[i] = func() { s.complete(slot) }
		s.idle = append(s.idle, slot)
	}
	for t := 0; t < retryTiers; t++ {
		tier := t
		s.ringFns[t] = func() { s.ringPop(tier) }
	}
	s.arrivalFn = func() { s.arrive() }
	s.interarrivalScaleNs = 1e9 / (cfg.RatePerClient * float64(cfg.Clients))

	s.res.Clients = cfg.Clients
	s.res.Nfsd = cfg.Nfsd
	return s
}

// Clock exposes the model's virtual clock, for attaching an
// obs.Recorder before Run.
func (s *Server) Clock() *sim.Clock { return s.evq.Clock() }

// SetRecorder attaches a span recorder (built on this server's Clock);
// each nfsd slot gets its own track. Nil is fine and costs nothing.
func (s *Server) SetRecorder(rec *obs.Recorder) {
	s.rec = rec
	if rec == nil {
		return
	}
	s.slotTrack = make([]obs.TrackID, s.cfg.Nfsd)
	for i := range s.slotTrack {
		s.slotTrack[i] = rec.Track(fmt.Sprintf("nfsd%d", i))
	}
}

// SetSampler attaches a virtual-time time-series sampler before Run.
// Nil is fine and costs nothing: every handle stays nil and each record
// in the hot path is a nil-receiver no-op. The sampled series reconcile
// exactly with the end-of-run Result: per-window sums of nfs.completed,
// nfs.queue_drops, nfs.retransmits, nfs.shed, and nfs.busy_ns equal
// Completed, QueueDrops, Retransmits, Shed, and Busy, and nfs.latency's
// window counts and sums equal Hist.Count()/Hist.Sum().
func (s *Server) SetSampler(smp *obs.Sampler) {
	s.smp = smp
	s.tsArrivals = smp.Counter("nfs.arrivals")
	s.tsDone = smp.Counter("nfs.completed")
	s.tsDrops = smp.Counter("nfs.queue_drops")
	s.tsRetrans = smp.Counter("nfs.retransmits")
	s.tsShed = smp.Counter("nfs.shed")
	s.tsBusy = smp.Counter("nfs.busy_ns")
	s.tsFaults = smp.Counter("fault.rpc_drops")
	s.tsDiskNs = smp.Counter("disk.busy_ns")
	s.tsQueue = smp.Gauge("nfs.queue_depth")
	s.tsSlots = smp.Gauge("nfs.busy_slots")
	s.tsBacklog = smp.Gauge("disk.backlog_ns")
	s.tsLat = smp.Hist("nfs.latency_ns")
	s.tsFlight = smp.Counter("nfs.op_inflight")
}

// SetExemplars attaches an exemplar reservoir before Run: every
// completed or shed operation's full lifecycle is offered, and the
// reservoir keeps a deterministic tail-biased sample per window. Nil is
// fine and costs nothing — the offer sites are guarded, so the disabled
// hot path stays allocation free. Each retained exemplar's phase sum
// equals its recorded lifetime exactly (the per-request form of the
// ledger identity).
func (s *Server) SetExemplars(ex *obs.Exemplars) { s.ex = ex }

// Run executes the model to its TargetOps or AttemptBudget bound and
// returns the result. Run consumes the Server; call once.
func (s *Server) Run() *Result {
	s.scheduleNextArrival()
	for s.evq.Step() {
		if s.done {
			break
		}
	}
	if s.endAt == 0 {
		s.endAt = int64(s.evq.Now())
	}
	s.res.Attempts = s.attempts
	s.res.Elapsed = sim.Duration(s.endAt)
	return &s.res
}

// refillBatch draws the next batchSize arrivals' gaps, clients, and
// classes in one tight RNG loop.
func (s *Server) refillBatch() {
	for i := 0; i < batchSize; i++ {
		u := 1 - s.arr.Float64() // (0,1]: no log(0)
		s.batGap[i] = int64(-math.Log(u) * s.interarrivalScaleNs)
		s.batClient[i] = int32(s.arr.Intn(s.cfg.Clients))
		mix := s.arr.Intn(10)
		switch {
		case mix < 6:
			s.batClass[i] = clRead
		case mix < 9:
			s.batClass[i] = clWrite
		default:
			s.batClass[i] = clGetattr
		}
	}
	s.batPos, s.batLen = 0, batchSize
}

// scheduleNextArrival draws the next operation and schedules its
// server-ingress event at issue + header wire time.
func (s *Server) scheduleNextArrival() {
	if s.done || s.attempts >= uint64(s.cfg.AttemptBudget) {
		return
	}
	if s.batPos == s.batLen {
		s.refillBatch()
	}
	i := s.batPos
	s.batPos++
	s.nextIssue += s.batGap[i]
	s.pendClient = s.batClient[i]
	s.pendClass = s.batClass[i]
	s.evq.ScheduleAt(sim.Time(s.nextIssue+s.wireHdr), s.arrivalFn)
}

// arrive materialises the pending arrival as a pooled request and feeds
// it to ingress, then schedules the next one.
func (s *Server) arrive() {
	n := len(s.freeList)
	if n == 0 {
		panic("nfsserver: request pool exhausted") // capacity bug, not load
	}
	r := s.freeList[n-1]
	s.freeList = s.freeList[:n-1]
	s.rqClient[r] = s.pendClient
	s.rqClass[r] = s.pendClass
	s.rqSends[r] = 0
	s.rqIssue[r] = s.nextIssue
	s.rqRTO[r] = 0
	s.res.Arrivals++
	s.rqID[r] = s.res.Arrivals
	s.clIssued[s.pendClient]++
	s.tsArrivals.Inc(s.evq.Now())
	s.tsFlight.Inc(s.evq.Now())
	s.ingress(r)
	s.scheduleNextArrival()
}

func (s *Server) freeReq(r int32) { s.freeList = append(s.freeList, r) }

// flowTick advances the occupancy area integrals to now; call before any
// change to the in-system or busy-slot population. Event times are
// non-decreasing, so dt is never negative.
func (s *Server) flowTick(now int64) {
	if dt := now - s.lastFlow; dt > 0 {
		s.sysArea += int64(s.sysN) * dt
		s.busyArea += int64(s.busyN) * dt
		s.lastFlow = now
	}
}

// shed abandons request r at now after wireSends send attempts (the last
// of which may still have been on the wire): counts the shed, offers the
// truncated lifecycle as an exemplar, and recycles the pool slot. The
// identity now − issue == wireSends·wireHdr + rqRTO holds at every call
// site, so the exemplar's phase sum equals its lifetime exactly.
func (s *Server) shed(r int32, now, wireSends int64, tier int) {
	s.res.Shed++
	s.tsShed.Inc(sim.Time(now))
	s.tsFlight.Add(sim.Time(now), -1)
	if s.ex != nil {
		s.ex.Offer(obs.Exemplar{
			ID: s.rqID[r], Client: s.rqClient[r], Class: classNames[s.rqClass[r]],
			Shed: true, Sends: int(wireSends), Tier: tier,
			IssueNs: s.rqIssue[r], EnqNs: -1, StartNs: -1, EndNs: now,
			WireNs: wireSends * s.wireHdr, RTONs: s.rqRTO[r],
		})
	}
	s.freeReq(r)
}

// ingress is one send attempt reaching the server: it may be lost on the
// wire, bounce off a full queue, or enter service.
func (s *Server) ingress(r int32) {
	s.attempts++
	s.rqSends[r]++
	if s.rqSends[r] > 1 {
		s.resends++ // attempts == arrivals + resends, exactly
	}
	if s.cfg.Faults.DropRPC() {
		s.clRetrans[s.rqClient[r]]++
		s.res.Retransmits++
		s.tsRetrans.Inc(s.evq.Now())
		s.tsFaults.Inc(s.evq.Now())
		s.requeue(r)
		return
	}
	if s.qLen == len(s.q) {
		s.res.QueueDrops++
		s.tsDrops.Inc(s.evq.Now())
		s.requeue(r)
		return
	}
	now := int64(s.evq.Now())
	s.rqEnq[r] = now
	s.flowTick(now)
	s.sysN++
	if n := len(s.idle); n > 0 {
		slot := s.idle[n-1]
		s.idle = s.idle[:n-1]
		s.dispatch(slot, r)
		return
	}
	tail := s.qHead + s.qLen
	if tail >= len(s.q) {
		tail -= len(s.q)
	}
	s.q[tail] = r
	s.qLen++
	s.tsQueue.Set(sim.Time(now), int64(s.qLen))
}

// requeue schedules a dropped send's retransmit through its backoff
// tier's FIFO ring, or sheds the operation when the client has retried
// too often or the ring is full.
func (s *Server) requeue(r int32) {
	sends := int(s.rqSends[r])
	// A shed here happens at the drop instant, after `sends` completed
	// sends; the deepest backoff tier entered was for send sends-1.
	shedTier := sends - 2
	if shedTier >= retryTiers {
		shedTier = retryTiers - 1
	}
	if sends >= maxSendsPerOp {
		s.shed(r, int64(s.evq.Now()), int64(sends), shedTier)
		return
	}
	tier := sends - 1
	if tier >= retryTiers {
		tier = retryTiers - 1
	}
	var rto int64
	if s.cfg.Faults != nil {
		// The injector owns the backoff schedule (and accounts the
		// wait) for every requeue, wire loss or queue overflow alike,
		// so each tier's ring stays FIFO in due time.
		rto = int64(s.cfg.Faults.RTOWait(sends - 1))
	} else {
		rto = s.rtoOf[tier]
	}
	rg := &s.rings[tier]
	if rg.n == retryRingCap {
		s.shed(r, int64(s.evq.Now()), int64(sends), shedTier)
		return
	}
	now := int64(s.evq.Now())
	s.rqDrop[r] = now
	tail := rg.head + rg.n
	if tail >= retryRingCap {
		tail -= retryRingCap
	}
	rg.idx[tail] = r
	rg.due[tail] = now + rto + s.wireHdr
	rg.n++
	if rg.n == 1 {
		s.evq.ScheduleAt(sim.Time(rg.due[tail]), s.ringFns[tier])
	}
}

// ringPop re-sends the head of one backoff tier and re-arms the ring's
// event for the next entry.
func (s *Server) ringPop(tier int) {
	rg := &s.rings[tier]
	r := rg.idx[rg.head]
	rg.head++
	if rg.head == retryRingCap {
		rg.head = 0
	}
	rg.n--
	now := int64(s.evq.Now())
	if rg.n > 0 {
		due := rg.due[rg.head]
		if due < now {
			due = now // defensive: a custom backoff plan may not be monotone
		}
		s.evq.ScheduleAt(sim.Time(due), s.ringFns[tier])
	}
	// Attribute the actual wait (backoff plus any ring delay) so the
	// ledger identity holds exactly even if the schedule slipped.
	s.rqRTO[r] += now - s.rqDrop[r] - s.wireHdr
	if s.attempts >= uint64(s.cfg.AttemptBudget) {
		// The abandoned resend was already on the wire (the pop time
		// includes its header transmit), so it counts as a send; this
		// request sat in `tier`'s ring.
		s.shed(r, now, int64(s.rqSends[r])+1, tier)
		return
	}
	s.ingress(r)
}

// dispatch starts service of request r on an idle slot: CPU first, then
// — for cache-missing reads and synchronous writes — a trip through the
// single shared disk, FIFO behind whatever I/O is already promised.
func (s *Server) dispatch(slot, r int32) {
	now := int64(s.evq.Now())
	s.flowTick(now)
	s.busyN++
	class := s.rqClass[r]
	cpu := s.cpuOf[class]
	var diskOps int64
	switch class {
	case clRead:
		if s.hitP < 1 && s.svc.Float64() >= s.hitP {
			diskOps = 1
		}
	case clWrite:
		diskOps = s.writeDisk
	}
	var dw, dt int64
	if diskOps > 0 {
		t := now + cpu
		ds := s.diskFreeAt
		if t > ds {
			ds = t
		}
		dw = ds - t
		dt = diskOps * s.diskAccess
		s.diskFreeAt = ds + dt
		s.tsDiskNs.Add(sim.Time(now), dt)
		s.tsBacklog.Set(sim.Time(now), s.diskFreeAt-now)
	}
	s.rqStart[r] = now
	s.rqDiskWait[r] = dw
	s.rqDiskTime[r] = dt
	s.slotReq[slot] = r
	s.tsSlots.Set(sim.Time(now), int64(s.cfg.Nfsd-len(s.idle)))
	if s.rec != nil {
		s.rec.BeginAt(sim.Time(now), s.slotTrack[slot], classNames[class])
	}
	s.evq.Schedule(sim.Duration(cpu+dw+dt), s.slotFns[slot])
}

// complete finishes the request in service on slot: folds its exact
// latency decomposition into the ledger and histogram, then pulls the
// next queued request or idles the slot.
func (s *Server) complete(slot int32) {
	r := s.slotReq[slot]
	s.slotReq[slot] = -1
	now := int64(s.evq.Now())
	s.flowTick(now)
	s.sysN--
	s.busyN--
	class := s.rqClass[r]
	lat := now + s.wireRem[class] - s.rqIssue[r]
	s.res.Hist.Observe(lat)
	s.res.Completed++
	s.clDone[s.rqClient[r]]++
	led := &s.res.Ledger
	led.Wire += sim.Duration(int64(s.rqSends[r])*s.wireHdr + s.wireRem[class])
	led.RTO += sim.Duration(s.rqRTO[r])
	led.QueueWait += sim.Duration(s.rqStart[r] - s.rqEnq[r])
	led.CPU += sim.Duration(s.cpuOf[class])
	led.DiskWait += sim.Duration(s.rqDiskWait[r])
	led.DiskTime += sim.Duration(s.rqDiskTime[r])
	s.res.Busy += sim.Duration(now - s.rqStart[r])
	s.endAt = now
	s.tsDone.Inc(sim.Time(now))
	s.tsFlight.Add(sim.Time(now), -1)
	s.tsBusy.Add(sim.Time(now), now-s.rqStart[r])
	s.tsLat.Observe(sim.Time(now), lat)
	if s.ex != nil {
		tier := int(s.rqSends[r]) - 2 // deepest backoff tier entered; -1 if none
		if tier >= retryTiers {
			tier = retryTiers - 1
		}
		s.ex.Offer(obs.Exemplar{
			ID: s.rqID[r], Client: s.rqClient[r], Class: classNames[class],
			Sends: int(s.rqSends[r]), Tier: tier,
			IssueNs: s.rqIssue[r], EnqNs: s.rqEnq[r], StartNs: s.rqStart[r],
			EndNs:  s.rqIssue[r] + lat,
			WireNs: int64(s.rqSends[r])*s.wireHdr + s.wireRem[class],
			RTONs:  s.rqRTO[r], QueueNs: s.rqStart[r] - s.rqEnq[r],
			CPUNs: s.cpuOf[class], DiskWaitNs: s.rqDiskWait[r],
			DiskNs: s.rqDiskTime[r],
		})
	}
	if s.rec != nil {
		s.rec.EndAt(sim.Time(now), s.slotTrack[slot], classNames[class],
			float64(lat)/float64(sim.Microsecond))
	}
	s.freeReq(r)
	if s.res.Completed >= uint64(s.cfg.TargetOps) {
		s.done = true
		return
	}
	if s.qLen > 0 {
		h := s.q[s.qHead]
		s.qHead++
		if s.qHead == len(s.q) {
			s.qHead = 0
		}
		s.qLen--
		s.tsQueue.Set(sim.Time(now), int64(s.qLen))
		s.dispatch(slot, h)
	} else {
		s.idle = append(s.idle, slot)
		s.tsSlots.Set(sim.Time(now), int64(s.cfg.Nfsd-len(s.idle)))
	}
}

// ClientBalance reports per-client conservation sums for tests: total
// issued, completed, and retransmitted across the population.
func (s *Server) ClientBalance() (issued, done, retrans uint64) {
	for i := range s.clIssued {
		issued += uint64(s.clIssued[i])
		done += uint64(s.clDone[i])
		retrans += uint64(s.clRetrans[i])
	}
	return
}

// Facts is the server's independent double-entry accounting, collected
// by mechanisms disjoint from the Result's counters: occupancy area
// integrals advanced at each population change, the pool free-list, the
// retry rings, and the per-client counter arrays. The audit engine
// cross-checks the Result against these; every identity is exact in
// integer nanoseconds.
type Facts struct {
	// QueueCap, Nfsd, and PoolCap echo capacities; PoolFree is the
	// free-list depth at the end of the run.
	QueueCap, Nfsd, PoolCap, PoolFree int
	// InSystem counts requests in queue or in service at AuditEnd;
	// BusySlots counts occupied nfsd slots; RingPending counts requests
	// waiting in backoff rings.
	InSystem, BusySlots, RingPending int
	// Resends counts server-ingress attempts beyond each operation's
	// first (Attempts == Arrivals + Resends).
	Resends uint64
	// SysAreaNs is ∫(requests in system)dt and BusyAreaNs ∫(busy
	// slots)dt over [0, AuditEnd] — the L and ρ sides of Little's law
	// and the utilization law.
	SysAreaNs, BusyAreaNs int64
	// SysResidualNs and BusyResidualNs are the residence and busy time
	// accrued by requests still in flight at AuditEnd, which the ledger
	// (completed operations only) cannot see.
	SysResidualNs, BusyResidualNs int64
	// ClIssued, ClDone, and ClRetrans sum the per-client counters.
	ClIssued, ClDone, ClRetrans uint64
	// AuditEndNs is the instant the integrals run to: the later of the
	// last counted completion and the last flow event.
	AuditEndNs int64
}

// Facts finalizes and reports the audit accounting. Call after Run; it
// is idempotent and does not perturb the Result.
func (s *Server) Facts() Facts {
	end := s.endAt
	if s.lastFlow > end {
		end = s.lastFlow
	}
	s.flowTick(end)
	var sysRes, busyRes int64
	for i := 0; i < s.qLen; i++ {
		p := s.qHead + i
		if p >= len(s.q) {
			p -= len(s.q)
		}
		sysRes += end - s.rqEnq[s.q[p]]
	}
	busySlots := 0
	for _, r := range s.slotReq {
		if r >= 0 {
			busySlots++
			sysRes += end - s.rqEnq[r]
			busyRes += end - s.rqStart[r]
		}
	}
	ringPending := 0
	for t := range s.rings {
		ringPending += s.rings[t].n
	}
	issued, done, retrans := s.ClientBalance()
	return Facts{
		QueueCap: s.cfg.QueueCap, Nfsd: s.cfg.Nfsd,
		PoolCap: len(s.rqClient), PoolFree: len(s.freeList),
		InSystem: s.sysN, BusySlots: busySlots, RingPending: ringPending,
		Resends:   s.resends,
		SysAreaNs: s.sysArea, BusyAreaNs: s.busyArea,
		SysResidualNs: sysRes, BusyResidualNs: busyRes,
		ClIssued: issued, ClDone: done, ClRetrans: retrans,
		AuditEndNs: end,
	}
}

// Run builds and runs a server in one call.
func Run(cfg Config) *Result {
	return New(cfg).Run()
}
