// Package core assembles the complete Immune system (paper Figure 1): a
// set of simulated processors, each running the Secure Multicast Protocols
// (token-ring message delivery, processor membership, Byzantine fault
// detector), a Replication Manager, and an emulated ORB whose transport is
// intercepted by the Immune layer. Applications host actively replicated
// client and server objects on the processors and invoke operations
// through ordinary CORBA stubs; every invocation and response is majority
// voted.
//
// With Config.Rings > 1 the system shards object groups across that
// many independent SMP stacks per processor (multi-ring sharding): each
// group's total order lives on its home ring — chosen by a consistent
// hash of the group id (RingOf) — and a routing layer forwards
// invocations and responses to the destination group's home ring, so a
// client ordered on ring A can invoke a server group homed on ring B.
// Total order is only ever needed within a group (the LLFT observation),
// which makes a ring an ideal shard unit: per-group ordering guarantees
// are untouched while aggregate throughput scales with the ring count.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"immune/internal/detector"
	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/interceptor"
	"immune/internal/membership"
	"immune/internal/netsim"
	"immune/internal/obs"
	"immune/internal/orb"
	"immune/internal/recovery"
	"immune/internal/replication"
	"immune/internal/ring"
	"immune/internal/sec"
	"immune/internal/smp"
	"immune/internal/transport"
	"immune/internal/voting"
)

// Config parameterizes an Immune system deployment (immune.Config is this
// type). Tuning knobs are flat fields here and are mapped onto the layer
// that consumes each at one site (buildProcessor); that layer owns the
// default, so a zero field always means "the layer's default".
type Config struct {
	// Processors is the number of simulated processors (the paper's
	// testbed used six). Identifiers are assigned 1..n; a system of n
	// processors tolerates ⌊(n−1)/3⌋ faulty ones.
	Processors int
	// Rings shards object groups across this many independent token
	// rings per processor (multi-ring sharding): each group's total
	// order lives on its home ring, chosen by a consistent hash of the
	// group id (RingOf), and invocations crossing rings are forwarded
	// transparently. Aggregate throughput scales with the ring count
	// while per-group ordering guarantees are unchanged. Zero or one
	// means a single ring with unprefixed metric names; higher counts
	// prefix each ring's protocol metrics with "rN.".
	Rings int
	// Level is the survivability level (Figure 7 cases 2–4); zero means
	// LevelSignatures (full survivability).
	Level sec.Level
	// ModulusBits is the RSA modulus size; zero means the paper's 300.
	ModulusBits int
	// TokenBatch is the number j of multicast messages per token visit,
	// over which one token signature is amortized; zero means 6 (§8).
	TokenBatch int
	// Seed makes key generation, network randomness and fault injection
	// reproducible.
	Seed uint64
	// NetLatency and NetJitter shape the simulated LAN; zero means
	// immediate handoff.
	NetLatency time.Duration
	NetJitter  time.Duration
	// Plan optionally injects network faults (Table 1 experiments). With
	// multiple rings the same plan is applied to every ring's network
	// (FaultPlan implementations must be safe for concurrent use).
	Plan netsim.FaultPlan
	// CallTimeout bounds replicated two-way invocations; zero means 10s.
	CallTimeout time.Duration
	// InvokeRetries is how many times a timed-out two-way invocation is
	// re-sent within its deadline. Re-sends are safe: voters detect the
	// duplicate invocation identifier and discard it. Zero means none.
	InvokeRetries int
	// SuspectTimeout is the Byzantine fault detector's liveness timeout;
	// zero means 50ms.
	SuspectTimeout time.Duration
	// StrikeThreshold is how many weakly attributable offenses (invalid
	// tokens, digest-mismatched messages) a processor may accumulate
	// before the Byzantine fault detector suspects it; zero means 3.
	// Deployments on lossy links raise it so sustained wire corruption —
	// a link property — is not mistaken for processor misbehaviour.
	StrikeThreshold int
	// CryptoWorkFactor repeats every signature generation/verification
	// to emulate the paper's 167 MHz testbed, where a 300-bit RSA
	// signature cost milliseconds; ~100 restores the 1999 ratio of
	// crypto to protocol cost. Zero means 1 (modern hardware).
	CryptoWorkFactor int
	// MaxSubmitQueue caps each processor's multicast submit queue; past
	// it submissions fail fast with ErrOverloaded instead of growing
	// memory without bound. Zero means a default of 4096; negative
	// unbounded.
	MaxSubmitQueue int
	// MaxInFlight caps concurrent two-way invocations per client
	// replica; past it Invoke fails fast with ErrOverloaded. Zero means
	// a default of 4096; negative unbounded.
	MaxInFlight int
	// MaxBacklog caps the voted invocations buffered for a replica that
	// is still joining; the oldest entries are shed first. Zero means a
	// default of 1024; negative unbounded.
	MaxBacklog int
	// Transport optionally supplies each hosted processor's network
	// endpoints, replacing the built-in simulated LAN with a real-socket
	// backend (internal/transport/tcpmesh). It is called once per
	// (processor, ring) pair — a sharded deployment runs one mesh per
	// ring (ring is always 0 when Rings <= 1). When set, the netsim knobs
	// (NetLatency, NetJitter, Plan, seeded network faults) do not apply,
	// CrashProcessor / ReattachProcessor are no-ops, and the net.*
	// counters stay zero (see the transport.* family instead); Stop
	// closes the supplied endpoints exactly once.
	Transport func(p ids.ProcessorID, ring int) (transport.Endpoint, error)
	// LocalProcessors restricts which of the 1..Processors identifiers
	// this OS process hosts — a multi-process deployment runs one (or a
	// few) per process while the full membership stays 1..Processors.
	// Empty means all. Requires Transport: simulated endpoints cannot
	// span processes.
	LocalProcessors []ids.ProcessorID
	// OnMembershipChange, if set, observes processor membership installs
	// (invoked once per processor per ring per install).
	OnMembershipChange func(self ids.ProcessorID, inst membership.Install)
	// DisableMetrics turns the observability layer off: no registry or
	// tracer is created, and every protocol-layer hook is a nil no-op
	// (zero allocations on the hot paths). By default metrics are on.
	DisableMetrics bool
}

// MaxFaulty returns the number of faulty processors a system of n
// processors tolerates: k ≤ ⌊(n−1)/3⌋ (paper §3.1, §7.1).
func MaxFaulty(n int) int {
	if n <= 0 {
		return 0
	}
	return (n - 1) / 3
}

// MinCorrectReplicas returns ⌈(r+1)/2⌉, the minimum correct replicas
// required in a group of r (paper §3.1): the voting majority.
func MinCorrectReplicas(r int) int { return group.Majority(r) }

// RingOf maps an object group to its home ring among rings shards using
// Jump Consistent Hash (Lamping & Veach) over a splitmix64-mixed group
// id. Group ids are small consecutive integers in practice; the mix
// spreads them uniformly, and jump hash then moves a minimal fraction of
// groups when the ring count changes. Deterministic across processes and
// runs — every processor computes the same home ring.
func RingOf(g ids.ObjectGroupID, rings int) int {
	if rings <= 1 {
		return 0
	}
	key := uint64(g)
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	var b, j int64 = -1, 0
	for j < int64(rings) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// metricPrefix labels one ring's metric families. A single-ring system
// uses unprefixed names.
func metricPrefix(r, rings int) string {
	if rings <= 1 {
		return ""
	}
	return fmt.Sprintf("r%d.", r)
}

// ringSeedSalt decorrelates per-ring randomness (network scheduling,
// retry jitter) while keeping ring 0 of a single-ring system on exactly
// the legacy seed schedule.
func ringSeedSalt(r int) uint64 {
	if r == 0 {
		return 0
	}
	return uint64(r) * 0x9e3779b97f4a7c15
}

// System is one Immune deployment: processors, networks, protocol stacks.
type System struct {
	cfg     Config
	rings   int
	nets    []*netsim.Network // one per ring; empty when Config.Transport supplies endpoints
	rec     *recovery.Manager
	reg     *obs.Registry // nil when DisableMetrics
	tracer  *obs.Tracer   // nil when DisableMetrics
	actCh   chan struct{} // closed and replaced by notifyActivity, waking every await
	actMu   sync.Mutex    // guards actCh
	keyRing *sec.KeyRing
	keys    map[ids.ProcessorID]*sec.KeyPair

	// Cross-ring observability (no-ops when metrics are disabled).
	mirrorsSent   *obs.Counter
	mirrorDropped *obs.Counter
	crossRouted   *obs.Counter

	// Reconfiguration observability (no-ops when metrics are disabled).
	joinsDone     *obs.Counter
	drainsDone    *obs.Counter
	resizesDone   *obs.Counter
	joinLatency   *obs.Histogram
	drainLatency  *obs.Histogram
	resizeLatency *obs.Histogram

	stopOnce sync.Once

	// topoMu guards the processor topology, which live reconfiguration
	// (AddProcessor / DrainProcessor) mutates on a running system. Plain
	// reads far outnumber writes, so readers take the R side.
	topoMu   sync.RWMutex
	procs    map[ids.ProcessorID]*Processor
	order    []ids.ProcessorID        // processors hosted in this OS process
	members  []ids.ProcessorID        // full ring membership
	draining map[ids.ProcessorID]bool // drain requested or completed: no new placements
	drained  map[ids.ProcessorID]bool // drain completed: stacks stopped, endpoints retained

	// reconfigMu serializes reconfiguration operations (add, drain,
	// resize). Serialization is load-bearing for safety: each drain's
	// quorum fence evaluates against a topology no concurrent drain is
	// mutating, so two racing drains cannot both pass a fence only one
	// of them satisfies.
	reconfigMu sync.Mutex

	mu      sync.Mutex
	started bool
	specs   map[ids.ObjectGroupID]*groupSpec
}

// groupSpec records how to re-create a replica of a group hosted through
// HostGroup: from a fresh servant, its state arriving by majority-voted
// transfer (the degree is recorded by its recovery registration).
type groupSpec struct {
	key     string
	factory func() orb.Servant
}

// Processor is one simulated host: its per-ring protocol stacks,
// Replication Managers, and the factory for local replicas and ORBs.
// Index r of each slice belongs to ring r.
type Processor struct {
	id     ids.ProcessorID
	sys    *System
	eps    []transport.Endpoint
	stacks []*smp.Stack
	mgrs   []*replication.Manager
}

// mgrFor returns the Replication Manager on this processor for the given
// group's home ring.
func (p *Processor) mgrFor(g ids.ObjectGroupID) *replication.Manager {
	return p.mgrs[RingOf(g, p.sys.rings)]
}

// NewSystem builds (but does not start) an Immune system. On error every
// endpoint and network created so far is closed — a failed construction
// leaks nothing, and the caller never races Stop against it (no System is
// returned to call Stop on).
func NewSystem(cfg Config) (*System, error) {
	if cfg.Processors <= 0 {
		return nil, fmt.Errorf("core: at least one processor required")
	}
	if cfg.Rings < 0 {
		return nil, fmt.Errorf("core: negative ring count %d", cfg.Rings)
	}
	rings := cfg.Rings
	if rings == 0 {
		rings = 1
	}
	if cfg.Level == 0 {
		cfg.Level = sec.LevelSignatures
	}
	if cfg.ModulusBits == 0 {
		cfg.ModulusBits = sec.DefaultModulusBits
	}

	// One registry and tracer per system: counters aggregate across
	// processors, and the tracer's anchoring rule keeps per-invocation
	// stage marks attributed to the invoking client's processor.
	var reg *obs.Registry
	if !cfg.DisableMetrics {
		reg = obs.NewRegistry()
	}
	tracer := obs.NewTracer(reg)

	s := &System{
		cfg:      cfg,
		rings:    rings,
		procs:    make(map[ids.ProcessorID]*Processor, cfg.Processors),
		specs:    make(map[ids.ObjectGroupID]*groupSpec),
		draining: make(map[ids.ProcessorID]bool),
		drained:  make(map[ids.ProcessorID]bool),
		reg:      reg,
		tracer:   tracer,
		actCh:    make(chan struct{}),
	}
	if rings > 1 {
		s.mirrorsSent = reg.Counter("core.mirrors_sent")
		s.mirrorDropped = reg.Counter("core.mirror_dropped")
		s.crossRouted = reg.Counter("core.cross_ring_routed")
	}
	s.joinsDone = reg.Counter("reconfig.joins")
	s.drainsDone = reg.Counter("reconfig.drains")
	s.resizesDone = reg.Counter("reconfig.resizes")
	s.joinLatency = reg.Histogram("reconfig.join_latency")
	s.drainLatency = reg.Histogram("reconfig.drain_latency")
	s.resizeLatency = reg.Histogram("reconfig.resize_latency")

	// Everything constructed before a failure must be torn down on that
	// failure: transport endpoints own sockets and goroutines, simulated
	// networks own timers.
	ok := false
	var createdEps []transport.Endpoint
	defer func() {
		if ok {
			return
		}
		for _, ep := range createdEps {
			ep.Close()
		}
		for _, n := range s.nets {
			n.Close()
		}
	}()

	if cfg.Transport == nil {
		for r := 0; r < rings; r++ {
			s.nets = append(s.nets, netsim.New(netsim.Config{
				Latency: cfg.NetLatency,
				Jitter:  cfg.NetJitter,
				Plan:    cfg.Plan,
				Seed:    cfg.Seed ^ ringSeedSalt(r),
				Metrics: netsim.MetricsFrom(reg, metricPrefix(r, rings)),
			}))
		}
	}

	members := make([]ids.ProcessorID, cfg.Processors)
	for i := range members {
		members[i] = ids.ProcessorID(i + 1)
	}
	s.members = members

	local := slices.Clone(members) // order and members change independently
	if len(cfg.LocalProcessors) > 0 {
		if cfg.Transport == nil {
			return nil, fmt.Errorf("core: LocalProcessors requires a Transport (simulated endpoints cannot span processes)")
		}
		seen := make(map[ids.ProcessorID]bool, len(cfg.LocalProcessors))
		for _, p := range cfg.LocalProcessors {
			if p < 1 || int(p) > cfg.Processors {
				return nil, fmt.Errorf("core: local processor %s outside membership 1..%d", p, cfg.Processors)
			}
			if seen[p] {
				return nil, fmt.Errorf("core: duplicate local processor %s", p)
			}
			seen[p] = true
		}
		local = append([]ids.ProcessorID(nil), cfg.LocalProcessors...)
		sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
	}
	s.order = local

	// Key generation covers the FULL membership, not just the local
	// processors: every process of a multi-process deployment derives
	// the same keyring from the shared seed, so each knows every peer's
	// public key while using only its own private one. One keypair per
	// processor serves all of its rings (KeyPair is immutable after
	// generation, so per-ring suites may share it).
	s.keyRing = sec.NewKeyRing()
	s.keys = make(map[ids.ProcessorID]*sec.KeyPair, cfg.Processors)
	if cfg.Level >= sec.LevelSignatures {
		for _, p := range members {
			if err := s.deriveKey(p); err != nil {
				return nil, err
			}
		}
	}

	// The recovery manager backs Health and owns replica placement. It
	// exists before any processor, whose hooks kick it.
	rec, err := recovery.New(recovery.Config{
		Cluster: clusterAdapter{s: s},
		Jitter:  sec.NewSeededRand(cfg.Seed ^ 0x94d049bb133111eb),
		Metrics: recovery.MetricsFrom(reg),
	})
	if err != nil {
		return nil, fmt.Errorf("core: recovery: %w", err)
	}
	s.rec = rec

	for _, p := range local {
		proc, err := s.buildProcessor(p, false, nil)
		if err != nil {
			return nil, err
		}
		if cfg.Transport != nil {
			createdEps = append(createdEps, proc.eps...)
		}
		s.procs[p] = proc
	}
	ok = true
	return s, nil
}

// deriveKey generates and registers processor p's keypair from the
// shared seed. Deterministic: every process (and every later
// AddProcessor of the same identifier) derives the same pair, so
// multi-process deployments agree on the keyring without exchanging key
// material.
func (s *System) deriveKey(p ids.ProcessorID) error {
	if _, ok := s.keys[p]; ok {
		return nil
	}
	kp, err := sec.GenerateKeyPair(s.cfg.ModulusBits, sec.NewSeededReader(s.cfg.Seed^(uint64(p)*0x9e3779b9+1)))
	if err != nil {
		return fmt.Errorf("core: keygen for %s: %w", p, err)
	}
	s.keys[p] = kp
	s.keyRing.Register(p, kp.Public())
	return nil
}

// buildProcessor constructs one processor's per-ring endpoints, protocol
// stacks, and Replication Managers. joining builds every stack outside
// any membership — for a processor added to a running system, which the
// live members admit through the membership protocol (its managers start
// unsynced and catch up from a directory dump). reuse supplies existing
// endpoints (a drained processor re-added in place keeps its original
// network attachments, which cannot be re-created on the simulated LAN);
// nil attaches fresh ones. On error any transport endpoint this call
// created is closed; simulated-LAN attachments are owned by the networks.
func (s *System) buildProcessor(p ids.ProcessorID, joining bool, reuse []transport.Endpoint) (*Processor, error) {
	cfg := s.cfg
	rings := s.rings
	proc := &Processor{
		id:     p,
		sys:    s,
		eps:    make([]transport.Endpoint, rings),
		stacks: make([]*smp.Stack, rings),
		mgrs:   make([]*replication.Manager, rings),
	}
	var createdEps []transport.Endpoint
	fail := func(err error) (*Processor, error) {
		for _, ep := range createdEps {
			ep.Close()
		}
		return nil, err
	}
	for r := 0; r < rings; r++ {
		var ep transport.Endpoint
		var err error
		switch {
		case reuse != nil:
			ep = reuse[r]
		case cfg.Transport != nil:
			ep, err = cfg.Transport(p, r)
			if err == nil {
				createdEps = append(createdEps, ep)
			}
		default:
			ep, err = s.nets[r].Attach(p)
		}
		if err != nil {
			return fail(fmt.Errorf("core: attach %s ring %d: %w", p, r, err))
		}
		suite, err := sec.NewSuite(cfg.Level, p, s.keys[p], s.keyRing)
		if err != nil {
			return fail(fmt.Errorf("core: suite for %s: %w", p, err))
		}
		suite.WorkFactor = cfg.CryptoWorkFactor

		r := r // captured by Deliver/OnMembershipChange below
		stack, err := smp.New(smp.Config{
			Self:     p,
			Members:  s.members,
			Joining:  joining,
			Suite:    suite,
			Endpoint: ep,
			Ring:     ring.Knobs{MaxPerVisit: cfg.TokenBatch, MaxQueue: cfg.MaxSubmitQueue},
			Detector: detector.Knobs{
				SuspectTimeout:  cfg.SuspectTimeout,
				StrikeThreshold: cfg.StrikeThreshold,
			},
			Metrics: smp.MetricsFrom(s.reg, metricPrefix(r, rings)),
			Deliver: func(d smp.Delivery) {
				proc.mgrs[r].HandleDelivery(d.Payload)
			},
			OnMembershipChange: func(inst membership.Install) {
				proc.mgrs[r].OnMembershipInstall(uint64(inst.ID), inst.Members, inst.Behind)
				s.notifyActivity() // the stack's view changed (admission, excision)
				if cfg.OnMembershipChange != nil {
					cfg.OnMembershipChange(p, inst)
				}
			},
		})
		if err != nil {
			return fail(fmt.Errorf("core: stack for %s ring %d: %w", p, r, err))
		}
		proc.eps[r] = ep
		proc.stacks[r] = stack

		mgrCfg := replication.Config{
			Stack:       stack,
			Processors:  cfg.Processors,
			CallTimeout: cfg.CallTimeout,
			Retries:     cfg.InvokeRetries,
			Jitter:      sec.NewSeededRand(cfg.Seed ^ (uint64(p)*0xbf58476d1ce4e5b9 + 3) ^ ringSeedSalt(r)),
			MaxInFlight: cfg.MaxInFlight,
			MaxBacklog:  cfg.MaxBacklog,
			OnChange:    s.notifyActivity,
			Metrics:     replication.MetricsFrom(s.reg),
			Tracer:      s.tracer,
			InvVoting:   voting.MetricsFrom(s.reg, "voting.inv"),
			RespVoting:  voting.MetricsFrom(s.reg, "voting.resp"),
			Joining:     joining,
		}
		if rings > 1 {
			mgrCfg.Route = func(dest ids.ObjectGroupID, payload []byte) error {
				target := RingOf(dest, rings)
				if target != r {
					s.crossRouted.Inc()
				}
				return proc.stacks[target].Submit(payload)
			}
			mgrCfg.Mirror = func(msg *group.Message) {
				s.mirrorMembership(proc, r, msg)
			}
		}
		mgr, err := replication.NewManager(mgrCfg)
		if err != nil {
			return fail(fmt.Errorf("core: manager for %s ring %d: %w", p, r, err))
		}
		proc.mgrs[r] = mgr
	}
	return proc, nil
}

// Rings returns the number of token rings groups are sharded over.
func (s *System) Rings() int { return s.rings }

// RingOf returns the home ring of an object group in this system.
func (s *System) RingOf(g ids.ObjectGroupID) int { return RingOf(g, s.rings) }

// mirrorMembership reflects a join/leave submitted on homeRing onto every
// other ring's directory, from the same processor. The mirror of a join
// is client-only (payload flag 0) — foreign rings need the entry for
// voting thresholds and sender admission, never for state transfer. Ring
// origination is FIFO per processor, so a mirror submitted here is
// ordered before any invocation or response this processor later routes
// to the same ring on the entry's behalf. Overload is retried briefly
// and then dropped with a counter: a lost mirror can stall cross-ring
// calls against that entry, which the client-side retry path then heals.
func (s *System) mirrorMembership(proc *Processor, homeRing int, msg *group.Message) {
	cp := *msg
	if cp.Kind == group.KindJoin {
		cp.Payload = []byte{0}
	}
	raw := cp.Marshal()
	for r, stack := range proc.stacks {
		if r == homeRing {
			continue
		}
		var err error
		for attempt, wait := 0, time.Millisecond; attempt < 4; attempt, wait = attempt+1, wait*2 {
			if err = stack.Submit(raw); err == nil || !errors.Is(err, ring.ErrOverloaded) {
				break
			}
			time.Sleep(wait)
		}
		if err != nil {
			s.mirrorDropped.Inc()
			continue
		}
		s.mirrorsSent.Inc()
	}
}

// reference returns the processor holding the authoritative object-group
// directory for one ring: a synced member with the newest installed view
// (largest install, then largest membership — a detached processor's
// singleton view loses — then lowest identifier). Total order makes every
// synced directory at the same install identical, so any such member
// serves. Draining processors are skipped: they remain correct members
// until excised, but their stacks may stop at any moment.
func (s *System) reference(ring int) *Processor {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	var best *Processor
	var bestInst membership.Install
	for _, id := range s.order {
		if s.draining[id] {
			continue
		}
		p := s.procs[id]
		if !p.mgrs[ring].Synced() {
			continue
		}
		inst := p.stacks[ring].View()
		if best == nil || inst.ID > bestInst.ID ||
			(inst.ID == bestInst.ID && len(inst.Members) > len(bestInst.Members)) {
			best, bestInst = p, inst
		}
	}
	return best
}

// clusterAdapter exposes the System to the recovery manager. Group-scoped
// queries consult the group's home ring; mirrored (client-only) directory
// entries on foreign rings are excluded so a replica is never counted
// twice.
type clusterAdapter struct{ s *System }

var _ recovery.Cluster = clusterAdapter{}

// View is the set of processors present in every ring's installed
// membership: a processor excluded from any ring is not a safe placement
// target for groups homed there, and the detectors converge on real
// crashes ring by ring.
func (c clusterAdapter) View() []ids.ProcessorID {
	counts := make(map[ids.ProcessorID]int)
	for r := 0; r < c.s.rings; r++ {
		ref := c.s.reference(r)
		if ref == nil {
			return nil
		}
		for _, p := range ref.stacks[r].View().Members {
			counts[p]++
		}
	}
	var view []ids.ProcessorID
	for p, n := range counts {
		if n == c.s.rings {
			view = append(view, p)
		}
	}
	sort.Slice(view, func(i, j int) bool { return view[i] < view[j] })
	return view
}

func (c clusterAdapter) Groups() []ids.ObjectGroupID {
	var groups []ids.ObjectGroupID
	for r := 0; r < c.s.rings; r++ {
		ref := c.s.reference(r)
		if ref == nil {
			continue
		}
		for _, g := range ref.mgrs[r].Directory().Groups() {
			if RingOf(g, c.s.rings) == r {
				groups = append(groups, g)
			}
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	return groups
}

func (c clusterAdapter) Group(g ids.ObjectGroupID) ([]ids.ProcessorID, int) {
	r := c.s.RingOf(g)
	ref := c.s.reference(r)
	if ref == nil {
		return nil, 0
	}
	hw := ref.mgrs[r].GroupDegreeHW(g) // before the members: see recovery.Cluster
	members := ref.mgrs[r].Directory().Members(g)
	hosts := make([]ids.ProcessorID, 0, len(members))
	for _, m := range members {
		hosts = append(hosts, m.Processor)
	}
	return hosts, hw
}

func (c clusterAdapter) Load(p ids.ProcessorID) int {
	load := 0
	for r := 0; r < c.s.rings; r++ {
		ref := c.s.reference(r)
		if ref == nil {
			continue
		}
		dir := ref.mgrs[r].Directory()
		for _, g := range dir.Groups() {
			if RingOf(g, c.s.rings) != r {
				continue
			}
			if dir.Contains(ids.ReplicaID{Group: g, Processor: p}) {
				load++
			}
		}
	}
	return load
}

func (c clusterAdapter) Ready(p ids.ProcessorID) bool {
	c.s.topoMu.RLock()
	proc, ok := c.s.procs[p]
	if ok && c.s.draining[p] {
		ok = false // draining: no new placements land here
	}
	c.s.topoMu.RUnlock()
	if !ok {
		return false
	}
	for _, mgr := range proc.mgrs {
		if !mgr.Synced() {
			return false
		}
	}
	return true
}

func (c clusterAdapter) Place(p ids.ProcessorID, g ids.ObjectGroupID) (recovery.Placement, error) {
	proc, err := c.s.Processor(p)
	if err != nil {
		return nil, err
	}
	c.s.mu.Lock()
	spec := c.s.specs[g]
	c.s.mu.Unlock()
	if spec == nil {
		return nil, fmt.Errorf("core: no spec for group %s", g)
	}
	return proc.mgrFor(g).HostReplica(g, spec.key, spec.factory())
}

func (c clusterAdapter) Evict(g ids.ObjectGroupID, p ids.ProcessorID) error {
	r := c.s.RingOf(g)
	ref := c.s.reference(r)
	if ref == nil {
		return fmt.Errorf("core: no synced processor to evict through")
	}
	return ref.mgrs[r].EvictReplica(ids.ReplicaID{Group: g, Processor: p})
}

// Start launches every processor's protocol stacks.
func (s *System) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for _, p := range s.localProcs() {
		for _, stack := range p.stacks {
			stack.Start()
		}
	}
	s.rec.Start()
}

// localProcs snapshots the locally hosted processors under the topology
// lock, so callers may iterate (and block on stack operations) without
// holding it.
func (s *System) localProcs() []*Processor {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	procs := make([]*Processor, 0, len(s.order))
	for _, id := range s.order {
		procs = append(procs, s.procs[id])
	}
	return procs
}

// Stop shuts the system down. It is idempotent and safe to call
// concurrently: teardown runs exactly once, so transport-supplied
// endpoints are closed exactly once no matter how many callers race.
func (s *System) Stop() {
	s.stopOnce.Do(s.teardown)
}

func (s *System) teardown() {
	s.rec.Stop() // no placements during teardown
	procs := s.localProcs()
	for _, p := range procs {
		for _, stack := range p.stacks {
			stack.Stop()
		}
	}
	for _, n := range s.nets {
		n.Close()
	}
	if s.cfg.Transport != nil {
		for _, p := range procs {
			for _, ep := range p.eps {
				ep.Close()
			}
		}
	}
}

// Processor returns the processor with the given identifier.
func (s *System) Processor(id ids.ProcessorID) (*Processor, error) {
	s.topoMu.RLock()
	p, ok := s.procs[id]
	s.topoMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no processor %s", id)
	}
	return p, nil
}

// Processors returns all processor identifiers in order.
func (s *System) Processors() []ids.ProcessorID {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return append([]ids.ProcessorID(nil), s.order...)
}

// MaxFaulty returns the fault budget of this deployment, computed over
// the full ring membership (which may span OS processes).
func (s *System) MaxFaulty() int {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return MaxFaulty(len(s.members))
}

// CrashProcessor simulates a processor crash: the processor drops off
// every ring's LAN (Table 1: processor crash). The survivors' fault
// detectors time it out and each ring's membership protocol excludes it.
// A no-op on a real-socket transport — kill the OS process instead.
func (s *System) CrashProcessor(id ids.ProcessorID) {
	for _, n := range s.nets {
		n.Detach(id)
	}
}

// ReattachProcessor reverses CrashProcessor at the network level (the
// membership protocols decide whether the processor may rejoin).
func (s *System) ReattachProcessor(id ids.ProcessorID) {
	for _, n := range s.nets {
		n.Reattach(id)
	}
}

// Metrics returns the system-wide metric registry, or nil when the
// observability layer is disabled (Config.DisableMetrics).
func (s *System) Metrics() *obs.Registry { return s.reg }

// Snapshot returns a point-in-time copy of every registered metric:
// per-layer counters (ring, voting, replication, recovery, membership,
// network) and per-stage invocation latency histograms. Safe from any
// goroutine while the system runs. Empty when metrics are disabled.
func (s *System) Snapshot() obs.Snapshot { return s.reg.Snapshot() }

// HostGroup hosts a server object group at the given replication degree:
// one replica per processor (§3.1), created by factory on each host. With
// no explicit hosts the first degree non-draining processors are used.
// The group is registered for recovery, so replicas lost to exclusions are
// re-hosted automatically (state reaches the replacement by majority-voted
// transfer, not the factory); Processor.HostServer hosts unrecovered
// replicas. Replicas are hosted on the group's home ring; in a sharded
// system their joins are mirrored to the other rings as client-only entries.
func (s *System) HostGroup(g ids.ObjectGroupID, objectKey string, degree int,
	factory func() orb.Servant, on ...ids.ProcessorID) ([]*Replica, error) {
	if factory == nil {
		return nil, fmt.Errorf("core: servant factory required")
	}
	s.topoMu.RLock()
	if degree <= 0 || degree > len(s.order) {
		s.topoMu.RUnlock()
		return nil, fmt.Errorf("core: degree %d with %d processors", degree, len(s.order))
	}
	hosts := on
	if len(hosts) == 0 {
		// First degree non-draining processors: a draining host would be
		// evicted again moments later by its own migration.
		for _, p := range s.order {
			if len(hosts) == degree {
				break
			}
			if !s.draining[p] {
				hosts = append(hosts, p)
			}
		}
	}
	procs := make(map[ids.ProcessorID]*Processor, len(hosts))
	for _, p := range hosts {
		procs[p] = s.procs[p]
	}
	s.topoMu.RUnlock()
	if len(hosts) != degree {
		return nil, fmt.Errorf("core: %d hosts for degree %d", len(hosts), degree)
	}
	for _, p := range hosts {
		if procs[p] == nil {
			return nil, fmt.Errorf("core: no processor %s", p)
		}
	}
	s.mu.Lock()
	if _, dup := s.specs[g]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: group %s already hosted", g)
	}
	s.specs[g] = &groupSpec{key: objectKey, factory: factory}
	s.mu.Unlock()
	// Roll back on any failure below: a partially hosted group would
	// otherwise block a retry ("already hosted") while the recovery
	// bootstrap guard (degree high-water < degree) keeps it permanently
	// below its configured degree with no events.
	rollback := func(placed []ids.ProcessorID) {
		s.rec.Deregister(g)
		s.mu.Lock()
		delete(s.specs, g)
		s.mu.Unlock()
		for _, p := range placed {
			_ = procs[p].mgrFor(g).EvictReplica(ids.ReplicaID{Group: g, Processor: p})
		}
	}
	if err := s.rec.Register(g, degree); err != nil {
		rollback(nil)
		return nil, err
	}
	replicas := make([]*Replica, 0, degree)
	placed := make([]ids.ProcessorID, 0, degree)
	for _, p := range hosts {
		h, err := procs[p].mgrFor(g).HostReplica(g, objectKey, factory())
		if err != nil {
			rollback(placed)
			return nil, err
		}
		replicas = append(replicas, &Replica{h: h})
		placed = append(placed, p)
	}
	return replicas, nil
}

// Health snapshots the membership, per-group degree accounting, and the
// recovery event history.
func (s *System) Health() recovery.Health { return s.rec.Health() }

// notifyActivity wakes every await and kicks the recovery manager. It is
// every Replication Manager's OnChange hook (replica join, activation or
// departure, degree baseline, directory resync, membership install; called
// with a manager lock held, so it never blocks) and runs after each
// stack's membership install and each topology change.
func (s *System) notifyActivity() {
	s.actMu.Lock()
	close(s.actCh)
	s.actCh = make(chan struct{})
	s.actMu.Unlock()
	s.rec.Kick()
}

// await blocks until cond holds, re-checking it at every notifyActivity,
// and reports false if the deadline passes first. cond must read only
// state whose changes call notifyActivity.
func (s *System) await(deadline time.Time, cond func() bool) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for {
		s.actMu.Lock()
		ch := s.actCh // before cond: a change after the check still wakes us
		s.actMu.Unlock()
		if cond() {
			return true
		}
		select {
		case <-ch:
		case <-timer.C:
			return cond()
		}
	}
}

// WaitGroupActive blocks until the group has at least want active
// replicas (in its home ring's authoritative directory) or the timeout
// expires.
func (s *System) WaitGroupActive(g ids.ObjectGroupID, want int, timeout time.Duration) error {
	homeRing := s.RingOf(g)
	if !s.await(time.Now().Add(timeout), func() bool {
		ref := s.reference(homeRing)
		return ref != nil && ref.mgrs[homeRing].ActiveCount(g) >= want
	}) {
		return fmt.Errorf("core: group %s below %d active replicas after %v", g, want, timeout)
	}
	return nil
}

// ID returns the processor's identifier.
func (p *Processor) ID() ids.ProcessorID { return p.id }

// View returns the processor's installed membership on ring 0. In a
// sharded system each ring runs its own membership protocol; ring 0 is
// the conventional reporting ring.
func (p *Processor) View() membership.Install { return p.stacks[0].View() }

// Suspects returns the processor's local fault-detector output (ring 0).
func (p *Processor) Suspects() []ids.ProcessorID { return p.stacks[0].Suspects() }

// QueuedSubmissions returns the total depth of the processor's ring
// submit queues across rings (pending originations). Each ring's queue is
// bounded by Config.MaxSubmitQueue.
func (p *Processor) QueuedSubmissions() int {
	total := 0
	for _, stack := range p.stacks {
		total += stack.QueuedSubmissions()
	}
	return total
}

// HostServer starts a local server replica of an object group on this
// processor, on the group's home ring. servant must be deterministic
// (paper §3); objectKey is the CORBA object key clients use. The returned
// replica reports activation and participates in voting thereafter.
func (p *Processor) HostServer(g ids.ObjectGroupID, objectKey string, servant orb.Servant) (*Replica, error) {
	h, err := p.mgrFor(g).HostReplica(g, objectKey, servant)
	if err != nil {
		return nil, err
	}
	return &Replica{h: h}, nil
}

// NewClient hosts a local client replica of clientGroup (on the client
// group's home ring) and returns a Client whose object references
// transparently issue replicated, majority-voted invocations through the
// Immune interceptor — including to server groups homed on other rings,
// via the cross-ring routing layer.
func (p *Processor) NewClient(clientGroup ids.ObjectGroupID) (*Client, error) {
	o, ic, h, err := p.clientORB(clientGroup)
	if err != nil {
		return nil, err
	}
	return &Client{orb: o, ic: ic, replica: &Replica{h: h}}, nil
}

// clientORB is NewClient's construction step, kept apart so white-box
// tests can drive the ORB, interceptor and replica handle directly.
func (p *Processor) clientORB(clientGroup ids.ObjectGroupID) (*orb.ORB, *interceptor.Interceptor, *replication.Handle, error) {
	mgr := p.mgrFor(clientGroup)
	h, err := mgr.HostReplica(clientGroup, "", nil)
	if err != nil {
		return nil, nil, nil, err
	}
	ic := interceptor.New(h)
	o := orb.New(ic)
	o.CallTimeout = mgr.Config().CallTimeout + time.Second
	return o, ic, h, nil
}

// GroupMembers reports the object-group membership as seen by this
// processor's Replication Manager on the group's home ring.
func (p *Processor) GroupMembers(g ids.ObjectGroupID) []ids.ReplicaID {
	ms := p.mgrFor(g).Directory().Members(g)
	sort.Slice(ms, func(i, j int) bool { return ms[i].Processor < ms[j].Processor })
	return ms
}
