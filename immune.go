// Package immune is a Go reproduction of the Immune system (P. Narasimhan,
// K. P. Kihlstrom, L. E. Moser, P. M. Melliar-Smith: "Providing Support
// for Survivable CORBA Applications with the Immune System", ICDCS 1999).
//
// The Immune system makes CORBA applications survivable: they continue to
// operate despite malicious attacks, accidents, or faults. Every object —
// client and server alike — is actively replicated over an object group,
// majority voting is applied to all invocations and responses, and the
// underlying Secure Multicast Protocols (a signed token ring with a
// processor membership protocol and a Byzantine fault detector) provide
// secure reliable totally ordered message delivery even when processors
// are corrupted.
//
// A minimal survivable deployment:
//
//	sys, err := immune.New(immune.Config{Processors: 6})
//	// handle err
//	sys.Start()
//	defer sys.Stop()
//
//	// Three-way replicated server on processors 1..3.
//	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
//		p, _ := sys.Processor(pid)
//		replica, _ := p.HostServer(serverGroup, "Account/main", newAccountServant())
//		replica.WaitActive(5 * time.Second)
//	}
//
//	// Three-way replicated client on processors 4..6; each client
//	// replica runs the same deterministic code.
//	p, _ := sys.Processor(4)
//	client, _ := p.NewClient(clientGroup)
//	client.Bind("Account/main", serverGroup)
//	obj := client.Object("Account/main")
//	reply, err := obj.Invoke("deposit", args) // majority-voted
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package immune

import (
	"fmt"
	"time"

	"immune/internal/core"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/membership"
	"immune/internal/netsim"
	"immune/internal/obs"
	"immune/internal/orb"
	"immune/internal/recovery"
	"immune/internal/replication"
	"immune/internal/sec"
	"immune/internal/transport"
)

// Identifier types (see the paper's system model, §3 and §5.1).
type (
	// ProcessorID identifies one simulated processor.
	ProcessorID = ids.ProcessorID
	// GroupID identifies an object group (one actively replicated
	// object). GroupID 0 is reserved for the base group.
	GroupID = ids.ObjectGroupID
	// ReplicaID identifies one member (replica) of an object group.
	ReplicaID = ids.ReplicaID
)

// Servant is the contract for replicated object implementations: a
// deterministic Invoke plus state snapshot/restore for replica
// reallocation. See orb.Servant for the full documentation.
type Servant = orb.Servant

// Level selects the survivability level, matching the paper's evaluation
// cases (Figure 7).
type Level = sec.Level

// Survivability levels.
const (
	// LevelNone: active replication over reliable totally ordered
	// multicast, no digests or signatures (case 2).
	LevelNone = sec.LevelNone
	// LevelDigests: + message digests in the token (case 3).
	LevelDigests = sec.LevelDigests
	// LevelSignatures: + digitally signed tokens (case 4, the full
	// Immune system).
	LevelSignatures = sec.LevelSignatures
)

// CDR marshaling helpers for servant arguments and results.
type (
	// Encoder marshals CDR values (CORBA's Common Data Representation).
	Encoder = iiop.Encoder
	// Decoder unmarshals CDR values.
	Decoder = iiop.Decoder
)

// NewEncoder returns an empty CDR encoder.
func NewEncoder() *Encoder { return iiop.NewEncoder() }

// NewDecoder returns a CDR decoder over data.
func NewDecoder(data []byte) *Decoder { return iiop.NewDecoder(data) }

// MembershipInstall describes one installed processor membership.
type MembershipInstall = membership.Install

// Observability types (see internal/obs). The system-wide registry
// aggregates counters and latency histograms from every protocol layer;
// MetricsSnapshot is a point-in-time copy suitable for diffing or text
// dumping via its String method.
type (
	// MetricsRegistry is the system-wide metric registry.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every metric.
	MetricsSnapshot = obs.Snapshot
	// TraceStage is one timestamped stage of an invocation's life cycle
	// (interception → multicast → ordering → voting → reply).
	TraceStage = obs.Stage
)

// FaultPlan injects network-level faults (message loss, corruption,
// duplication, delay) for survivability experiments. See netsim.FaultPlan.
type FaultPlan = netsim.FaultPlan

// Transport seam types (see internal/transport): the endpoint contract a
// processor's protocol stack runs over. The built-in simulated LAN is the
// default backend; a real-socket mesh (internal/transport/tcpmesh, used
// by cmd/immune-node) lets N OS processes form a genuine ring.
type (
	// TransportEndpoint is one processor's attachment to the network.
	TransportEndpoint = transport.Endpoint
	// TransportFrame is one received network-level datagram.
	TransportFrame = transport.Frame
)

// The deployment types. They are defined in internal/core, where the
// system is assembled; see there for each type's fields and methods.
type (
	// Config parameterizes an Immune system deployment: processor and
	// ring counts, survivability level, simulated-LAN shape or a real
	// Transport, timeouts, and the admission bounds.
	Config = core.Config
	// System is a running Immune deployment: Start/Stop, Processor
	// lookup, HostGroup, Health, Snapshot, fault injection
	// (CrashProcessor/ReattachProcessor) and live reconfiguration
	// (AddProcessor, DrainProcessor, ResizeGroup, Drain).
	System = core.System
	// Processor is one simulated host: HostServer and NewClient create
	// local replicas; View and Suspects report its protocol state.
	Processor = core.Processor
	// Replica is the application handle on one local replica.
	Replica = core.Replica
	// Client is a replicated CORBA client: Bind object keys to server
	// groups, then invoke through Object references.
	Client = core.Client
	// Object is a client-side object reference (Invoke, InvokeDeadline,
	// InvokeOneWay); obtained from a Client, its invocations are
	// replicated and majority-voted.
	Object = core.Object
)

// New builds an Immune system. Call Start to launch it.
func New(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Health reporting types (see internal/recovery).
type (
	// Health is a point-in-time snapshot of system survivability.
	Health = recovery.Health
	// GroupHealth is the per-object-group slice of a Health snapshot.
	GroupHealth = recovery.GroupHealth
	// RecoveryEvent is one entry in the recovery event history.
	RecoveryEvent = recovery.Event
	// RecoveryEventKind classifies a RecoveryEvent.
	RecoveryEventKind = recovery.EventKind
)

// Recovery event kinds.
const (
	// EventDegraded: a group dropped below its configured degree.
	EventDegraded = recovery.EventDegraded
	// EventCritical: live replicas fell below ⌈(r+1)/2⌉ — majority
	// voting can no longer mask a value fault (§3.1).
	EventCritical = recovery.EventCritical
	// EventPlacementStarted: a replacement replica is being placed.
	EventPlacementStarted = recovery.EventPlacementStarted
	// EventPlacementFailed: a placement attempt failed; it will be
	// retried with backoff on another processor.
	EventPlacementFailed = recovery.EventPlacementFailed
	// EventReplicaRestored: a replacement activated with transferred
	// state.
	EventReplicaRestored = recovery.EventReplicaRestored
	// EventRecovered: the group is back at full configured degree.
	EventRecovered = recovery.EventRecovered
)

// Typed invocation failures, matchable with errors.Is through the public
// Object API.
var (
	// ErrTimeout: the invocation deadline expired with the group at
	// healthy strength — likely transient.
	ErrTimeout = replication.ErrTimeout
	// ErrNotActive: the local replica is not (yet, or no longer) an
	// admitted group member.
	ErrNotActive = replication.ErrNotActive
	// ErrQuorumLost: the local processor was excluded from the
	// membership, or the target group has no members.
	ErrQuorumLost = replication.ErrQuorumLost
	// ErrGroupDegraded: the target group's live membership is below
	// ⌈(r+1)/2⌉ of its high-water degree — a voted reply cannot be
	// formed until recovery restores it (§3.1).
	ErrGroupDegraded = replication.ErrGroupDegraded
	// ErrOverloaded: an admission bound shed the invocation before any
	// copy entered the total order — the client replica's in-flight cap
	// (Config.MaxInFlight) or the processor's bounded submit queue
	// (Config.MaxSubmitQueue). Retrying after backing off is safe and is
	// the intended reaction.
	ErrOverloaded = replication.ErrOverloaded
)

// MaxFaultyProcessors returns the fault budget for an n-processor system
// without building one.
func MaxFaultyProcessors(n int) int { return core.MaxFaulty(n) }

// MinCorrectReplicas returns ⌈(r+1)/2⌉, the correct-replica requirement
// for a group of degree r (§3.1).
func MinCorrectReplicas(r int) int { return core.MinCorrectReplicas(r) }

// RingOf returns the home ring a group id maps to in a system sharded
// over rings token rings (consistent hashing; deterministic across
// processes). Useful for choosing group ids that spread load evenly.
func RingOf(g GroupID, rings int) int { return core.RingOf(g, rings) }

// InvocationError is the CORBA-exception error returned by Invoke.
type InvocationError = orb.InvocationError

// Probabilistic builds a seeded random fault plan (loss, corruption,
// duplication probabilities and a delay bound) for experiments.
func Probabilistic(seed uint64, loss, corrupt, dup float64, maxDelay time.Duration) FaultPlan {
	return netsim.NewProbabilistic(seed, loss, corrupt, dup, maxDelay)
}

// Validate reports configuration problems a survivable deployment should
// not have: too few processors for any fault tolerance, or a replication
// degree the processor count cannot host (one replica per processor).
func Validate(processors int, replicationDegree int) error {
	if processors < 4 {
		return fmt.Errorf("immune: %d processors tolerate no Byzantine fault (need ≥ 4)", processors)
	}
	if replicationDegree > processors {
		return fmt.Errorf("immune: degree %d exceeds %d processors (one replica per processor, §3.1)",
			replicationDegree, processors)
	}
	if replicationDegree < 3 {
		return fmt.Errorf("immune: degree %d cannot outvote a value fault (need ≥ 3)", replicationDegree)
	}
	return nil
}
