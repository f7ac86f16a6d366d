// Package replication implements the Immune system's Replication Manager
// (paper §4–6, Figure 2): active replication of client and server objects
// over object groups, duplicate detection with invocation and response
// identifiers, input and output majority voting, value fault detection,
// and replica state transfer for reallocation after processor exclusion
// (§3.1).
//
// One Manager runs per processor. It receives every secure reliable
// totally ordered multicast message destined for the groups it hosts,
// filters by destination group, and passes copies to the voters V_I
// (invocations) and V_R (responses), which decide delivery to the local
// replicas.
package replication

import (
	"fmt"
	"sync"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/obs"
	"immune/internal/orb"
	"immune/internal/sec"
	"immune/internal/voting"
)

// Multicaster is the Replication Manager's handle on the Secure Multicast
// Protocols (the object group interface of Figure 2). smp.Stack satisfies
// it.
type Multicaster interface {
	// Submit queues a payload for secure reliable totally ordered
	// multicast.
	Submit(payload []byte) error
	// Self identifies the local processor.
	Self() ids.ProcessorID
	// ValueFaultSuspect notifies the local Byzantine fault detector that
	// the named processor hosts a corrupt replica (§6.2).
	ValueFaultSuspect(p ids.ProcessorID)
}

// Config parameterizes a Manager.
type Config struct {
	Stack Multicaster
	// Processors is the initial processor membership size, used by the
	// value fault detector's corroboration threshold.
	Processors int
	// CallTimeout bounds client-role two-way invocations; 0 means 10s.
	CallTimeout time.Duration
	// Retries is the number of idempotent re-sends a two-way invocation
	// may attempt within its deadline. Re-sending is safe: the operation
	// identifier is unchanged, so voters discard the duplicate copies.
	Retries int
	// RetryBackoff is the base backoff between re-sends (jittered,
	// doubled per attempt, capped); 0 means 10ms.
	RetryBackoff time.Duration
	// Jitter randomizes retry backoff. Injecting a seeded source keeps
	// retry schedules reproducible from the system seed (the global
	// math/rand would defeat the netsim substrate's determinism); nil
	// means no jitter (fully deterministic half-backoff).
	Jitter *sec.SeededRand
	// MaxInFlight caps concurrent two-way invocations per local client
	// replica; past it Invoke fails fast with ErrOverloaded instead of
	// piling waiters onto a saturated stack. 0 means 4096;
	// negative unbounded.
	MaxInFlight int
	// MaxBacklog caps the per-replica backlog of voted invocations held
	// for a not-yet-active local replica; oldest entries are shed first.
	// 0 means 1024; negative unbounded.
	MaxBacklog int
	// BacklogTTL expires backlog entries by age — a group whose
	// activation never completes must not retain ordered traffic
	// forever. 0 means 30s; negative disables expiry.
	BacklogTTL time.Duration
	// OnChange, when non-nil, fires after replica activation or
	// departure, directory resync, or a membership install — the wake-up
	// for waiters on group health and reconfiguration progress
	// (System.WaitGroupActive, AddProcessor, DrainProcessor). Called with the manager
	// lock held: it must be fast, must not block, and must not call
	// back into the Manager.
	OnChange func()
	// Metrics are optional observability hooks; the zero value disables
	// them.
	Metrics Metrics
	// Tracer, when non-nil, timestamps each invocation's lifecycle
	// stages (obs.StageIntercept .. obs.StageReplied).
	Tracer *obs.Tracer
	// InvVoting / RespVoting are optional hooks for the V_I and V_R
	// voters (they survive voter resets on exclusion/resync).
	InvVoting  voting.Metrics
	RespVoting voting.Metrics
	// Route, when non-nil, carries application traffic (invocations and
	// responses) toward the total order that owns the destination object
	// group — in a sharded deployment that may be a different ring than
	// this manager's own Stack. Membership, state-transfer, voting, and
	// resync traffic always goes through Stack: those protocols are
	// ring-local by construction. nil means Stack.Submit.
	Route func(dest ids.ObjectGroupID, payload []byte) error
	// Mirror, when non-nil, fires after a successful membership
	// submission (join, leave, evict) so a routing layer can reflect the
	// change onto other rings' directories. The message must be treated
	// as read-only; mirror copies are the callee's to build.
	Mirror func(msg *group.Message)
	// Joining marks a manager created for a processor being added to a
	// running system: it starts unsynced (empty directory, refuses to
	// host) and catches up from a continuing member's directory dump at
	// the install that admits it — the same path a readmitted excluded
	// processor takes.
	Joining bool
}

// Manager is one processor's Replication Manager.
type Manager struct {
	cfg    Config          // as given to NewManager, defaults applied
	self   ids.ProcessorID // cfg.Stack.Self()
	stack  Multicaster     // cfg.Stack, cfg.Metrics, cfg.Tracer under
	met    Metrics         // the short names the invoke path uses
	tracer *obs.Tracer

	mu sync.Mutex
	groupState
	hosted  map[ids.ObjectGroupID]*replicaState
	waiters map[ids.OperationID]*waiter
	vfd     *valueFaultDetector
	// respCache holds decided responses awaiting a local asker. It is
	// emptied by an exclusion but, unlike groupState, survives a directory
	// resync: a client replica kept across a behind install may still ask
	// for a response its peers' copies decided before the install.
	respCache opStore
	needSync  bool             // excluded at some point; directory resync pending
	syncID    uint64           // membership install whose directory dump we await
	syncBuf   []*group.Message // deliveries buffered until the dump arrives
}

// groupState is the Manager's view of the object groups: everything that
// is a function of the totally ordered history alone, and that an
// exclusion discards and a directory resync rebuilds from a continuing
// member's dump. newGroupState is its only construction site.
type groupState struct {
	dir       *group.Directory
	invVoter  *voting.Voter                // V_I, thresholds from dir
	respVoter *voting.Voter                // V_R, thresholds from dir
	joinSeq   map[ids.ObjectGroupID]uint64 // deterministic join markers
	members   map[ids.ReplicaID]*memberInfo
	pending   map[ids.ReplicaID]*stateWait
	degreeHW  map[ids.ObjectGroupID]int // high-water group degree (error classification)
}

// newGroupState returns an empty group view whose voters follow its own
// directory and report to the configured hooks.
func (m *Manager) newGroupState() groupState {
	dir := group.NewDirectory()
	voter := func(met voting.Metrics) *voting.Voter {
		v := voting.NewVoter(dir.Size)
		v.SetMetrics(met)
		return v
	}
	return groupState{
		dir:       dir,
		invVoter:  voter(m.cfg.InvVoting),
		respVoter: voter(m.cfg.RespVoting),
		joinSeq:   make(map[ids.ObjectGroupID]uint64),
		members:   make(map[ids.ReplicaID]*memberInfo),
		pending:   make(map[ids.ReplicaID]*stateWait),
		degreeHW:  make(map[ids.ObjectGroupID]int),
	}
}

// invokeResult is what a two-way waiter receives: the voted reply or a
// typed failure (exclusion resets fail in-flight callers explicitly).
type invokeResult struct {
	payload []byte
	err     error
}

// waiter is one registered two-way call: its result channel plus the
// client replica it counts against, so the in-flight slot is released
// exactly when the waiter is removed — even if the replica has left the
// hosted map by then.
type waiter struct {
	ch chan invokeResult
	st *replicaState
}

// syncBufLimit bounds the delivery buffer of a resyncing manager; past it
// the manager abandons the resync and stays unsynced (it will refuse to
// host replicas, which keeps the rest of the system consistent).
const syncBufLimit = 65536

// memberInfo is the globally consistent view of one replica's role and
// activation status. Activation is a deterministic function of the totally
// ordered history (a replica activates at its join, or when the
// majority-th matching State snapshot for its join marker is delivered),
// so every Replication Manager tracks the same values.
type memberInfo struct {
	server bool
	active bool
}

// replicaState tracks one locally hosted replica.
type replicaState struct {
	id      ids.ReplicaID
	adapter *orb.Adapter
	servant orb.Servant
	active  bool
	// activated is closed exactly once, when the replica first
	// activates; Handle.WaitActive blocks on it instead of polling.
	activated chan struct{}

	// Voted invocations held while the replica awaits activation (its join,
	// or the state transfer behind it: §3.1 replica reallocation).
	backlog []backlogEntry
	// rejoin marks a server replica awaiting a KindRejoin submission
	// after a behind install's directory resync: its state may have
	// silently missed decided operations, so it must be re-admitted
	// behind a fresh state transfer before executing again.
	rejoin bool

	// Retained replies for executed operations (at-most-once execution:
	// an invocation retry is answered from here, never re-executed).
	// Identical across a group's active replicas — entries accrue in
	// total order and ride state transfers — so retained copies still
	// reach the response-vote majority after re-hosting.
	replies opStore

	opSeq    uint64 // client-role operation counter
	inflight int    // two-way invocations awaiting a voted response
}

type backlogEntry struct {
	op      ids.OperationID
	payload []byte
	at      time.Time // delivery time, for TTL expiry
}

// NewManager creates a Replication Manager bound to a protocol stack.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Stack == nil {
		return nil, fmt.Errorf("replication: stack required")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 10 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 10 * time.Millisecond
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 4096
	}
	if cfg.MaxBacklog == 0 {
		cfg.MaxBacklog = 1024
	}
	if cfg.BacklogTTL == 0 {
		cfg.BacklogTTL = 30 * time.Second
	}
	m := &Manager{
		cfg:     cfg,
		stack:   cfg.Stack,
		self:    cfg.Stack.Self(),
		met:     cfg.Metrics,
		tracer:  cfg.Tracer,
		hosted:  make(map[ids.ObjectGroupID]*replicaState),
		waiters: make(map[ids.OperationID]*waiter),
		// Joining: await the directory dump of whichever install first
		// admits us; OnMembershipInstall records its id once it arrives.
		needSync: cfg.Joining,
	}
	m.groupState = m.newGroupState()
	m.vfd = newValueFaultDetector(cfg.Processors, func(r ids.ReplicaID) {
		m.stack.ValueFaultSuspect(r.Processor)
	})
	return m, nil
}

// Config returns the manager's configuration with its defaults applied.
func (m *Manager) Config() Config { return m.cfg }

// Directory exposes the object-group membership view (read-only use).
// The returned snapshot is internally synchronized but is replaced when
// the manager resets after an exclusion; re-fetch rather than retain it.
func (m *Manager) Directory() *group.Directory {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// Synced reports whether the manager holds a consistent directory (false
// between an exclusion and the completion of the rejoin resync).
func (m *Manager) Synced() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.needSync
}

// ActiveCount returns the number of active replicas in a group.
func (m *Manager) ActiveCount(g ids.ObjectGroupID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, r := range m.dir.Members(g) {
		if mi := m.members[r]; mi != nil && mi.active {
			n++
		}
	}
	return n
}

// GroupDegreeHW returns the high-water degree ever observed for a group
// (0 if the group was never seen).
func (m *Manager) GroupDegreeHW(g ids.ObjectGroupID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degreeHW[g]
}

// SetGroupDegreeHW overrides a group's high-water degree (live
// reconfiguration: a deliberate degree change must move the degradation
// and quorum baselines, or a shrink would read as permanent degradation
// and a transient migration join would inflate the baseline). Only the
// error-classification and recovery thresholds change; voting thresholds
// always follow the live directory.
func (m *Manager) SetGroupDegreeHW(g ids.ObjectGroupID, degree int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.notifyChangeLocked() // the recovery bootstrap gate reads it
	if degree <= 0 {
		delete(m.degreeHW, g)
		return
	}
	m.degreeHW[g] = degree
}

// HostedReplicas returns the identities of the replicas this manager
// currently hosts locally (active or still joining).
func (m *Manager) HostedReplicas() []ids.ReplicaID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ids.ReplicaID, 0, len(m.hosted))
	for _, st := range m.hosted {
		out = append(out, st.id)
	}
	return out
}

// Handle is the application-side handle on a locally hosted replica.
type Handle struct {
	m  *Manager
	st *replicaState
}

// Replica returns the replica's identity.
func (h *Handle) Replica() ids.ReplicaID { return h.st.id }

// Active reports whether the replica has been admitted to its group (its
// join delivered and any required state transfer completed).
func (h *Handle) Active() bool {
	h.m.mu.Lock()
	defer h.m.mu.Unlock()
	return h.st.active
}

// WaitActive blocks until the replica activates or the timeout expires.
// It parks on the activation channel rather than polling, so a waiter
// wakes the instant the join (or state transfer) completes.
func (h *Handle) WaitActive(timeout time.Duration) error {
	select {
	case <-h.st.activated:
		return nil
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-h.st.activated:
		return nil
	case <-timer.C:
		return fmt.Errorf("replication: replica %s not active after %v", h.st.id, timeout)
	}
}
