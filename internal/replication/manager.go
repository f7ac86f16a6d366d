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
	"encoding/binary"
	"errors"
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
	// piling waiters onto a saturated stack. 0 means DefaultMaxInFlight;
	// negative unbounded.
	MaxInFlight int
	// MaxBacklog caps the per-replica backlog of voted invocations held
	// for a not-yet-active local replica; oldest entries are shed first.
	// 0 means DefaultMaxBacklog; negative unbounded.
	MaxBacklog int
	// BacklogTTL expires backlog entries by age — a group whose
	// activation never completes must not retain ordered traffic
	// forever. 0 means DefaultBacklogTTL; negative disables expiry.
	BacklogTTL time.Duration
	// OnChange, when non-nil, fires after replica activation, directory
	// resync, or a membership install — the wake-up for waiters polling
	// group health (System.WaitGroupActive). Called with the manager
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

	mu        sync.Mutex
	dir       *group.Directory
	hosted    map[ids.ObjectGroupID]*replicaState
	waiters   map[ids.OperationID]*waiter
	invVoter  *voting.Voter
	respVoter *voting.Voter
	invDest   map[ids.OperationID]ids.ObjectGroupID // pending invocation -> target group
	vfd       *valueFaultDetector
	joinSeq   map[ids.ObjectGroupID]uint64 // deterministic join markers
	members   map[ids.ReplicaID]*memberInfo
	pending   map[ids.ReplicaID]*stateWait
	respCache map[ids.OperationID][]byte // decided responses awaiting a local asker
	respOrder []ids.OperationID          // FIFO for bounding respCache
	degreeHW  map[ids.ObjectGroupID]int  // high-water group degree (error classification)
	needSync  bool                       // excluded at some point; directory resync pending
	syncID    uint64                     // membership install whose directory dump we await
	syncBuf   []*group.Message           // deliveries buffered until the dump arrives
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

// respCacheLimit bounds the decided-response cache. A local client replica
// can lag behind its peers (whose copies alone may decide the vote); the
// cache bridges that window.
const respCacheLimit = 8192

// replyCacheLimit bounds the executed-reply retention cache that serves
// invocation retries (at-most-once execution: a retried operation must
// get its original reply back, never a re-execution).
const replyCacheLimit = 8192

// DefaultMaxInFlight is the default per-client-replica cap on concurrent
// two-way invocations awaiting a voted response.
const DefaultMaxInFlight = 4096

// DefaultMaxBacklog is the default cap on the voted-invocation backlog a
// not-yet-active local replica may accumulate.
const DefaultMaxBacklog = 1024

// DefaultBacklogTTL is the default age bound on backlog entries.
const DefaultBacklogTTL = 30 * time.Second

// memberInfo is the globally consistent view of one replica's role and
// activation status. Activation is a deterministic function of the totally
// ordered history (a replica activates at its join, or when the
// majority-th matching State snapshot for its join marker is delivered),
// so every Replication Manager tracks the same values.
type memberInfo struct {
	server bool
	active bool
}

// stateWait tracks an in-progress state transfer for a joining server
// replica.
type stateWait struct {
	group     ids.ObjectGroupID
	marker    uint64
	providers map[ids.ReplicaID]bool
	need      int
	got       map[ids.ReplicaID]bool
	counts    map[[sec.DigestSize]byte]int
	pays      map[[sec.DigestSize]byte][]byte
}

// replicaState tracks one locally hosted replica.
type replicaState struct {
	id      ids.ReplicaID
	key     string
	adapter *orb.Adapter
	servant orb.Servant
	active  bool
	// activated is closed exactly once, when the replica first
	// activates; Handle.WaitActive blocks on it instead of polling.
	activated chan struct{}

	// State transfer on join (§3.1 replica reallocation).
	needState bool
	backlog   []backlogEntry
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
	replies  map[ids.OperationID][]byte
	replyLog []ids.OperationID // FIFO for bounding replies

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
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.MaxBacklog == 0 {
		cfg.MaxBacklog = DefaultMaxBacklog
	}
	if cfg.BacklogTTL == 0 {
		cfg.BacklogTTL = DefaultBacklogTTL
	}
	m := &Manager{
		cfg:       cfg,
		stack:     cfg.Stack,
		self:      cfg.Stack.Self(),
		met:       cfg.Metrics,
		tracer:    cfg.Tracer,
		dir:       group.NewDirectory(),
		hosted:    make(map[ids.ObjectGroupID]*replicaState),
		waiters:   make(map[ids.OperationID]*waiter),
		invDest:   make(map[ids.OperationID]ids.ObjectGroupID),
		joinSeq:   make(map[ids.ObjectGroupID]uint64),
		members:   make(map[ids.ReplicaID]*memberInfo),
		pending:   make(map[ids.ReplicaID]*stateWait),
		respCache: make(map[ids.OperationID][]byte),
		degreeHW:  make(map[ids.ObjectGroupID]int),
	}
	m.invVoter = voting.NewVoter(m.dir.Size)
	m.respVoter = voting.NewVoter(m.dir.Size)
	m.invVoter.SetMetrics(m.cfg.InvVoting)
	m.respVoter.SetMetrics(m.cfg.RespVoting)
	m.vfd = newValueFaultDetector(cfg.Processors, func(r ids.ReplicaID) {
		m.stack.ValueFaultSuspect(r.Processor)
	})
	if cfg.Joining {
		// Await the directory dump of whichever install first admits us;
		// OnMembershipInstall records its id once it arrives.
		m.needSync = true
	}
	return m, nil
}

// submitRouted sends application traffic toward the total order that owns
// dest. Without a Route hook every group lives on this manager's own
// stack.
func (m *Manager) submitRouted(dest ids.ObjectGroupID, payload []byte) error {
	if m.cfg.Route != nil {
		return m.cfg.Route(dest, payload)
	}
	return m.stack.Submit(payload)
}

// mirrorSubmitted reflects a successfully submitted membership message to
// the routing layer, if one is installed.
func (m *Manager) mirrorSubmitted(msg *group.Message) {
	if m.cfg.Mirror != nil {
		m.cfg.Mirror(msg)
	}
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

// notifyChangeLocked fires the OnChange hook after activation, resync, or
// membership changes. Caller holds m.mu; the hook must not block.
func (m *Manager) notifyChangeLocked() {
	if m.cfg.OnChange != nil {
		m.cfg.OnChange()
	}
}

// activateLocked marks a local replica active, wakes WaitActive blockers,
// and replays any voted invocations backlogged while it was joining.
// Caller holds m.mu.
func (m *Manager) activateLocked(st *replicaState) {
	if st.active {
		return
	}
	st.active = true
	st.needState = false
	select {
	case <-st.activated:
	default:
		close(st.activated)
	}
	if st.servant != nil {
		for _, b := range m.takeBacklogLocked(st) {
			m.dispatchInvocation(st, b.op, b.payload)
		}
	}
	m.notifyChangeLocked()
}

// dropWaiterLocked removes a two-way waiter (decision, timeout, failure)
// and releases its in-flight slot. Caller holds m.mu.
func (m *Manager) dropWaiterLocked(op ids.OperationID) (chan invokeResult, bool) {
	w, ok := m.waiters[op]
	if !ok {
		return nil, false
	}
	delete(m.waiters, op)
	if w.st.inflight > 0 {
		w.st.inflight--
		m.met.InFlight.Add(-1)
	}
	return w.ch, true
}

// pushBacklogLocked queues a voted invocation for a not-yet-active local
// replica: entries older than the TTL are expired and, past the cap, the
// oldest are shed first — a group that never activates must not retain
// ordered traffic forever. Caller holds m.mu.
func (m *Manager) pushBacklogLocked(st *replicaState, op ids.OperationID, payload []byte) {
	now := time.Now()
	bl := st.backlog
	if m.cfg.BacklogTTL > 0 {
		cut := 0
		for cut < len(bl) && now.Sub(bl[cut].at) > m.cfg.BacklogTTL {
			cut++
		}
		if cut > 0 {
			bl = append([]backlogEntry(nil), bl[cut:]...)
			m.met.BacklogShed.Add(uint64(cut))
		}
	}
	bl = append(bl, backlogEntry{op: op, payload: payload, at: now})
	if m.cfg.MaxBacklog > 0 && len(bl) > m.cfg.MaxBacklog {
		over := len(bl) - m.cfg.MaxBacklog
		bl = append([]backlogEntry(nil), bl[over:]...)
		m.met.BacklogShed.Add(uint64(over))
	}
	m.met.Backlog.Add(int64(len(bl) - len(st.backlog)))
	st.backlog = bl
}

// takeBacklogLocked empties a replica's backlog (activation replay or
// teardown), keeping the aggregate depth gauge consistent. Caller holds
// m.mu.
func (m *Manager) takeBacklogLocked(st *replicaState) []backlogEntry {
	bl := st.backlog
	st.backlog = nil
	m.met.Backlog.Add(-int64(len(bl)))
	return bl
}

// Handle is the application-side handle on a locally hosted replica.
type Handle struct {
	m  *Manager
	st *replicaState
}

// HostReplica announces a local replica of an object group. servant may be
// nil for a client-only object (a pure invoker). key is the CORBA object
// key the replica's skeleton answers to. The replica activates when its
// Join message is delivered in total order (and, for non-first replicas,
// after majority-voted state transfer).
func (m *Manager) HostReplica(g ids.ObjectGroupID, key string, servant orb.Servant) (*Handle, error) {
	if g == ids.BaseGroup {
		return nil, fmt.Errorf("replication: group id %v is reserved", g)
	}
	m.mu.Lock()
	if m.needSync {
		m.mu.Unlock()
		return nil, fmt.Errorf("replication: processor %s awaiting directory resync", m.self)
	}
	if _, ok := m.hosted[g]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("replication: already hosting a replica of %s", g)
	}
	st := &replicaState{
		id:        ids.ReplicaID{Group: g, Processor: m.self},
		key:       key,
		adapter:   orb.NewAdapter(),
		servant:   servant,
		activated: make(chan struct{}),
	}
	if servant != nil {
		if err := st.adapter.Register(key, servant); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	m.hosted[g] = st
	m.mu.Unlock()

	serverFlag := byte(0)
	if servant != nil {
		serverFlag = 1
	}
	join := &group.Message{
		Kind:    group.KindJoin,
		Dest:    ids.BaseGroup,
		Member:  st.id,
		Target:  g,
		Payload: []byte{serverFlag},
	}
	if err := m.stack.Submit(join.Marshal()); err != nil {
		m.mu.Lock()
		delete(m.hosted, g)
		m.mu.Unlock()
		return nil, fmt.Errorf("replication: announce join: %w", err)
	}
	m.mirrorSubmitted(join)
	return &Handle{m: m, st: st}, nil
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

// Leave withdraws the replica from its object group: a Leave message is
// multicast and, once it reaches its total-order position, every
// Replication Manager removes the replica from the group membership and
// this handle deactivates.
func (h *Handle) Leave() error {
	leave := &group.Message{
		Kind:   group.KindLeave,
		Dest:   ids.BaseGroup,
		Member: h.st.id,
		Target: h.st.id.Group,
	}
	if err := h.m.stack.Submit(leave.Marshal()); err != nil {
		return fmt.Errorf("replication: announce leave: %w", err)
	}
	h.m.mirrorSubmitted(leave)
	return nil
}

// Invoke performs a replicated two-way invocation: the marshaled IIOP
// Request is multicast to the target server group, and the call returns
// the majority-voted marshaled IIOP Reply. Every replica of the client
// object issues the same invocation; the invocation identifier (client
// group, operation sequence) is identical across replicas (Figure 3), so
// the server-side voter recognizes the copies. The manager's CallTimeout
// bounds the call.
func (h *Handle) Invoke(target ids.ObjectGroupID, iiopRequest []byte) ([]byte, error) {
	return h.InvokeDeadline(target, iiopRequest, time.Time{})
}

// InvokeDeadline is Invoke with an explicit per-call deadline (zero means
// now+CallTimeout). Within the deadline the invocation is re-sent up to
// the configured retry budget, with jittered exponential backoff between
// attempts; re-sends reuse the same operation identifier, so duplicate
// detection discards the extra copies and at-most-once execution is
// preserved. Re-sends are marked KindInvocationRetry, which additionally
// prompts server replicas that already executed the operation to re-send
// their retained reply — recovering calls whose response was lost in
// transit or shed by an unstable ring. Failures wrap ErrTimeout,
// ErrNotActive, ErrQuorumLost, or ErrGroupDegraded (match with errors.Is).
func (h *Handle) InvokeDeadline(target ids.ObjectGroupID, iiopRequest []byte, deadline time.Time) ([]byte, error) {
	if deadline.IsZero() {
		deadline = time.Now().Add(h.m.cfg.CallTimeout)
	}
	op, ch, msg, err := h.prepare(target, iiopRequest, true)
	if err != nil {
		return nil, err
	}
	var rawRetry []byte // lazily marshaled first time a re-send happens
	attempts := h.m.cfg.Retries + 1
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, h.m.timeoutError(op, target, deadline)
		}
		// Split the remaining window evenly over the attempts left, so
		// every retry gets a fair share of the deadline.
		window := remaining
		if left := attempts - attempt; left > 1 {
			window = remaining / time.Duration(left)
		}
		timer.Reset(window)
		select {
		case res := <-ch:
			timer.Stop()
			if res.err != nil {
				h.m.tracer.Abort(op)
				return nil, res.err
			}
			// Normally a no-op (the waiter delivery completed the trace);
			// it completes the cached-response path, where the reply was
			// queued before any waiter existed.
			h.m.tracer.Mark(op, obs.StageReplied)
			return res.payload, nil
		case <-timer.C:
		}
		if attempt+1 >= attempts {
			return nil, h.m.timeoutError(op, target, deadline)
		}
		// Jittered backoff, then re-multicast the invocation as a retry
		// (same operation id — voters discard copies of decided
		// operations, and executed replicas answer from reply retention).
		backoff := sec.JitteredBackoff(h.m.cfg.RetryBackoff, attempt, 250*time.Millisecond, h.m.cfg.Jitter)
		if wait := time.Until(deadline); backoff > wait {
			backoff = wait
		}
		if backoff > 0 {
			timer.Reset(backoff)
			select {
			case res := <-ch:
				timer.Stop()
				if res.err != nil {
					return nil, res.err
				}
				return res.payload, nil
			case <-timer.C:
			}
		}
		if rawRetry == nil {
			msg.Kind = group.KindInvocationRetry
			rawRetry = msg.Marshal()
		}
		if err := h.m.submitRouted(target, rawRetry); err != nil {
			if errors.Is(err, ErrOverloaded) {
				// The re-send was shed by the bounded submit queue, but the
				// original copy is already in the total order — keep waiting
				// for the voted response rather than failing the call.
				continue
			}
			return nil, h.m.timeoutError(op, target, deadline)
		}
		h.m.met.Retries.Inc()
	}
}

// timeoutError removes the waiter and classifies the failure by the state
// of the target group: no live replicas (or an excluded self) is a lost
// quorum; a live degree below ⌈(r+1)/2⌉ of the group's high-water degree
// is degradation; otherwise a plain timeout.
func (m *Manager) timeoutError(op ids.OperationID, target ids.ObjectGroupID, deadline time.Time) error {
	m.tracer.Abort(op)
	m.mu.Lock()
	m.dropWaiterLocked(op)
	size := m.dir.Size(target)
	hw := m.degreeHW[target]
	excluded := m.needSync
	m.mu.Unlock()
	switch {
	case excluded || size == 0:
		return fmt.Errorf("replication: %s to %s: %w", op, target, ErrQuorumLost)
	case size < minCorrect(hw):
		return fmt.Errorf("replication: %s to %s (%d/%d replicas live): %w",
			op, target, size, hw, ErrGroupDegraded)
	default:
		return fmt.Errorf("replication: %s to %s gave no voted response by %s: %w",
			op, target, deadline.Format("15:04:05.000"), ErrTimeout)
	}
}

// InvokeOneWay performs a replicated one-way invocation (no response; the
// packet-driver workload of §8).
func (h *Handle) InvokeOneWay(target ids.ObjectGroupID, iiopRequest []byte) error {
	_, _, _, err := h.prepare(target, iiopRequest, false)
	return err
}

// prepare assigns the operation identifier, registers a waiter for two-way
// calls, and multicasts the invocation. It returns the message so retries
// can re-marshal it with the retry kind.
func (h *Handle) prepare(target ids.ObjectGroupID, iiopRequest []byte, twoway bool) (ids.OperationID, chan invokeResult, *group.Message, error) {
	m := h.m
	m.mu.Lock()
	if !h.st.active {
		m.mu.Unlock()
		return ids.OperationID{}, nil, nil, fmt.Errorf("replication: replica %s: %w", h.st.id, ErrNotActive)
	}
	if twoway && m.cfg.MaxInFlight > 0 && h.st.inflight >= m.cfg.MaxInFlight {
		// Admission control: past the in-flight cap the call is shed
		// before any copy is multicast, so the caller can back off and
		// retry without risking duplicate execution.
		m.mu.Unlock()
		m.met.OverloadRejects.Inc()
		return ids.OperationID{}, nil, nil, fmt.Errorf("replication: replica %s: %d invocations in flight: %w",
			h.st.id, m.cfg.MaxInFlight, ErrOverloaded)
	}
	h.st.opSeq++
	op := ids.OperationID{ClientGroup: h.st.id.Group, Seq: h.st.opSeq}
	m.tracer.Mark(op, obs.StageIntercept)
	var ch chan invokeResult
	if twoway {
		ch = make(chan invokeResult, 1)
		if cached, ok := m.respCache[op]; ok {
			// The vote already decided off our peers' copies; hand the
			// result straight back.
			delete(m.respCache, op)
			ch <- invokeResult{payload: cached}
		} else {
			m.waiters[op] = &waiter{ch: ch, st: h.st}
			h.st.inflight++
			m.met.InFlight.Add(1)
		}
	}
	m.mu.Unlock()
	m.met.InvocationsSent.Inc()

	msg := &group.Message{
		Kind:    group.KindInvocation,
		Dest:    target,
		Op:      op,
		Sender:  h.st.id,
		Payload: iiopRequest,
	}
	if err := m.submitRouted(target, msg.Marshal()); err != nil {
		m.mu.Lock()
		if twoway {
			m.dropWaiterLocked(op)
		}
		if errors.Is(err, ErrOverloaded) {
			m.met.OverloadRejects.Inc()
		}
		m.mu.Unlock()
		m.tracer.Abort(op)
		return op, nil, nil, fmt.Errorf("replication: multicast invocation: %w", err)
	}
	m.tracer.Mark(op, obs.StageSubmit)
	if !twoway {
		// A one-way invocation's client-side lifecycle ends here; complete
		// the trace so its slot does not linger until the table caps out.
		m.tracer.Finish(op)
	}
	return op, ch, msg, nil
}

// HandleDelivery processes one totally ordered payload from the Secure
// Multicast Protocols. It must be called from the stack's delivery
// goroutine (deliveries arrive in total order).
func (m *Manager) HandleDelivery(payload []byte) {
	msg, err := group.Unmarshal(payload)
	if err != nil {
		return // not a group message (foreign traffic on the stack)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.needSync {
		m.bufferOrSyncLocked(msg)
		return
	}
	if msg.Kind == group.KindDirectorySync {
		return // a rejoiner's dump; this manager is already synced
	}
	m.applyLocked(msg)
}

// applyLocked dispatches one delivered group message. Caller holds m.mu.
func (m *Manager) applyLocked(msg *group.Message) {
	switch msg.Kind {
	case group.KindJoin:
		m.handleJoin(msg)
	case group.KindLeave:
		m.handleLeave(msg)
	case group.KindInvocation, group.KindInvocationRetry:
		m.handleInvocation(msg)
	case group.KindResponse:
		m.handleResponse(msg)
	case group.KindValueFaultVote:
		m.vfd.remoteVote(msg)
	case group.KindState:
		m.handleState(msg)
	case group.KindRejoin:
		m.handleRejoin(msg)
	}
}

// handleJoin applies an object-group join (base group traffic, §6.1). The
// join's payload flag distinguishes server replicas (which carry state)
// from client-only replicas (which do not).
func (m *Manager) handleJoin(msg *group.Message) {
	// Determine the active server replicas BEFORE the join: they are the
	// state providers for the joiner. Every manager computes the same
	// set from the same ordered history.
	var providers []ids.ReplicaID
	for _, r := range m.dir.Members(msg.Member.Group) {
		if mi := m.members[r]; mi != nil && mi.server && mi.active {
			providers = append(providers, r)
		}
	}
	if !m.dir.Join(msg.Member) {
		return // duplicate join
	}
	if size := m.dir.Size(msg.Member.Group); size > m.degreeHW[msg.Member.Group] {
		m.degreeHW[msg.Member.Group] = size
	}
	m.joinSeq[msg.Member.Group]++
	marker := m.joinSeq[msg.Member.Group]
	isServer := len(msg.Payload) > 0 && msg.Payload[0] == 1
	mi := &memberInfo{server: isServer}
	m.members[msg.Member] = mi

	st, local := m.hosted[msg.Member.Group]
	localJoiner := local && msg.Member.Processor == m.self

	if !isServer || len(providers) == 0 {
		// Client-only replica, or the group's first server replica: no
		// state to transfer; the replica activates at its join position.
		mi.active = true
		if localJoiner {
			m.activateLocked(st)
		} else {
			m.notifyChangeLocked()
		}
		m.recheckLocked()
		return
	}

	// State transfer required: record the wait (all managers track it so
	// that activation stays globally consistent), and any locally hosted
	// active provider contributes its snapshot, captured exactly at the
	// join's total-order position so all providers snapshot identical
	// state (§3.1 reallocation).
	wait := &stateWait{
		group:     msg.Member.Group,
		marker:    marker,
		providers: make(map[ids.ReplicaID]bool, len(providers)),
		need:      group.Majority(len(providers)),
		got:       make(map[ids.ReplicaID]bool),
		counts:    make(map[[sec.DigestSize]byte]int),
		pays:      make(map[[sec.DigestSize]byte][]byte),
	}
	for _, p := range providers {
		wait.providers[p] = true
	}
	m.pending[msg.Member] = wait
	if localJoiner {
		st.needState = true
		// Invocations decided between hosting the replica and this join's
		// delivery are already reflected in the providers' snapshots
		// (captured exactly at this total-order position); replaying them
		// after Restore would double-apply them. The backlog restarts
		// empty here, so activation replays only what providers applied
		// after the snapshot point.
		m.takeBacklogLocked(st)
	}
	if local && st.active && st.servant != nil && !localJoiner {
		state := &group.Message{
			Kind:    group.KindState,
			Dest:    msg.Member.Group,
			Target:  msg.Member.Group,
			Op:      ids.OperationID{Seq: marker},
			Sender:  st.id,
			Payload: encodeStatePayload(st.servant.Snapshot(), st.replies, st.replyLog),
		}
		_ = m.stack.Submit(state.Marshal())
	}
	m.recheckLocked()
}

// handleLeave applies an object-group leave.
func (m *Manager) handleLeave(msg *group.Message) {
	if !m.dir.Leave(msg.Member) {
		return
	}
	m.removeReplicaLocked(msg.Member)
	m.recheckLocked()
}

// removeReplicaLocked cleans a departed replica out of all voting and
// state-transfer machinery. Caller holds m.mu.
func (m *Manager) removeReplicaLocked(r ids.ReplicaID) {
	delete(m.members, r)
	delete(m.pending, r)
	if st, ok := m.hosted[r.Group]; ok && r.Processor == m.self {
		st.active = false
		m.takeBacklogLocked(st)
		delete(m.hosted, r.Group)
	}
	m.invVoter.DropSender(r)
	m.respVoter.DropSender(r)
	// A departed provider shrinks outstanding state transfers; the need
	// threshold adjusts so a crash cannot wedge a join forever.
	for joiner, w := range m.pending {
		if !w.providers[r] {
			continue
		}
		delete(w.providers, r)
		delete(w.got, r)
		w.need = group.Majority(len(w.providers))
		if len(w.providers) == 0 {
			// No providers left: the joiner becomes the group's first
			// (state-free) replica.
			delete(m.pending, joiner)
			if mi := m.members[joiner]; mi != nil {
				mi.active = true
			}
			if st, ok := m.hosted[joiner.Group]; ok && joiner.Processor == m.self {
				m.activateLocked(st)
			} else {
				m.notifyChangeLocked()
			}
		}
	}
}

// handleInvocation feeds an invocation copy to V_I if the destination
// group is hosted here (Figure 2: the RM filters messages based on their
// destination groups).
func (m *Manager) handleInvocation(msg *group.Message) {
	st, ok := m.hosted[msg.Dest]
	if !ok {
		return
	}
	if !m.dir.Contains(msg.Sender) {
		return // sender is not a current member of its claimed group
	}
	m.invDest[msg.Op] = msg.Dest
	m.tracer.Mark(msg.Op, obs.StageOrdered)
	d := sec.Digest(msg.Payload)
	out := m.invVoter.OfferDigest(msg.Op, msg.Sender, msg.Payload, d)
	m.noteOutcome(msg, out, d)
	if !out.Decided {
		if msg.Kind == group.KindInvocationRetry && out.Duplicate {
			// The client is retrying an operation this replica already
			// executed: its response (or the original submit) was lost.
			// Re-send the retained reply instead of re-executing, so the
			// call completes without violating at-most-once semantics.
			m.resendReplyLocked(st, msg.Op)
		}
		return
	}
	delete(m.invDest, msg.Op)
	m.met.InvocationsDecided.Inc()
	m.tracer.Mark(msg.Op, obs.StageVoted)
	if !st.active {
		m.pushBacklogLocked(st, msg.Op, out.Payload)
		return
	}
	m.dispatchInvocation(st, msg.Op, out.Payload)
}

// dispatchInvocation runs the voted invocation on the local servant and
// multicasts the response copy. Caller holds m.mu.
func (m *Manager) dispatchInvocation(st *replicaState, op ids.OperationID, iiopRequest []byte) {
	reply, err := st.adapter.HandleRequest(iiopRequest)
	if err != nil || reply == nil {
		return // undecodable request or one-way: nothing to send back
	}
	// Retain the reply before attempting to send it: if the submit fails
	// (the ring can refuse new traffic while a dead member blocks
	// stability) the operation must still be answerable from the cache
	// when the client retries.
	retainReplyLocked(st, op, reply)
	if err := m.submitRouted(op.ClientGroup, m.responseFor(st, op, reply)); err == nil {
		m.met.ResponsesSent.Inc()
		m.tracer.Mark(op, obs.StageExecuted)
	}
}

// responseFor marshals this replica's response copy for an executed
// operation.
func (m *Manager) responseFor(st *replicaState, op ids.OperationID, reply []byte) []byte {
	resp := &group.Message{
		Kind:    group.KindResponse,
		Dest:    op.ClientGroup,
		Op:      op,
		Sender:  st.id,
		Payload: reply,
	}
	return resp.Marshal()
}

// retainReplyLocked records an executed operation's reply on the replica
// for later re-sends (bounded FIFO). Entries accrue in total order, so
// every active replica of a group holds the same cache. Caller holds
// m.mu.
func retainReplyLocked(st *replicaState, op ids.OperationID, reply []byte) {
	if st.replies == nil {
		st.replies = make(map[ids.OperationID][]byte)
	}
	if _, ok := st.replies[op]; ok {
		return
	}
	st.replies[op] = reply
	st.replyLog = append(st.replyLog, op)
	if len(st.replyLog) > replyCacheLimit {
		evict := st.replyLog[0]
		st.replyLog = st.replyLog[1:]
		delete(st.replies, evict)
	}
}

// resendReplyLocked answers a retried invocation from the replica's
// retained-reply cache. A miss is harmless: either the operation was
// never executed here (it is still pending or backlogged and will answer
// through the normal path) or its entry aged out, in which case the
// other replicas' copies carry the vote. Caller holds m.mu.
func (m *Manager) resendReplyLocked(st *replicaState, op ids.OperationID) {
	reply, ok := st.replies[op]
	if !ok || !st.active {
		return
	}
	if err := m.submitRouted(op.ClientGroup, m.responseFor(st, op, reply)); err == nil {
		m.met.ResponsesResent.Inc()
	}
}

// handleResponse feeds a response copy to V_R if the destination client
// group is hosted here.
func (m *Manager) handleResponse(msg *group.Message) {
	if _, ok := m.hosted[msg.Dest]; !ok {
		return
	}
	if !m.dir.Contains(msg.Sender) {
		return
	}
	d := sec.Digest(msg.Payload)
	out := m.respVoter.OfferDigest(msg.Op, msg.Sender, msg.Payload, d)
	m.noteOutcome(msg, out, d)
	if !out.Decided {
		return
	}
	m.met.ResponsesDecided.Inc()
	m.tracer.Mark(msg.Op, obs.StageRespVoted)
	m.deliverResponseLocked(msg.Op, out.Payload)
}

// deliverResponseLocked hands a decided response to its waiter, or caches
// it for a local client replica that has not asked yet. Caller holds m.mu.
func (m *Manager) deliverResponseLocked(op ids.OperationID, payload []byte) {
	if ch, ok := m.dropWaiterLocked(op); ok {
		ch <- invokeResult{payload: payload}
		m.tracer.Mark(op, obs.StageReplied)
		return
	}
	if _, dup := m.respCache[op]; dup {
		return
	}
	m.respCache[op] = payload
	m.respOrder = append(m.respOrder, op)
	if len(m.respOrder) > respCacheLimit {
		evict := m.respOrder[0]
		m.respOrder = m.respOrder[1:]
		delete(m.respCache, evict)
	}
}

// noteOutcome records duplicate/deviant information from a voter outcome
// and runs the value-fault protocol of §6.2. d is the digest of
// msg.Payload, computed once by the caller and shared with the voter.
// Caller holds m.mu.
func (m *Manager) noteOutcome(msg *group.Message, out voting.Outcome, d [sec.DigestSize]byte) {
	if out.Duplicate {
		m.met.Duplicates.Inc()
	}
	var deviants []ids.ReplicaID
	deviants = append(deviants, out.Deviants...)
	if out.Deviant != nil {
		deviants = append(deviants, *out.Deviant)
	}
	if len(deviants) == 0 {
		return
	}
	m.met.ValueFaults.Add(uint64(len(deviants)))
	// Local observation, then a Value_Fault_Vote to the base group so
	// that every Replication Manager reaches the same verdict (§6.2).
	votes := make([]group.VoteEntry, 0, len(deviants))
	for _, dev := range deviants {
		m.vfd.localObservation(m.self, dev)
		votes = append(votes, group.VoteEntry{Sender: dev, Digest: d})
	}
	vote := &group.Message{
		Kind:   group.KindValueFaultVote,
		Dest:   ids.BaseGroup,
		Op:     msg.Op,
		Sender: ids.ReplicaID{Group: msg.Dest, Processor: m.self},
		Target: msg.Dest,
		Votes:  votes,
	}
	_ = m.stack.Submit(vote.Marshal())
}

// handleState applies a state snapshot toward a joining replica's
// majority-voted state transfer. Every manager tallies (so that activation
// stays globally consistent); only the local joiner actually restores.
func (m *Manager) handleState(msg *group.Message) {
	// Locate the wait this snapshot serves.
	var joiner ids.ReplicaID
	var wait *stateWait
	for r, w := range m.pending {
		if w.group == msg.Target && w.marker == msg.Op.Seq {
			joiner, wait = r, w
			break
		}
	}
	if wait == nil {
		return
	}
	if !wait.providers[msg.Sender] || wait.got[msg.Sender] {
		return // not a designated provider, or a duplicate snapshot
	}
	wait.got[msg.Sender] = true
	d := sec.Digest(msg.Payload)
	wait.counts[d]++
	if _, have := wait.pays[d]; !have {
		wait.pays[d] = append([]byte(nil), msg.Payload...)
	}
	if wait.counts[d] < wait.need {
		return
	}

	// Majority snapshot: the joiner activates here, at this delivery
	// position, everywhere.
	delete(m.pending, joiner)
	if mi := m.members[joiner]; mi != nil {
		mi.active = true
	}
	st, ok := m.hosted[joiner.Group]
	if !ok || joiner.Processor != m.self {
		m.notifyChangeLocked()
		return
	}
	snap, replies, replyLog, err := decodeStatePayload(wait.pays[d])
	if err != nil {
		return // unusable snapshot; replica stays inactive locally
	}
	if err := st.servant.Restore(snap); err != nil {
		return // unusable snapshot; replica stays inactive locally
	}
	// Adopt the providers' retained-reply cache: the snapshot already
	// reflects these operations' effects, and without their replies this
	// replica could never answer a retry for them — after enough
	// re-hostings the response vote would lose its quorum for good.
	st.replies = replies
	st.replyLog = replyLog
	m.met.StateTransfers.Inc()
	// activateLocked replays the backlog accumulated during the transfer.
	m.activateLocked(st)
}

// encodeStatePayload frames a provider's state-transfer payload: the
// servant snapshot followed by the replica's retained-reply cache in
// retention order. The cache is part of the group's replicated state —
// every provider holds an identical copy (entries accrue in total
// order), so the framed payloads still digest-match across providers.
func encodeStatePayload(snap []byte, replies map[ids.OperationID][]byte, replyLog []ids.OperationID) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(snap)))
	b = append(b, snap...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(replyLog)))
	for _, op := range replyLog {
		b = binary.LittleEndian.AppendUint32(b, uint32(op.ClientGroup))
		b = binary.LittleEndian.AppendUint64(b, op.Seq)
		r := replies[op]
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
	}
	return b
}

// decodeStatePayload is the inverse of encodeStatePayload.
func decodeStatePayload(payload []byte) (snap []byte, replies map[ids.OperationID][]byte, replyLog []ids.OperationID, err error) {
	bad := errors.New("replication: truncated state payload")
	u32 := func() (uint32, bool) {
		if err != nil || len(payload) < 4 {
			err = bad
			return 0, false
		}
		v := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		return v, true
	}
	n, ok := u32()
	if !ok || uint64(n) > uint64(len(payload)) {
		return nil, nil, nil, bad
	}
	snap = append([]byte(nil), payload[:n]...)
	payload = payload[n:]
	count, ok := u32()
	if !ok {
		return nil, nil, nil, bad
	}
	replies = make(map[ids.OperationID][]byte, count)
	replyLog = make([]ids.OperationID, 0, min(int(count), replyCacheLimit))
	for i := uint32(0); i < count; i++ {
		var op ids.OperationID
		cg, ok := u32()
		if !ok {
			return nil, nil, nil, bad
		}
		op.ClientGroup = ids.ObjectGroupID(cg)
		if len(payload) < 8 {
			return nil, nil, nil, bad
		}
		op.Seq = binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
		rn, ok := u32()
		if !ok || uint64(rn) > uint64(len(payload)) {
			return nil, nil, nil, bad
		}
		replies[op] = append([]byte(nil), payload[:rn]...)
		payload = payload[rn:]
		replyLog = append(replyLog, op)
	}
	if len(payload) != 0 {
		return nil, nil, nil, bad
	}
	return snap, replies, replyLog, nil
}

// OnProcessorMembershipChange applies a processor membership install
// without an install identifier (legacy entry point; no directory dump is
// emitted and rejoin resynchronization is not tracked).
func (m *Manager) OnProcessorMembershipChange(members []ids.ProcessorID) {
	m.OnMembershipInstall(0, members, false)
}

// OnMembershipInstall applies a processor membership install (§3.1): all
// replicas hosted by excluded processors are removed from all object
// groups, their pending copies are dropped, and the voters are rechecked
// (lower degrees may unblock majorities).
//
// If the local processor itself is excluded, the manager resets: the
// directory is discarded, in-flight invocations fail with ErrQuorumLost,
// and the manager refuses to host replicas until it rejoins and resyncs.
// On the install that readmits it, the manager buffers deliveries until a
// continuing member's directory dump for that install arrives, applies
// the dump, and replays the buffer — reconstructing exactly the state the
// continuing members hold. Continuing synced members multicast such a
// dump at every install (installID != 0).
// behind reports that the local processor installed this membership while
// still lagging the old ring's delivered tail (membership.Install.Behind):
// deliveries other members applied are lost to it, so its directory and
// every hosted server replica's state are suspect. The manager then
// resyncs the directory from a continuing member's dump and re-admits its
// server replicas via KindRejoin, rebuilding their state by a
// majority-voted transfer instead of continuing silently divergent.
func (m *Manager) OnMembershipInstall(installID uint64, members []ids.ProcessorID, behind bool) {
	alive := make(map[ids.ProcessorID]bool, len(members))
	for _, p := range members {
		alive[p] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vfd.setProcessors(len(members))
	selfIn := alive[m.self]
	if !selfIn {
		m.resetLocked()
		return
	}
	if m.needSync {
		// Readmitted (or a further install arrived while still resyncing):
		// restart the buffer at this install and await its dump.
		m.syncID = installID
		m.syncBuf = nil
		return
	}
	if behind && installID != 0 {
		m.desyncLocked(installID)
		return
	}
	// Continuing synced member: drop the excluded processors' replicas,
	// deterministically.
	var removedReplicas []ids.ReplicaID
	for _, g := range m.dir.Groups() {
		for _, r := range m.dir.Members(g) {
			if !alive[r.Processor] {
				removedReplicas = append(removedReplicas, r)
			}
		}
	}
	for _, r := range removedReplicas {
		m.dir.Leave(r)
		m.removeReplicaLocked(r)
	}
	m.recheckLocked()
	if installID != 0 {
		m.emitSyncLocked(installID)
	}
	m.notifyChangeLocked()
}

// resetLocked discards all group state after the local processor's
// exclusion from the membership. In-flight two-way invocations fail with
// ErrQuorumLost (no vote involving this processor can decide), hosted
// replicas deactivate, and needSync blocks hosting until a directory dump
// restores a consistent view. Caller holds m.mu.
func (m *Manager) resetLocked() {
	err := fmt.Errorf("replication: processor %s excluded from membership: %w", m.self, ErrQuorumLost)
	for op := range m.waiters {
		if ch, ok := m.dropWaiterLocked(op); ok {
			ch <- invokeResult{err: err}
		}
	}
	for _, st := range m.hosted {
		st.active = false
		m.takeBacklogLocked(st)
	}
	m.hosted = make(map[ids.ObjectGroupID]*replicaState)
	m.dir = group.NewDirectory()
	m.invVoter = voting.NewVoter(m.dir.Size)
	m.respVoter = voting.NewVoter(m.dir.Size)
	m.invVoter.SetMetrics(m.cfg.InvVoting)
	m.respVoter.SetMetrics(m.cfg.RespVoting)
	m.invDest = make(map[ids.OperationID]ids.ObjectGroupID)
	m.joinSeq = make(map[ids.ObjectGroupID]uint64)
	m.members = make(map[ids.ReplicaID]*memberInfo)
	m.pending = make(map[ids.ReplicaID]*stateWait)
	m.respCache = make(map[ids.OperationID][]byte)
	m.respOrder = nil
	m.degreeHW = make(map[ids.ObjectGroupID]int)
	m.needSync = true
	m.syncID = 0
	m.syncBuf = nil
	m.notifyChangeLocked()
}

// desyncLocked handles a membership install that the local processor
// applied while behind on the old ring's delivered tail. Unlike an
// exclusion (resetLocked), the processor remains a member: client
// replicas stay hosted (they carry no servant state) and in-flight
// two-way invocations keep their waiters — the client-side retry path
// re-multicasts them and executed replicas answer from reply retention —
// but the directory is rebuilt from a continuing member's dump and every
// active server replica is deactivated for re-admission behind a fresh
// state transfer (KindRejoin), because it may have silently missed
// decided operations that its peers executed. Caller holds m.mu.
func (m *Manager) desyncLocked(installID uint64) {
	m.met.Desyncs.Inc()
	m.needSync = true
	m.syncID = installID
	m.syncBuf = nil
	for _, st := range m.hosted {
		if st.servant == nil || !st.active {
			continue
		}
		st.active = false
		m.takeBacklogLocked(st)
		st.rejoin = true
	}
	m.notifyChangeLocked()
}

// submitRejoinsLocked multicasts a KindRejoin for every server replica
// flagged by a desync, once the directory resync has completed. Caller
// holds m.mu.
func (m *Manager) submitRejoinsLocked() {
	for _, st := range m.hosted {
		if !st.rejoin {
			continue
		}
		st.rejoin = false
		msg := &group.Message{
			Kind:    group.KindRejoin,
			Dest:    ids.BaseGroup,
			Member:  st.id,
			Target:  st.id.Group,
			Payload: []byte{1},
		}
		_ = m.stack.Submit(msg.Marshal())
	}
}

// handleRejoin re-admits a server replica whose processor fell behind the
// old ring before a membership install: at this total-order position the
// replica leaves the group's active membership and immediately rejoins as
// a fresh joiner, taking a majority-voted state transfer from the
// remaining active replicas. The hosting manager keeps its local replica
// (inactive) across the transition, so handles stay valid and the
// restored state lands in place.
func (m *Manager) handleRejoin(msg *group.Message) {
	r := msg.Member
	if !m.dir.Contains(r) {
		return // unknown or already departed
	}
	if mi := m.members[r]; mi != nil && !mi.server {
		return // client replicas carry no state; nothing to rebuild
	}

	// Leave: drop the replica from voting and state-transfer machinery —
	// mirroring removeReplicaLocked except that a local hosted replica
	// stays registered, inactive, awaiting its transfer.
	m.dir.Leave(r)
	delete(m.members, r)
	delete(m.pending, r)
	m.invVoter.DropSender(r)
	m.respVoter.DropSender(r)
	for joiner, w := range m.pending {
		if !w.providers[r] {
			continue
		}
		delete(w.providers, r)
		delete(w.got, r)
		w.need = group.Majority(len(w.providers))
		if len(w.providers) == 0 {
			delete(m.pending, joiner)
			if mi := m.members[joiner]; mi != nil {
				mi.active = true
			}
			if st, ok := m.hosted[joiner.Group]; ok && joiner.Processor == m.self {
				m.activateLocked(st)
			} else {
				m.notifyChangeLocked()
			}
		}
	}

	// Rejoin: the remaining active server replicas are the providers.
	var providers []ids.ReplicaID
	for _, p := range m.dir.Members(r.Group) {
		if mi := m.members[p]; mi != nil && mi.server && mi.active {
			providers = append(providers, p)
		}
	}
	m.dir.Join(r)
	if size := m.dir.Size(r.Group); size > m.degreeHW[r.Group] {
		m.degreeHW[r.Group] = size
	}
	m.joinSeq[r.Group]++
	marker := m.joinSeq[r.Group]
	mi := &memberInfo{server: true}
	m.members[r] = mi

	st, local := m.hosted[r.Group]
	localJoiner := local && r.Processor == m.self
	if localJoiner {
		st.active = false
	}

	if len(providers) == 0 {
		// No peer survived with trusted state: the rejoiner becomes the
		// group's first replica again, keeping whatever state it has —
		// there is no better copy to restore from.
		mi.active = true
		if localJoiner {
			m.activateLocked(st)
		} else {
			m.notifyChangeLocked()
		}
		m.recheckLocked()
		return
	}

	wait := &stateWait{
		group:     r.Group,
		marker:    marker,
		providers: make(map[ids.ReplicaID]bool, len(providers)),
		need:      group.Majority(len(providers)),
		got:       make(map[ids.ReplicaID]bool),
		counts:    make(map[[sec.DigestSize]byte]int),
		pays:      make(map[[sec.DigestSize]byte][]byte),
	}
	for _, p := range providers {
		wait.providers[p] = true
	}
	m.pending[r] = wait
	if localJoiner {
		st.needState = true
		// Anything backlogged before this position is covered by the
		// providers' snapshots, captured exactly here; replaying it after
		// Restore would double-apply.
		m.takeBacklogLocked(st)
	}
	if local && st.active && st.servant != nil && !localJoiner {
		state := &group.Message{
			Kind:    group.KindState,
			Dest:    r.Group,
			Target:  r.Group,
			Op:      ids.OperationID{Seq: marker},
			Sender:  st.id,
			Payload: encodeStatePayload(st.servant.Snapshot(), st.replies, st.replyLog),
		}
		_ = m.stack.Submit(state.Marshal())
	}
	m.recheckLocked()
}

// bufferOrSyncLocked handles one delivery while the manager awaits a
// directory dump. A matching dump is applied and the buffered tail
// replayed; any other delivery is buffered. Caller holds m.mu.
func (m *Manager) bufferOrSyncLocked(msg *group.Message) {
	if msg.Kind == group.KindDirectorySync && m.syncID != 0 {
		st, err := group.UnmarshalSyncState(msg.Payload)
		if err != nil || st.InstallID != m.syncID {
			return // malformed, or a dump for a different install
		}
		m.applySyncLocked(st)
		m.needSync = false
		m.syncID = 0
		buf := m.syncBuf
		m.syncBuf = nil
		for _, b := range buf {
			if b.Kind != group.KindDirectorySync {
				m.applyLocked(b)
			}
		}
		m.submitRejoinsLocked()
		m.notifyChangeLocked()
		return
	}
	if m.syncID == 0 {
		return // excluded, not yet readmitted: nothing to resync against
	}
	if len(m.syncBuf) >= syncBufLimit {
		// Buffer exhausted without a dump: abandon this resync attempt.
		// The manager stays unsynced (and refuses to host replicas) until
		// a later install restarts it.
		m.syncID = 0
		m.syncBuf = nil
		return
	}
	m.syncBuf = append(m.syncBuf, msg)
}

// emitSyncLocked multicasts this manager's directory state, captured at
// the given membership install. The dump is captured inside the
// membership-change notification — after the old ring's deliveries and
// before any new-ring delivery — so every continuing member dumps
// identical state at the same total-order position. Caller holds m.mu.
func (m *Manager) emitSyncLocked(installID uint64) {
	state := &group.SyncState{InstallID: installID}
	seen := make(map[ids.ObjectGroupID]bool)
	addGroup := func(g ids.ObjectGroupID) {
		if seen[g] {
			return
		}
		seen[g] = true
		sg := group.SyncGroup{
			ID:       g,
			JoinSeq:  m.joinSeq[g],
			DegreeHW: uint32(m.degreeHW[g]),
		}
		for _, r := range m.dir.Members(g) {
			sm := group.SyncMember{Replica: r}
			if mi := m.members[r]; mi != nil {
				sm.Server, sm.Active = mi.server, mi.active
			}
			sg.Members = append(sg.Members, sm)
		}
		state.Groups = append(state.Groups, sg)
	}
	for _, g := range m.dir.Groups() {
		addGroup(g)
	}
	// Groups that emptied out still carry monotone counters.
	for g := range m.joinSeq {
		addGroup(g)
	}
	for g := range m.degreeHW {
		addGroup(g)
	}
	for joiner, w := range m.pending {
		p := group.SyncPending{Joiner: joiner, Group: w.group, Marker: w.marker}
		for r := range w.providers {
			p.Providers = append(p.Providers, r)
		}
		for r := range w.got {
			p.Got = append(p.Got, r)
		}
		for d, c := range w.counts {
			p.Snaps = append(p.Snaps, group.SyncSnap{Digest: d, Count: uint32(c), Payload: w.pays[d]})
		}
		state.Pending = append(state.Pending, p)
	}
	msg := &group.Message{
		Kind:    group.KindDirectorySync,
		Dest:    ids.BaseGroup,
		Sender:  ids.ReplicaID{Group: ids.BaseGroup, Processor: m.self},
		Payload: state.Marshal(),
	}
	_ = m.stack.Submit(msg.Marshal())
}

// applySyncLocked installs a directory dump, replacing all group state.
// Caller holds m.mu.
func (m *Manager) applySyncLocked(state *group.SyncState) {
	m.dir = group.NewDirectory()
	m.invVoter = voting.NewVoter(m.dir.Size)
	m.respVoter = voting.NewVoter(m.dir.Size)
	m.invVoter.SetMetrics(m.cfg.InvVoting)
	m.respVoter.SetMetrics(m.cfg.RespVoting)
	m.invDest = make(map[ids.OperationID]ids.ObjectGroupID)
	m.joinSeq = make(map[ids.ObjectGroupID]uint64)
	m.members = make(map[ids.ReplicaID]*memberInfo)
	m.pending = make(map[ids.ReplicaID]*stateWait)
	m.degreeHW = make(map[ids.ObjectGroupID]int)
	for _, g := range state.Groups {
		m.joinSeq[g.ID] = g.JoinSeq
		m.degreeHW[g.ID] = int(g.DegreeHW)
		for _, mem := range g.Members {
			m.dir.Join(mem.Replica)
			m.members[mem.Replica] = &memberInfo{server: mem.Server, active: mem.Active}
		}
	}
	for _, p := range state.Pending {
		w := &stateWait{
			group:     p.Group,
			marker:    p.Marker,
			providers: make(map[ids.ReplicaID]bool, len(p.Providers)),
			got:       make(map[ids.ReplicaID]bool, len(p.Got)),
			counts:    make(map[[sec.DigestSize]byte]int, len(p.Snaps)),
			pays:      make(map[[sec.DigestSize]byte][]byte, len(p.Snaps)),
		}
		for _, r := range p.Providers {
			w.providers[r] = true
		}
		w.need = group.Majority(len(p.Providers))
		for _, r := range p.Got {
			w.got[r] = true
		}
		for _, sn := range p.Snaps {
			w.counts[sn.Digest] = int(sn.Count)
			w.pays[sn.Digest] = sn.Payload
		}
		m.pending[p.Joiner] = w
	}
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

// EvictReplica multicasts a Leave on behalf of a replica that cannot
// speak for itself (its processor withdrew or its activation never
// completed). Every Replication Manager removes it at the Leave's
// total-order position, exactly as a voluntary departure.
func (m *Manager) EvictReplica(r ids.ReplicaID) error {
	leave := &group.Message{
		Kind:   group.KindLeave,
		Dest:   ids.BaseGroup,
		Member: r,
		Target: r.Group,
	}
	if err := m.stack.Submit(leave.Marshal()); err != nil {
		return fmt.Errorf("replication: evict %s: %w", r, err)
	}
	m.mirrorSubmitted(leave)
	return nil
}

// recheckLocked drains decisions that became possible after a membership
// or degree change. Caller holds m.mu.
func (m *Manager) recheckLocked() {
	for _, dec := range m.invVoter.Recheck() {
		m.met.InvocationsDecided.Inc()
		dest, ok := m.invDest[dec.Op]
		if !ok {
			continue
		}
		delete(m.invDest, dec.Op)
		st, hosted := m.hosted[dest]
		if !hosted {
			continue
		}
		if !st.active {
			m.pushBacklogLocked(st, dec.Op, dec.Payload)
			continue
		}
		m.dispatchInvocation(st, dec.Op, dec.Payload)
	}
	for _, dec := range m.respVoter.Recheck() {
		m.met.ResponsesDecided.Inc()
		m.deliverResponseLocked(dec.Op, dec.Payload)
	}
}
