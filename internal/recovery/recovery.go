// Package recovery implements the Immune system's replica reallocation
// policy (paper §3.1): "if a processor is excluded from the membership,
// the replicas of the objects it hosted are reallocated to other
// processors". A Manager subscribes to processor membership installs,
// diffs the installed view against the hosted object groups, detects
// groups whose live degree has fallen below their configured replication
// degree, chooses replacement processors — honoring one replica per
// processor per group and balancing load — and re-hosts replicas through
// the Replication Manager's majority-voted state transfer. Failed
// placements (the chosen processor is excluded mid-transfer, or the
// replica never activates) are retried with capped exponential backoff
// onto other candidates.
package recovery

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/sec"
)

// Placement is a live handle on one in-flight re-hosting: it reports
// whether the new replica has activated (its join delivered and the
// majority-voted state transfer completed).
type Placement interface {
	Active() bool
}

// Cluster is the Manager's view of the deployment. The core layer
// provides an adapter backed by a reference Replication Manager (any
// synced member of the newest installed view — total order makes every
// synced directory identical).
type Cluster interface {
	// View returns the currently installed processor membership.
	View() []ids.ProcessorID
	// Groups returns every object group in the reference directory.
	Groups() []ids.ObjectGroupID
	// Group returns the processors hosting a replica of g and the highest
	// degree ever observed for g, read from one directory, the degree
	// first: hosts read from a lagging directory against an advanced
	// one's degree would open the bootstrap gate mid-bootstrap.
	Group(g ids.ObjectGroupID) (hosts []ids.ProcessorID, degreeHW int)
	// Load returns how many replicas p currently hosts.
	Load(p ids.ProcessorID) int
	// Ready reports whether p can accept a placement (member of the
	// view, directory synced).
	Ready(p ids.ProcessorID) bool
	// Place re-hosts a replica of g on p; the group's state reaches the
	// new replica through majority-voted state transfer.
	Place(p ids.ProcessorID, g ids.ObjectGroupID) (Placement, error)
	// Evict removes g's replica on p (a placement that never activated).
	Evict(g ids.ObjectGroupID, p ids.ProcessorID) error
}

// EventKind classifies a recovery event.
type EventKind int

const (
	// EventDegraded: the group's live degree fell below its configured
	// degree.
	EventDegraded EventKind = iota + 1
	// EventCritical: the live degree fell below ⌈(r+1)/2⌉ of the
	// configured degree (§3.1 hard alarm) — a majority of the configured
	// degree can no longer form.
	EventCritical
	// EventPlacementStarted: a replacement replica was placed and its
	// state transfer began.
	EventPlacementStarted
	// EventPlacementFailed: a placement was abandoned (target excluded
	// mid-transfer, activation timeout, or the host call failed).
	EventPlacementFailed
	// EventReplicaRestored: a replacement replica activated with the
	// transferred state.
	EventReplicaRestored
	// EventRecovered: the group is back to its configured degree.
	EventRecovered
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EventDegraded:
		return "degraded"
	case EventCritical:
		return "critical"
	case EventPlacementStarted:
		return "placement-started"
	case EventPlacementFailed:
		return "placement-failed"
	case EventReplicaRestored:
		return "replica-restored"
	case EventRecovered:
		return "recovered"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event records one recovery decision or observation.
type Event struct {
	Time      time.Time
	Kind      EventKind
	Group     ids.ObjectGroupID
	Processor ids.ProcessorID // placement target, when applicable
	Detail    string
}

// GroupHealth is one group's degree accounting in a Health snapshot.
type GroupHealth struct {
	Group      ids.ObjectGroupID
	Degree     int  // configured replication degree (high-water if unmanaged)
	Live       int  // replicas currently in the directory
	Managed    bool // registered for automatic recovery
	Degraded   bool // Live < Degree
	Critical   bool // Live < ⌈(Degree+1)/2⌉
	Recovering bool // a placement is in flight
	Recoveries uint64
}

// Health is a snapshot of the recovery manager's view of the system.
type Health struct {
	Members []ids.ProcessorID // installed processor membership
	Groups  []GroupHealth     // sorted by group id
	Events  []Event           // most recent first
}

// Recovery timing: a failed placement's retry backs off exponentially
// (jittered, capped) and its target cools down for the group; a placement
// not active by its deadline is evicted and retried elsewhere.
const (
	backoffBase       = 50 * time.Millisecond
	maxBackoff        = 2 * time.Second
	activationTimeout = 2 * time.Second
	cooldown          = time.Second
)

// Config parameterizes a Manager.
type Config struct {
	Cluster Cluster
	// Jitter randomizes retry backoff. Injecting a seeded source keeps
	// retry schedules reproducible from the system seed; nil means no
	// jitter (fully deterministic half-backoff).
	Jitter *sec.SeededRand
	// Metrics are optional observability hooks; the zero value disables
	// them.
	Metrics Metrics
}

// eventCap bounds the retained event history.
const eventCap = 256

// groupState is the Manager's bookkeeping for one registered group.
type groupState struct {
	degree     int
	degraded   bool // edge-triggered: event emitted on transition
	critical   bool
	recoveries uint64

	inflight *inflight
	failures int // consecutive placement failures (backoff exponent)
	nextTry  time.Time
	cooldown map[ids.ProcessorID]time.Time
}

// inflight is one placement awaiting activation.
type inflight struct {
	target   ids.ProcessorID
	pl       Placement
	deadline time.Time
}

// Manager drives automatic replica reallocation for registered groups.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	specs  map[ids.ObjectGroupID]*groupState
	events []Event // ring, newest last

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	started  bool
	stopping bool
}

// New creates a Manager (not yet running).
func New(cfg Config) (*Manager, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("recovery: cluster required")
	}
	return &Manager{
		cfg:   cfg,
		specs: make(map[ids.ObjectGroupID]*groupState),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Register places a group under automatic recovery with the given
// configured replication degree, or changes the degree of a registered
// one. The registered degree is the group's only record of it.
func (m *Manager) Register(g ids.ObjectGroupID, degree int) error {
	if degree <= 0 {
		return fmt.Errorf("recovery: degree %d for %s", degree, g)
	}
	defer m.Kick() // the degree is an input of the next pass
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.specs[g]; ok {
		st.degree = degree
		return nil
	}
	m.specs[g] = &groupState{
		degree:   degree,
		cooldown: make(map[ids.ProcessorID]time.Time),
	}
	return nil
}

// Degree returns g's registered replication degree (0 if unregistered).
func (m *Manager) Degree(g ids.ObjectGroupID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.specs[g]; ok {
		return st.degree
	}
	return 0
}

// Deregister removes a group from automatic recovery (used to roll back a
// hosting attempt that failed partway). Unknown groups are a no-op.
func (m *Manager) Deregister(g ids.ObjectGroupID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.specs[g]; ok {
		// Keep the health gauges consistent: a deregistered group is no
		// longer anyone's degradation.
		if st.degraded {
			m.cfg.Metrics.DegradedGroups.Add(-1)
		}
		if st.critical {
			m.cfg.Metrics.CriticalGroups.Add(-1)
		}
	}
	delete(m.specs, g)
}

// Start launches the reconciliation loop. Starting twice, or after Stop,
// is a no-op.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.stopping {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	go m.loop()
}

// Stop terminates the loop and waits for it to exit. Safe to call
// concurrently and repeatedly.
func (m *Manager) Stop() {
	m.mu.Lock()
	if !m.stopping {
		m.stopping = true
		close(m.stop)
	}
	started := m.started
	m.mu.Unlock()
	if started {
		<-m.done
	}
}

// Kick requests a reconciliation pass; the owner calls it whenever an
// input of the pass changes. The loop has no tick.
func (m *Manager) Kick() {
	select {
	case m.kick <- struct{}{}:
	default:
	}
}

// loop runs a pass, then sleeps until the deadline the pass returned (its
// timer kicks), a Kick, or Stop. A timer that fires late only adds a pass.
func (m *Manager) loop() {
	defer close(m.done)
	for {
		var wake *time.Timer
		if next := m.reconcile(time.Now()); !next.IsZero() {
			wake = time.AfterFunc(time.Until(next), m.Kick)
		}
		select {
		case <-m.stop:
			return
		case <-m.kick:
		}
		if wake != nil {
			wake.Stop()
		}
	}
}

// reconcile runs one pass at time now: settle in-flight placements,
// re-evaluate every registered group's degree, and start at most one new
// placement per degraded group. It returns the earliest activation
// deadline, retry time or cooldown expiry that holds a group back: zero
// if only an event can create work.
func (m *Manager) reconcile(now time.Time) time.Time {
	view := m.cfg.Cluster.View()
	m.mu.Lock()
	defer m.mu.Unlock()
	groups := make([]ids.ObjectGroupID, 0, len(m.specs))
	for g := range m.specs {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })

	var next time.Time
	for _, g := range groups {
		t := m.reconcileGroupLocked(now, g, m.specs[g], view)
		if !t.IsZero() && (next.IsZero() || t.Before(next)) {
			next = t
		}
	}
	return next
}

// reconcileGroupLocked is one group's share of a pass; it returns the
// group's own deadline, or zero.
func (m *Manager) reconcileGroupLocked(now time.Time, g ids.ObjectGroupID, st *groupState, view []ids.ProcessorID) time.Time {
	hosts, hw := m.cfg.Cluster.Group(g)
	hosted := make(map[ids.ProcessorID]bool, len(hosts))
	for _, p := range hosts {
		hosted[p] = true
	}
	m.settleInflightLocked(now, g, st, view, hosted)
	m.updateFlagsLocked(now, g, st, len(hosts))

	switch {
	case st.inflight != nil:
		return st.inflight.deadline
	case len(hosts) >= st.degree:
		return time.Time{}
	case now.Before(st.nextTry):
		return st.nextTry
	case hw < st.degree:
		// The group has never reached its configured degree: it is
		// still bootstrapping (initial joins in flight), not degraded.
		// Recovery restores lost replicas; it does not bootstrap.
		return time.Time{}
	}
	target, pl, coolUntil, err := m.placeLocked(now, g, st, view, hosted)
	switch {
	case target == 0: // a cooldown's end, or an event, brings a candidate
		return coolUntil
	case err != nil:
		m.failureLocked(now, g, st, target, fmt.Sprintf("host: %v", err))
		return st.nextTry
	}
	st.inflight = &inflight{target: target, pl: pl, deadline: now.Add(activationTimeout)}
	m.cfg.Metrics.PlacementsStarted.Inc()
	m.eventLocked(Event{
		Time: now, Kind: EventPlacementStarted, Group: g, Processor: target,
		Detail: fmt.Sprintf("%d/%d live", len(hosts), st.degree),
	})
	return st.inflight.deadline
}

// Place adds one replica of the registered group g by recovery's own
// placement step, for a resize's growth or a drain's replacement; the
// caller awaits its activation. An in-flight recovery's target is skipped.
func (m *Manager) Place(g ids.ObjectGroupID) (ids.ProcessorID, Placement, error) {
	view := m.cfg.Cluster.View()
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.specs[g]
	if !ok {
		return 0, nil, fmt.Errorf("recovery: group %s not registered", g)
	}
	hosted := make(map[ids.ProcessorID]bool)
	hosts, _ := m.cfg.Cluster.Group(g)
	for _, p := range hosts {
		hosted[p] = true
	}
	if st.inflight != nil {
		hosted[st.inflight.target] = true
	}
	target, pl, _, err := m.placeLocked(time.Now(), g, st, view, hosted)
	if target == 0 {
		return 0, nil, fmt.Errorf("recovery: no placement target for %s", g)
	}
	return target, pl, err
}

// placeLocked is the one placement step. It picks the target by the §3.1
// policy — a ready member of the view not already hosting the group (one
// replica per processor per group) and not cooling down, the least-loaded
// first, identifier order breaking ties — and re-hosts a replica of g
// there. With no target it returns 0 and the earliest cooldown expiry
// among the skipped candidates.
func (m *Manager) placeLocked(now time.Time, g ids.ObjectGroupID, st *groupState,
	view []ids.ProcessorID, hosted map[ids.ProcessorID]bool) (ids.ProcessorID, Placement, time.Time, error) {
	var best ids.ProcessorID
	var coolUntil time.Time
	bestLoad := 0
	for _, p := range view {
		if hosted[p] {
			continue
		}
		if until, cooling := st.cooldown[p]; cooling {
			if now.Before(until) {
				if coolUntil.IsZero() || until.Before(coolUntil) {
					coolUntil = until
				}
				continue
			}
			delete(st.cooldown, p)
		}
		if !m.cfg.Cluster.Ready(p) {
			continue
		}
		if load := m.cfg.Cluster.Load(p); best == 0 || load < bestLoad || (load == bestLoad && p < best) {
			best, bestLoad = p, load
		}
	}
	if best == 0 {
		return 0, nil, coolUntil, nil
	}
	pl, err := m.cfg.Cluster.Place(best, g)
	return best, pl, time.Time{}, err
}

// settleInflightLocked resolves a group's in-flight placement: success on
// activation, failure on target exclusion or activation timeout.
func (m *Manager) settleInflightLocked(now time.Time, g ids.ObjectGroupID, st *groupState,
	view []ids.ProcessorID, hosted map[ids.ProcessorID]bool) {
	fl := st.inflight
	if fl == nil {
		return
	}
	switch {
	case fl.pl.Active():
		st.inflight = nil
		st.failures = 0
		st.nextTry = time.Time{}
		st.recoveries++
		m.cfg.Metrics.Rehostings.Inc()
		m.eventLocked(Event{Time: now, Kind: EventReplicaRestored, Group: g, Processor: fl.target})
	case !slices.Contains(view, fl.target):
		// The chosen processor was excluded mid-transfer; its replica is
		// already gone from the directory. Retry elsewhere.
		st.inflight = nil
		m.failureLocked(now, g, st, fl.target, "target excluded mid-transfer")
	case now.After(fl.deadline):
		// The placement never activated (e.g. its state transfer wedged).
		// Evict the zombie so a retry can re-place on this processor later.
		st.inflight = nil
		if hosted[fl.target] {
			_ = m.cfg.Cluster.Evict(g, fl.target)
		}
		m.failureLocked(now, g, st, fl.target, "activation timeout")
	}
}

// failureLocked records a failed placement: event, cooldown for the
// target, and capped exponential backoff (jittered) before the retry.
func (m *Manager) failureLocked(now time.Time, g ids.ObjectGroupID, st *groupState,
	target ids.ProcessorID, detail string) {
	st.cooldown[target] = now.Add(cooldown)
	backoff := sec.JitteredBackoff(backoffBase, st.failures, maxBackoff, m.cfg.Jitter)
	st.failures++
	m.cfg.Metrics.PlacementFailures.Inc()
	st.nextTry = now.Add(backoff)
	m.eventLocked(Event{Time: now, Kind: EventPlacementFailed, Group: g, Processor: target, Detail: detail})
}

// updateFlagsLocked maintains the edge-triggered degraded/critical flags
// and their events.
func (m *Manager) updateFlagsLocked(now time.Time, g ids.ObjectGroupID, st *groupState, live int) {
	degraded := live < st.degree
	critical := live < group.Majority(st.degree)
	if critical && !st.critical {
		m.cfg.Metrics.CriticalGroups.Add(1)
		m.eventLocked(Event{
			Time: now, Kind: EventCritical, Group: g,
			Detail: fmt.Sprintf("%d/%d live, majority needs %d", live, st.degree, group.Majority(st.degree)),
		})
	}
	if !critical && st.critical {
		m.cfg.Metrics.CriticalGroups.Add(-1)
	}
	if degraded && !st.degraded {
		m.cfg.Metrics.DegradedGroups.Add(1)
		m.eventLocked(Event{
			Time: now, Kind: EventDegraded, Group: g,
			Detail: fmt.Sprintf("%d/%d live", live, st.degree),
		})
	}
	if !degraded && st.degraded {
		m.cfg.Metrics.DegradedGroups.Add(-1)
		m.eventLocked(Event{
			Time: now, Kind: EventRecovered, Group: g,
			Detail: fmt.Sprintf("%d/%d live", live, st.degree),
		})
	}
	st.degraded, st.critical = degraded, critical
}

// eventLocked appends to the bounded event history. Caller holds m.mu.
func (m *Manager) eventLocked(e Event) {
	m.events = append(m.events, e)
	if len(m.events) > eventCap {
		m.events = m.events[len(m.events)-eventCap:]
	}
}

// Health snapshots the membership, every group's degree accounting
// (registered or merely observed), and the recent event history (newest
// first).
func (m *Manager) Health() Health {
	view := m.cfg.Cluster.View()
	observed := m.cfg.Cluster.Groups()

	m.mu.Lock()
	defer m.mu.Unlock()
	seen := make(map[ids.ObjectGroupID]bool)
	var groups []GroupHealth
	add := func(g ids.ObjectGroupID) {
		if seen[g] {
			return
		}
		seen[g] = true
		hosts, hw := m.cfg.Cluster.Group(g)
		live := len(hosts)
		gh := GroupHealth{Group: g, Live: live, Degree: hw}
		if st, ok := m.specs[g]; ok {
			gh.Managed = true
			gh.Degree = st.degree
			gh.Recovering = st.inflight != nil
			gh.Recoveries = st.recoveries
		}
		gh.Degraded = live < gh.Degree
		gh.Critical = live < group.Majority(gh.Degree)
		groups = append(groups, gh)
	}
	for g := range m.specs {
		add(g)
	}
	for _, g := range observed {
		add(g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].Group < groups[j].Group })

	events := make([]Event, len(m.events))
	for i, e := range m.events {
		events[len(events)-1-i] = e
	}
	return Health{
		Members: append([]ids.ProcessorID(nil), view...),
		Groups:  groups,
		Events:  events,
	}
}
