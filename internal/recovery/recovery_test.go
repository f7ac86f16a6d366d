package recovery

import (
	"errors"
	"sync"
	"testing"
	"time"

	"immune/internal/ids"
)

// fakePlacement lets a test control when the "state transfer" completes.
type fakePlacement struct{ active bool }

func (p *fakePlacement) Active() bool { return p.active }

// fakeCluster is a scriptable Cluster. Most tests drive reconcile(now)
// directly with synthetic times; the loop tests run the Manager's own
// goroutine, so every method takes mu and, when the optional channels are
// set, reports each pass (one View call) and each placement.
type fakeCluster struct {
	mu       sync.Mutex
	view     []ids.ProcessorID
	hosts    map[ids.ObjectGroupID][]ids.ProcessorID
	hw       map[ids.ObjectGroupID]int
	load     map[ids.ProcessorID]int
	notReady map[ids.ProcessorID]bool

	failPlaces int               // the first failPlaces Place calls fail
	placements []ids.ProcessorID // targets, in order
	lastPl     *fakePlacement
	evictions  []ids.ProcessorID

	passes chan struct{}        // if set, signalled (never blocking) per View call
	placed chan ids.ProcessorID // if set, receives each placement's target
}

// alwaysFail, as failPlaces, refuses every placement a test can reach.
const alwaysFail = 1 << 30

func (c *fakeCluster) View() []ids.ProcessorID {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case c.passes <- struct{}{}:
	default:
	}
	return append([]ids.ProcessorID(nil), c.view...)
}

func (c *fakeCluster) Groups() []ids.ObjectGroupID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ids.ObjectGroupID, 0, len(c.hosts))
	for g := range c.hosts {
		out = append(out, g)
	}
	return out
}

func (c *fakeCluster) Group(g ids.ObjectGroupID) ([]ids.ProcessorID, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ids.ProcessorID(nil), c.hosts[g]...), c.hw[g]
}

func (c *fakeCluster) Load(p ids.ProcessorID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.load[p]
}

func (c *fakeCluster) Ready(p ids.ProcessorID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.notReady[p]
}

func (c *fakeCluster) Place(p ids.ProcessorID, g ids.ObjectGroupID) (Placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failPlaces > 0 {
		c.failPlaces--
		return nil, errors.New("host refused")
	}
	c.placements = append(c.placements, p)
	c.hosts[g] = append(c.hosts[g], p)
	c.lastPl = &fakePlacement{}
	if c.placed != nil {
		c.placed <- p
	}
	return c.lastPl, nil
}

func (c *fakeCluster) Evict(g ids.ObjectGroupID, p ids.ProcessorID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions = append(c.evictions, p)
	kept := c.hosts[g][:0]
	for _, h := range c.hosts[g] {
		if h != p {
			kept = append(kept, h)
		}
	}
	c.hosts[g] = kept
	return nil
}

const testG = ids.ObjectGroupID(7)

// t0 is the synthetic time of a test's first reconcile pass.
var t0 = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func newTestManager(t *testing.T, c Cluster, degree int) *Manager {
	t.Helper()
	m, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(testG, degree); err != nil {
		t.Fatal(err)
	}
	return m
}

func kinds(events []Event) []EventKind {
	out := make([]EventKind, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

func hasKind(events []Event, k EventKind) bool {
	for _, e := range events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

func TestBootstrapGateSuppressesPlacement(t *testing.T) {
	// Two of three configured replicas have joined but the group never
	// reached full degree: it is bootstrapping, not degraded. Recovery
	// must not race the initial joins with a duplicate placement.
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3, 4},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:    map[ids.ObjectGroupID]int{testG: 2},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	if len(c.placements) != 0 {
		t.Fatalf("placed on %v during bootstrap", c.placements)
	}
}

func TestDegradedGroupPlacedOnLeastLoaded(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3, 4},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
		load:  map[ids.ProcessorID]int{3: 5, 4: 1},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 4 {
		t.Fatalf("placements = %v, want [4]", c.placements)
	}
	// The fake's directory already lists the placed (inactive) replica,
	// so Live is back to 3; Recovering still reports the transfer.
	h := m.Health()
	if len(h.Groups) != 1 || !h.Groups[0].Recovering {
		t.Fatalf("health = %+v", h.Groups)
	}
	if !hasKind(h.Events, EventDegraded) || !hasKind(h.Events, EventPlacementStarted) {
		t.Fatalf("events = %v", kinds(h.Events))
	}

	// One placement at a time: another pass starts nothing new.
	m.reconcile(t0)
	if len(c.placements) != 1 {
		t.Fatalf("second placement started while one in flight: %v", c.placements)
	}

	// Activation completes the recovery and clears the flags.
	c.lastPl.active = true
	m.reconcile(t0)
	h = m.Health()
	g := h.Groups[0]
	if g.Degraded || g.Recovering || g.Recoveries != 1 {
		t.Fatalf("after activation: %+v", g)
	}
	if !hasKind(h.Events, EventReplicaRestored) || !hasKind(h.Events, EventRecovered) {
		t.Fatalf("events = %v", kinds(h.Events))
	}
}

func TestCriticalDegradation(t *testing.T) {
	// 1 of 3 live: below ⌈(3+1)/2⌉ = 2, the §3.1 hard alarm. The view
	// offers no replacement candidate, so the flag persists.
	c := &fakeCluster{
		view:  []ids.ProcessorID{1},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	h := m.Health()
	if !h.Groups[0].Critical {
		t.Fatalf("not critical: %+v", h.Groups[0])
	}
	if !hasKind(h.Events, EventCritical) {
		t.Fatalf("events = %v", kinds(h.Events))
	}
}

func TestTargetExcludedMidTransferRetriesElsewhere(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3, 4},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
		load:  map[ids.ProcessorID]int{3: 0, 4: 1},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 3 {
		t.Fatalf("placements = %v, want [3]", c.placements)
	}

	// P3 is excluded while the transfer is in flight.
	c.view = []ids.ProcessorID{1, 2, 4}
	c.hosts[testG] = []ids.ProcessorID{1, 2}
	m.reconcile(t0)
	if !hasKind(m.Health().Events, EventPlacementFailed) {
		t.Fatalf("events = %v", kinds(m.Health().Events))
	}

	// Once the (capped) backoff has passed, the retry lands on the
	// remaining candidate, P4.
	m.reconcile(t0.Add(maxBackoff))
	if len(c.placements) != 2 || c.placements[1] != 4 {
		t.Fatalf("placements = %v, want [3 4]", c.placements)
	}
}

func TestActivationTimeoutEvictsZombie(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	if len(c.placements) != 1 {
		t.Fatalf("placements = %v", c.placements)
	}
	// The placement never activates; past the activation deadline it is
	// evicted so the slot can be retried.
	m.reconcile(t0.Add(activationTimeout + time.Millisecond))
	if len(c.evictions) != 1 || c.evictions[0] != 3 {
		t.Fatalf("evictions = %v, want [3]", c.evictions)
	}
	if !hasKind(m.Health().Events, EventPlacementFailed) {
		t.Fatalf("events = %v", kinds(m.Health().Events))
	}
}

func TestPlaceErrorBacksOff(t *testing.T) {
	c := &fakeCluster{
		view:       []ids.ProcessorID{1, 2, 3},
		hosts:      map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:         map[ids.ObjectGroupID]int{testG: 3},
		failPlaces: alwaysFail,
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	st := m.specs[testG]
	if st.failures != 1 || !t0.Before(st.nextTry) {
		t.Fatalf("failures=%d nextTry=%v", st.failures, st.nextTry)
	}
	// Reconciling again inside the window does nothing: the retry waits
	// out the backoff.
	m.reconcile(t0)
	if st.failures != 1 {
		t.Fatalf("retried inside backoff window (failures=%d)", st.failures)
	}
}

func TestNotReadyProcessorsSkipped(t *testing.T) {
	c := &fakeCluster{
		view:     []ids.ProcessorID{1, 2, 3, 4},
		hosts:    map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:       map[ids.ObjectGroupID]int{testG: 3},
		load:     map[ids.ProcessorID]int{3: 0, 4: 1},
		notReady: map[ids.ProcessorID]bool{3: true},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 4 {
		t.Fatalf("placements = %v, want [4]", c.placements)
	}
}

// TestPlaceFollowsRecoveryPolicy: a deliberate placement (resize growth,
// drain replacement) takes the recovery step's policy — a processor
// outside the view or cooling down is no target, however idle — and is
// not tracked as a recovery.
func TestPlaceFollowsRecoveryPolicy(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3, 4, 5},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2, 3}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
		load:  map[ids.ProcessorID]int{4: 0, 5: 2, 6: 0},
	}
	m := newTestManager(t, c, 3)
	m.specs[testG].cooldown[4] = time.Now().Add(time.Hour)
	target, pl, err := m.Place(testG)
	if err != nil {
		t.Fatal(err)
	}
	if target != 5 || pl == nil {
		t.Fatalf("placed on %v, want 5 (6 is outside the view, 4 cooling down)", target)
	}
	if gh := m.Health().Groups[0]; gh.Recovering || gh.Recoveries != 0 {
		t.Fatalf("a deliberate placement was tracked as a recovery: %+v", gh)
	}
	if _, _, err := m.Place(testG); err == nil {
		t.Fatalf("second placement with only a cooling candidate left: %v", err)
	}
}

// TestReconcileDeadline: a pass returns when the next one is due without
// a Kick.
func TestReconcileDeadline(t *testing.T) {
	cases := []struct {
		name  string
		setup func(c *fakeCluster, st *groupState)
		want  func(st *groupState) time.Time
	}{{
		name:  "no work",
		setup: func(c *fakeCluster, _ *groupState) { c.hosts[testG] = []ids.ProcessorID{1, 2, 3} },
		want:  func(*groupState) time.Time { return time.Time{} },
	}, {
		name:  "in-flight placement",
		setup: func(*fakeCluster, *groupState) {},
		want:  func(*groupState) time.Time { return t0.Add(activationTimeout) },
	}, {
		name:  "failed placement",
		setup: func(c *fakeCluster, _ *groupState) { c.failPlaces = alwaysFail },
		want: func(st *groupState) time.Time {
			if !st.nextTry.After(t0) {
				return time.Time{} // no retry scheduled: fail the comparison
			}
			return st.nextTry
		},
	}, {
		name: "every candidate cooling down",
		setup: func(_ *fakeCluster, st *groupState) {
			st.cooldown[3] = t0.Add(300 * time.Millisecond)
			st.cooldown[4] = t0.Add(200 * time.Millisecond)
		},
		want: func(*groupState) time.Time { return t0.Add(200 * time.Millisecond) },
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &fakeCluster{
				view:  []ids.ProcessorID{1, 2, 3, 4},
				hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
				hw:    map[ids.ObjectGroupID]int{testG: 3},
			}
			m := newTestManager(t, c, 3)
			st := m.specs[testG]
			tc.setup(c, st)
			got := m.reconcile(t0)
			if want := tc.want(st); !got.Equal(want) {
				t.Fatalf("next pass due %v, want %v", got, want)
			}
		})
	}
}

// waitPlaced returns the next placement's target, failing the test if
// none comes within a generous bound.
func waitPlaced(t *testing.T, c *fakeCluster) ids.ProcessorID {
	t.Helper()
	select {
	case p := <-c.placed:
		return p
	case <-time.After(10 * time.Second):
		t.Fatal("no placement")
		return 0
	}
}

// TestLoopRunsOnKickWithoutTick: with no deadline pending the loop sleeps
// until kicked — no pass runs on its own — and a Kick runs one.
func TestLoopRunsOnKickWithoutTick(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2}, // every member already hosts
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
		// Buffered past any pass count the test reaches, so no pass
		// signal is dropped.
		passes: make(chan struct{}, 64),
		placed: make(chan ids.ProcessorID, 8),
	}
	m := newTestManager(t, c, 3)
	m.Start()
	defer m.Stop()
	// The start pass and the pass for Register's kick find no candidate
	// and schedule nothing.
	for i := 0; i < 2; i++ {
		select {
		case <-c.passes:
		case <-time.After(10 * time.Second):
			t.Fatalf("pass %d never ran", i+1)
		}
	}
	select {
	case <-c.passes:
		t.Fatal("a pass ran with no kick and no deadline")
	case <-time.After(100 * time.Millisecond):
	}

	// A processor joins; its membership install kicks the manager.
	c.mu.Lock()
	c.view = append(c.view, 3)
	c.mu.Unlock()
	m.Kick()
	if p := waitPlaced(t, c); p != 3 {
		t.Fatalf("placed on %v, want 3", p)
	}
}

// TestLoopRetriesAtNextTry: a failed placement is retried when its
// backoff ends, with no kick in between.
func TestLoopRetriesAtNextTry(t *testing.T) {
	c := &fakeCluster{
		view:       []ids.ProcessorID{1, 2, 3, 4},
		hosts:      map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:         map[ids.ObjectGroupID]int{testG: 3},
		failPlaces: 1,
		placed:     make(chan ids.ProcessorID, 8),
	}
	m := newTestManager(t, c, 3)
	m.Start()
	defer m.Stop()
	// P3 refuses the first placement and cools down; the retry, due at
	// the end of the backoff, takes P4.
	if p := waitPlaced(t, c); p != 4 {
		t.Fatalf("retry placed on %v, want 4", p)
	}
	if !hasKind(m.Health().Events, EventPlacementFailed) {
		t.Fatalf("events = %v", kinds(m.Health().Events))
	}
}

func TestHealthReportsUnmanagedGroups(t *testing.T) {
	other := ids.ObjectGroupID(9)
	c := &fakeCluster{
		view: []ids.ProcessorID{1, 2, 3},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{
			testG: {1, 2, 3},
			other: {1, 2},
		},
		hw: map[ids.ObjectGroupID]int{testG: 3, other: 3},
	}
	m := newTestManager(t, c, 3)
	h := m.Health()
	if len(h.Groups) != 2 {
		t.Fatalf("groups = %+v", h.Groups)
	}
	var unmanaged GroupHealth
	for _, g := range h.Groups {
		if g.Group == other {
			unmanaged = g
		}
	}
	if unmanaged.Managed || unmanaged.Degree != 3 || !unmanaged.Degraded {
		t.Fatalf("unmanaged group health = %+v", unmanaged)
	}
}

func TestStartStopIdempotent(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{},
		hw:    map[ids.ObjectGroupID]int{},
	}
	m, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Start()
	m.Kick()
	m.Stop()
	m.Stop()
	m.Start() // after Stop: must not revive the loop
}

func TestStopConcurrent(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{},
		hw:    map[ids.ObjectGroupID]int{},
	}
	m, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Stop()
		}()
	}
	wg.Wait()
}

func TestDeregister(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
	}
	m, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(testG, 3); err != nil {
		t.Fatal(err)
	}
	m.Deregister(testG)
	m.reconcile(t0)
	if len(c.placements) != 0 {
		t.Fatalf("deregistered group still placed: %v", c.placements)
	}
	for _, gh := range m.Health().Groups {
		if gh.Group == testG && gh.Managed {
			t.Fatalf("deregistered group still managed: %+v", gh)
		}
	}
}
