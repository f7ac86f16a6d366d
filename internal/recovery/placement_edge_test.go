package recovery

import (
	"testing"

	"immune/internal/ids"
)

// Placement edge cases: candidate exhaustion, deterministic tie-breaking,
// and view installs racing an in-flight state transfer.

// TestAllCandidatesHosting: every member of the view already hosts a
// replica (one replica per processor per group, §3.1). Recovery must not
// double-place, must not panic on an empty candidate set, and must not
// burn a backoff/failure on the non-choice — the group simply waits for
// the membership to grow.
func TestAllCandidatesHosting(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2, 3}},
		hw:    map[ids.ObjectGroupID]int{testG: 4},
	}
	m := newTestManager(t, c, 4)
	for i := 0; i < 3; i++ {
		m.reconcile(t0)
	}
	if len(c.placements) != 0 {
		t.Fatalf("placed on %v with every member already hosting", c.placements)
	}
	if hasKind(m.Health().Events, EventPlacementFailed) {
		t.Fatal("an empty candidate set was recorded as a placement failure")
	}
	// A processor joins: the very next pass must use it (no leftover
	// backoff from the candidate-less passes).
	c.view = append(c.view, 9)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 9 {
		t.Fatalf("placements = %v, want [9] after the view grew", c.placements)
	}
}

// TestTieBreakEqualLoads: among equally loaded candidates the lowest
// processor identifier wins, so every manager replica computes the same
// placement from the same directory.
func TestTieBreakEqualLoads(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{5, 4, 3, 1}, // deliberately unsorted
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1}},
		hw:    map[ids.ObjectGroupID]int{testG: 2},
		load:  map[ids.ProcessorID]int{3: 2, 4: 2, 5: 2},
	}
	m := newTestManager(t, c, 2)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 3 {
		t.Fatalf("placements = %v, want [3] (lowest id among equal loads)", c.placements)
	}
}

// TestTieBreakPrefersLowerLoadOverLowerID: load dominates the identifier
// tie-break.
func TestTieBreakPrefersLowerLoadOverLowerID(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3, 4},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1}},
		hw:    map[ids.ObjectGroupID]int{testG: 2},
		load:  map[ids.ProcessorID]int{2: 3, 3: 3, 4: 1},
	}
	m := newTestManager(t, c, 2)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 4 {
		t.Fatalf("placements = %v, want [4] (least loaded)", c.placements)
	}
}

// TestViewInstallExcludesInflightTarget: a membership install removes the
// placement target while its state transfer is still running. The manager
// must fail the placement, cool the (gone) target down, and re-place onto
// a member of the NEW view once the backoff elapses — never onto the
// excluded processor.
func TestViewInstallExcludesInflightTarget(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3, 4},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1, 2}},
		hw:    map[ids.ObjectGroupID]int{testG: 3},
		load:  map[ids.ProcessorID]int{3: 0, 4: 5},
	}
	m := newTestManager(t, c, 3)
	m.reconcile(t0)
	if len(c.placements) != 1 || c.placements[0] != 3 {
		t.Fatalf("placements = %v, want [3]", c.placements)
	}

	// Concurrent view install: 3 is excluded mid-transfer; its replica
	// vanishes from the directory with it.
	c.view = []ids.ProcessorID{1, 2, 4, 5}
	c.hosts[testG] = []ids.ProcessorID{1, 2}
	m.reconcile(t0)
	if !hasKind(m.Health().Events, EventPlacementFailed) {
		t.Fatal("exclusion of the in-flight target not recorded as a failure")
	}

	// After the (capped) backoff the retry must pick from the new view.
	m.reconcile(t0.Add(maxBackoff))
	if len(c.placements) < 2 {
		t.Fatal("no retry after target exclusion")
	}
	if got := c.placements[1]; got == 3 {
		t.Fatal("retried onto the excluded processor")
	} else if got != 5 {
		t.Fatalf("retry placed on %v, want 5 (least loaded in new view)", got)
	}
	// Activation completes on the new target: the group recovers.
	c.lastPl.active = true
	m.reconcile(t0.Add(maxBackoff))
	if !hasKind(m.Health().Events, EventReplicaRestored) {
		t.Fatal("restored replica not recorded")
	}
}

// TestInflightSurvivesBenignViewInstall: a view install that KEEPS the
// placement target must not disturb the in-flight transfer — no failure,
// no duplicate placement, and activation still lands.
func TestInflightSurvivesBenignViewInstall(t *testing.T) {
	c := &fakeCluster{
		view:  []ids.ProcessorID{1, 2, 3},
		hosts: map[ids.ObjectGroupID][]ids.ProcessorID{testG: {1}},
		hw:    map[ids.ObjectGroupID]int{testG: 2},
	}
	m := newTestManager(t, c, 2)
	m.reconcile(t0)
	if len(c.placements) != 1 {
		t.Fatalf("placements = %v, want one", c.placements)
	}
	target := c.placements[0]

	// Install a new view (another processor joins); the target stays.
	c.view = []ids.ProcessorID{1, 2, 3, 8}
	m.reconcile(t0)
	if len(c.placements) != 1 {
		t.Fatalf("benign view install triggered extra placement: %v", c.placements)
	}
	if hasKind(m.Health().Events, EventPlacementFailed) {
		t.Fatal("benign view install recorded as placement failure")
	}
	c.lastPl.active = true
	m.reconcile(t0)
	h := m.Health()
	if !hasKind(h.Events, EventReplicaRestored) {
		t.Fatal("transfer did not complete after benign view install")
	}
	if h.Groups[0].Recovering {
		t.Fatalf("group still recovering after activation on %v", target)
	}
}
