package replication

import (
	"sync"
	"testing"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
)

// snapshotlessStack is a busStack whose state snapshots never reach the
// bus: its processor is a designated state provider that never delivers.
type snapshotlessStack struct{ busStack }

func (s *snapshotlessStack) Submit(p []byte) error {
	if msg, err := group.Unmarshal(p); err == nil && msg.Kind == group.KindState {
		return nil
	}
	return s.busStack.Submit(p)
}

// TestProviderDepartureCompletesTransfer: a joiner has two providers; one
// delivers its snapshot, the other's processor is excluded before
// delivering. The exclusion lowers the threshold to the one matching
// snapshot already in hand, so the joiner activates at the exclusion with
// the delivered state instead of waiting for a snapshot that cannot come.
func TestProviderDepartureCompletesTransfer(t *testing.T) {
	b := newBus()
	stacks := []Multicaster{
		&busStack{b: b, self: 1},
		&snapshotlessStack{busStack{b: b, self: 2}},
		&busStack{b: b, self: 3},
	}
	var managers []*Manager
	for _, st := range stacks {
		m, err := NewManager(Config{Stack: st, Processors: 3, CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		b.attach(m)
		managers = append(managers, m)
	}
	go b.run()
	t.Cleanup(b.stop)

	// P1 joins first (no state to transfer); P2 takes P1's snapshot.
	for _, m := range managers[:2] {
		h, err := m.HostReplica(serverG, "echo-server", &echoServant{state: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	sv3 := &echoServant{}
	h3, err := managers[2].HostReplica(serverG, "echo-server", sv3)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if h3.Active() {
		t.Fatal("joiner activated on one of two providers' snapshots")
	}

	// P2 is excluded: the survivors apply the install.
	for _, m := range []*Manager{managers[0], managers[2]} {
		m.OnMembershipInstall(0, []ids.ProcessorID{1, 3}, false)
	}
	if err := h3.WaitActive(5 * time.Second); err != nil {
		t.Fatalf("joiner still waiting after its silent provider departed: %v", err)
	}
	if sv3.state != 7 {
		t.Fatalf("joiner restored %d, want the delivered 7", sv3.state)
	}
	if n := managers[0].ActiveCount(serverG); n != 2 {
		t.Fatalf("P1 counts %d active replicas, want 2 (P1, P3)", n)
	}
}

// heldStateStack is a busStack that, while hold is set, keeps its state
// snapshots back until release submits them.
type heldStateStack struct {
	busStack
	mu   sync.Mutex
	hold bool
	held [][]byte
}

func (s *heldStateStack) Submit(p []byte) error {
	s.mu.Lock()
	if msg, err := group.Unmarshal(p); err == nil && msg.Kind == group.KindState && s.hold {
		s.held = append(s.held, append([]byte(nil), p...))
		s.mu.Unlock()
		return nil
	}
	s.mu.Unlock()
	return s.busStack.Submit(p)
}

func (s *heldStateStack) release() {
	s.mu.Lock()
	held := s.held
	s.hold, s.held = false, nil
	s.mu.Unlock()
	for _, p := range held {
		_ = s.busStack.Submit(p)
	}
}

// TestDepartedProviderSnapshotDoesNotDecide: a joiner has two providers.
// The value-faulty one delivers a snapshot that differs from the correct
// one's and is then excluded. Its snapshot stays in the tally, so the
// exclusion must not let it decide; the correct provider's snapshot,
// delivered after the exclusion, does.
func TestDepartedProviderSnapshotDoesNotDecide(t *testing.T) {
	b := newBus()
	p1 := &heldStateStack{busStack: busStack{b: b, self: 1}}
	stacks := []Multicaster{p1, &busStack{b: b, self: 2}, &busStack{b: b, self: 3}}
	var managers []*Manager
	for _, st := range stacks {
		m, err := NewManager(Config{Stack: st, Processors: 3, CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		b.attach(m)
		managers = append(managers, m)
	}
	go b.run()
	t.Cleanup(b.stop)

	// P1 joins first (no state to transfer); P2 takes P1's snapshot.
	sv2 := &echoServant{}
	for i, sv := range []*echoServant{{state: 7}, sv2} {
		h, err := managers[i].HostReplica(serverG, "echo-server", sv)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// P2 turns value-faulty; P1's next snapshot is held back.
	sv2.mu.Lock()
	sv2.state = 666
	sv2.mu.Unlock()
	p1.mu.Lock()
	p1.hold = true
	p1.mu.Unlock()

	sv3 := &echoServant{}
	h3, err := managers[2].HostReplica(serverG, "echo-server", sv3)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if h3.Active() {
		t.Fatal("joiner activated on one of two providers' snapshots")
	}

	// P2 is excluded with its snapshot already in the tally.
	for _, m := range []*Manager{managers[0], managers[2]} {
		m.OnMembershipInstall(0, []ids.ProcessorID{1, 3}, false)
	}
	b.settle(t)
	if h3.Active() {
		t.Fatal("joiner activated on the excluded provider's snapshot")
	}

	p1.release()
	if err := h3.WaitActive(5 * time.Second); err != nil {
		t.Fatalf("joiner not activated by the correct provider's snapshot: %v", err)
	}
	sv3.mu.Lock()
	got := sv3.state
	sv3.mu.Unlock()
	if got != 7 {
		t.Fatalf("joiner restored %d, want the correct provider's 7", got)
	}
}
