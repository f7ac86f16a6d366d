package replication

import (
	"errors"
	"testing"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/obs"
)

// backlogRig builds one manager whose server replica is wedged mid state
// transfer: a remote server replica (P1) is the designated provider and
// never sends its snapshot, so every decided invocation lands in the
// local replica's backlog. The returned marker is the join marker P1
// must answer to release the transfer.
func backlogRig(t *testing.T, cfg Config) (*bus, *Manager, *echoServant, *Handle, uint64) {
	t.Helper()
	b := newBus()
	cfg.Stack = &busStack{b: b, self: 2}
	cfg.Processors = 2
	cfg.CallTimeout = 5 * time.Second
	cfg.Metrics = MetricsFrom(obs.NewRegistry())
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.attach(m)
	go b.run()
	t.Cleanup(b.stop)

	remote := &busStack{b: b, self: 1}
	submit := func(msg *group.Message) {
		t.Helper()
		if err := remote.Submit(msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	// P1's server replica joins first (becomes the state provider), and
	// P1's degree-1 client replica joins (its single copy decides votes).
	submit(&group.Message{Kind: group.KindJoin, Dest: ids.BaseGroup,
		Member: ids.ReplicaID{Group: serverG, Processor: 1}, Target: serverG, Payload: []byte{1}})
	submit(&group.Message{Kind: group.KindJoin, Dest: ids.BaseGroup,
		Member: ids.ReplicaID{Group: clientG, Processor: 1}, Target: clientG, Payload: []byte{0}})
	b.settle(t)

	sv := &echoServant{}
	h, err := m.HostReplica(serverG, "echo-server", sv)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if h.Active() {
		t.Fatal("replica active without state transfer")
	}
	return b, m, sv, h, 2 // P2's join is the group's second → marker 2
}

// sendInvocations multicasts n decided invocations from P1's client
// replica at the wedged server group.
func sendInvocations(t *testing.T, b *bus, startSeq uint64, n int) {
	t.Helper()
	remote := &busStack{b: b, self: 1}
	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("x")}
	raw := req.Marshal()
	for i := 0; i < n; i++ {
		msg := &group.Message{Kind: group.KindInvocation, Dest: serverG,
			Op:      ids.OperationID{ClientGroup: clientG, Seq: startSeq + uint64(i)},
			Sender:  ids.ReplicaID{Group: clientG, Processor: 1},
			Payload: raw,
		}
		if err := remote.Submit(msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	b.settle(t)
}

// releaseTransfer delivers P1's snapshot, completing the state transfer
// and replaying whatever backlog survived the bounds.
func releaseTransfer(t *testing.T, b *bus, marker uint64) {
	t.Helper()
	e := iiop.NewEncoder()
	e.WriteLongLong(0)
	msg := &group.Message{Kind: group.KindState, Dest: serverG, Target: serverG,
		Op:      ids.OperationID{Seq: marker},
		Sender:  ids.ReplicaID{Group: serverG, Processor: 1},
		Payload: encodeStatePayload(e.Bytes(), &opStore{}),
	}
	if err := (&busStack{b: b, self: 1}).Submit(msg.Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
}

// TestBacklogCapShedsOldest: the voted-invocation backlog of a replica
// stuck in state transfer is capped; the oldest entries are shed and the
// survivors replay on activation.
func TestBacklogCapShedsOldest(t *testing.T) {
	b, m, sv, h, marker := backlogRig(t, Config{MaxBacklog: 4, BacklogTTL: -1})
	sendInvocations(t, b, 1, 10)
	if shed := m.met.BacklogShed.Load(); shed != 6 {
		t.Fatalf("BacklogShed = %d, want 6", shed)
	}
	releaseTransfer(t, b, marker)
	if err := h.WaitActive(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sv.executions(); got != 4 {
		t.Fatalf("replayed %d invocations, want 4 (cap)", got)
	}
}

// TestBacklogTTLExpiresStaleEntries: entries older than BacklogTTL are
// expired when new traffic arrives, so a wedged group does not retain
// stale ordered traffic indefinitely.
func TestBacklogTTLExpiresStaleEntries(t *testing.T) {
	b, m, sv, h, marker := backlogRig(t, Config{MaxBacklog: 1024, BacklogTTL: 20 * time.Millisecond})
	sendInvocations(t, b, 1, 3)
	time.Sleep(50 * time.Millisecond) // let the first batch age past the TTL
	sendInvocations(t, b, 4, 1)
	if shed := m.met.BacklogShed.Load(); shed != 3 {
		t.Fatalf("BacklogShed = %d, want 3 (TTL)", shed)
	}
	releaseTransfer(t, b, marker)
	if err := h.WaitActive(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sv.executions(); got != 1 {
		t.Fatalf("replayed %d invocations, want 1 (fresh entry only)", got)
	}
}

// TestInFlightCapRejects: past MaxInFlight concurrent two-way
// invocations the client replica sheds new calls with ErrOverloaded, and
// a completed call releases its slot.
func TestInFlightCapRejects(t *testing.T) {
	b := newBus()
	m, err := NewManager(Config{
		Stack:       &busStack{b: b, self: 1},
		Processors:  1,
		CallTimeout: 5 * time.Second,
		MaxInFlight: 2,
		Metrics:     MetricsFrom(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.attach(m)
	go b.run()
	t.Cleanup(b.stop)

	h, err := m.HostReplica(clientG, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if err := h.WaitActive(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("k"), Operation: "echo", Body: []byte("x")}
	raw := req.Marshal()
	var ops []ids.OperationID
	for i := 0; i < 2; i++ {
		op, _, _, err := h.prepare(serverG, raw, true)
		if err != nil {
			t.Fatalf("prepare %d under cap: %v", i, err)
		}
		ops = append(ops, op)
	}
	if _, _, _, err := h.prepare(serverG, raw, true); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("prepare past cap: err = %v, want ErrOverloaded", err)
	}
	if rej := m.met.OverloadRejects.Load(); rej != 1 {
		t.Fatalf("OverloadRejects = %d, want 1", rej)
	}

	// Completing one call frees its slot.
	m.mu.Lock()
	if ch, ok := m.dropWaiterLocked(ops[0]); !ok {
		m.mu.Unlock()
		t.Fatal("waiter missing")
	} else {
		close(ch)
	}
	m.mu.Unlock()
	if _, _, _, err := h.prepare(serverG, raw, true); err != nil {
		t.Fatalf("prepare after release: %v", err)
	}
}
