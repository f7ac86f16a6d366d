package replication

import (
	"testing"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/obs"
)

// TestBehindInstallRebuildsServerReplicas: a processor that installs a
// membership while behind on the old ring's delivered tail (a flush
// barrier expiry) must not keep executing on silently divergent state.
// The manager resyncs its directory from a continuing member's dump and
// re-admits every hosted server replica via KindRejoin, restoring
// majority-voted state — so a replica whose state drifted (here, faked
// by mutating the servant directly) converges back to its peers instead
// of splitting every later response vote three ways.
func TestBehindInstallRebuildsServerReplicas(t *testing.T) {
	b := newBus()
	var managers []*Manager
	for i := 1; i <= 3; i++ {
		m, err := NewManager(Config{
			Stack:      &busStack{b: b, self: ids.ProcessorID(i)},
			Processors: 3, CallTimeout: 5 * time.Second,
			Metrics: MetricsFrom(obs.NewRegistry()),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.attach(m)
		managers = append(managers, m)
	}
	go b.run()
	t.Cleanup(b.stop)

	sv1, sv2 := &echoServant{}, &echoServant{}
	h1, err := managers[0].HostReplica(serverG, "echo-server", sv1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := managers[1].HostReplica(serverG, "echo-server", sv2)
	if err != nil {
		t.Fatal(err)
	}
	client, err := managers[2].HostReplica(clientG, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	for _, h := range []*Handle{h1, h2, client} {
		if err := h.WaitActive(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	add := func(delta int64) []byte {
		e := iiop.NewEncoder()
		e.WriteLongLong(delta)
		req := &iiop.Request{RequestID: 1, ResponseExpected: true,
			ObjectKey: []byte("echo-server"), Operation: "add", Body: e.Bytes()}
		return req.Marshal()
	}
	if _, err := client.Invoke(serverG, add(5)); err != nil {
		t.Fatal(err)
	}
	b.settle(t)

	// P2 silently diverges (stands in for executions lost with the old
	// ring's undelivered tail).
	sv2.mu.Lock()
	sv2.state = 999
	sv2.mu.Unlock()

	// Install 2 lands with P2 behind: P2 first (it buffers until a dump),
	// then the synced members, whose install emits the dump.
	managers[1].OnMembershipInstall(2, []ids.ProcessorID{1, 2, 3}, true)
	managers[0].OnMembershipInstall(2, []ids.ProcessorID{1, 2, 3}, false)
	managers[2].OnMembershipInstall(2, []ids.ProcessorID{1, 2, 3}, false)
	b.settle(t)

	if got := managers[1].met.Desyncs.Load(); got != 1 {
		t.Fatalf("Desyncs = %d, want 1", got)
	}
	if err := h2.WaitActive(5 * time.Second); err != nil {
		t.Fatalf("rejoined replica never reactivated: %v", err)
	}
	sv2.mu.Lock()
	state := sv2.state
	sv2.mu.Unlock()
	if state != 5 {
		t.Fatalf("post-rejoin state = %d, want 5 (restored from provider)", state)
	}

	// The transferred snapshot carries the retained-reply cache too, so
	// the rebuilt replica can still answer retries for pre-desync ops.
	op := ids.OperationID{ClientGroup: clientG, Seq: 1}
	m2 := managers[1]
	m2.mu.Lock()
	st := m2.hosted[serverG]
	var cached bool
	if st != nil {
		_, cached = st.replies.get(op)
	}
	m2.mu.Unlock()
	if !cached {
		t.Fatal("rejoined replica lost the retained-reply cache")
	}

	// And the group votes cleanly again: both replicas execute the next
	// op on converged state, so the response decides without value faults.
	reply, err := client.Invoke(serverG, add(7))
	if err != nil {
		t.Fatalf("post-rejoin invoke: %v", err)
	}
	d := iiop.NewDecoder(decodeReplyBody(t, reply))
	sum, err := d.ReadLongLong()
	if err != nil {
		t.Fatal(err)
	}
	if sum != 12 {
		t.Fatalf("post-rejoin sum = %d, want 12", sum)
	}
	for i, m := range managers {
		if vf := m.met.ValueFaults.Load(); vf != 0 {
			t.Fatalf("manager %d observed %d value faults after rebuild", i+1, vf)
		}
	}
}

// TestRejoinOfPendingJoinsProvider: a rejoin's leave half runs the same
// provider shrink as any departure. Here the rejoiner (P2, a bare
// directory entry with no manager behind it, so it never contributes a
// snapshot) is the only provider of P3's pending join: the rejoin must
// orphan that wait — P3 activates as the group's first replica — and then
// re-admit P2 behind a transfer that P3, now active, provides.
func TestRejoinOfPendingJoinsProvider(t *testing.T) {
	b := newBus()
	var managers []*Manager
	for _, p := range []ids.ProcessorID{1, 3} {
		m, err := NewManager(Config{
			Stack:      &busStack{b: b, self: p},
			Processors: 3, CallTimeout: 5 * time.Second,
			Metrics: MetricsFrom(obs.NewRegistry()),
		})
		if err != nil {
			t.Fatal(err)
		}
		b.attach(m)
		managers = append(managers, m)
	}
	go b.run()
	t.Cleanup(b.stop)

	p2 := ids.ReplicaID{Group: serverG, Processor: 2}
	remote := &busStack{b: b, self: 2}
	announce := func(kind group.Kind) {
		t.Helper()
		msg := &group.Message{Kind: kind, Dest: ids.BaseGroup, Member: p2, Target: serverG, Payload: []byte{1}}
		if err := remote.Submit(msg.Marshal()); err != nil {
			t.Fatal(err)
		}
		b.settle(t)
	}
	announce(group.KindJoin)
	h3, err := managers[1].HostReplica(serverG, "echo-server", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if h3.Active() {
		t.Fatal("P3 activated without a snapshot from its only provider")
	}

	announce(group.KindRejoin)
	if err := h3.WaitActive(5 * time.Second); err != nil {
		t.Fatalf("joiner orphaned by its provider's rejoin never activated: %v", err)
	}
	for i, m := range managers {
		if got := m.ActiveCount(serverG); got != 2 {
			t.Fatalf("manager %d counts %d active server replicas, want 2", i, got)
		}
		m.mu.Lock()
		pending, marker, hw := len(m.pending), m.joinSeq[serverG], m.degreeHW[serverG]
		m.mu.Unlock()
		if pending != 0 || marker != 3 || hw != 2 {
			t.Fatalf("manager %d: %d pending transfers, join marker %d, degree high-water %d; want 0, 3, 2",
				i, pending, marker, hw)
		}
	}
}
