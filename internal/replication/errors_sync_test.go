package replication

import (
	"errors"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/iiop"
)

func encodeDelta(t *testing.T, v int64) []byte {
	t.Helper()
	e := iiop.NewEncoder()
	e.WriteLongLong(v)
	return e.Bytes()
}

func TestErrorSentinelsDistinct(t *testing.T) {
	sentinels := []error{ErrTimeout, ErrNotActive, ErrQuorumLost, ErrGroupDegraded}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel %d vs %d", i, j)
			}
		}
	}
}

func TestTimeoutClassification(t *testing.T) {
	f := newFixture(t, 3)
	m := f.managers[0]
	op := ids.OperationID{ClientGroup: clientG, Seq: 99}

	// Full group: a deadline expiry is a plain timeout.
	if err := m.timeoutError(op, serverG, time.Now()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("healthy group: %v", err)
	}

	// Unknown group: nothing to vote with.
	if err := m.timeoutError(op, ids.ObjectGroupID(99), time.Now()); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("empty group: %v", err)
	}

	// Two of three processors excluded: the one live replica is below
	// ⌈(3+1)/2⌉ = 2 of the group's high-water degree.
	m.OnMembershipInstall(0, []ids.ProcessorID{1}, false)
	if err := m.timeoutError(op, serverG, time.Now()); !errors.Is(err, ErrGroupDegraded) {
		t.Fatalf("degraded group: %v", err)
	}

	// The excluded manager classifies everything as lost quorum.
	ex := f.managers[2]
	ex.OnMembershipInstall(0, []ids.ProcessorID{1, 2}, false)
	if err := ex.timeoutError(op, serverG, time.Now()); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("excluded manager: %v", err)
	}
}

func TestExpiredDeadlineFailsFast(t *testing.T) {
	f := newFixture(t, 3)
	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("x")}
	start := time.Now()
	_, err := f.clients[0].InvokeDeadline(serverG, req.Marshal(), time.Now().Add(-time.Second))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("expired deadline did not fail fast")
	}
}

func TestExclusionFailsInFlightInvocation(t *testing.T) {
	f := newFixture(t, 3)
	// Target a group with no members: the invocation can never decide,
	// so it is still waiting when the exclusion lands.
	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("ghost"), Operation: "echo", Body: []byte("x")}
	errCh := make(chan error, 1)
	go func() {
		_, err := f.clients[0].InvokeDeadline(ids.ObjectGroupID(99), req.Marshal(),
			time.Now().Add(10*time.Second))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	f.managers[0].OnMembershipInstall(0, []ids.ProcessorID{2, 3}, false)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrQuorumLost) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight invocation survived the exclusion")
	}

	// The reset also deactivates the local replicas: new invocations are
	// rejected before multicast.
	if _, err := f.clients[0].Invoke(serverG, req.Marshal()); !errors.Is(err, ErrNotActive) {
		t.Fatalf("post-reset invoke: %v", err)
	}
}

func TestDirectorySyncAfterRejoin(t *testing.T) {
	f := newFixture(t, 3)
	// Build replicated state the rejoiner must not lose: add 5.
	f.invokeAll("add", encodeDelta(t, 5))
	f.b.settle(t)

	// P3 is excluded (install not broadcast: the survivors just drop it,
	// P3 resets).
	for _, m := range f.managers {
		m.OnMembershipInstall(0, []ids.ProcessorID{1, 2}, false)
	}
	f.b.settle(t)
	if f.managers[2].Synced() {
		t.Fatal("excluded manager still synced")
	}

	// P3 is readmitted at install 2. The surviving synced members dump
	// their directory; P3 applies the dump and replays the tail.
	for _, m := range f.managers {
		m.OnMembershipInstall(2, []ids.ProcessorID{1, 2, 3}, false)
	}
	f.b.settle(t)
	if !f.managers[2].Synced() {
		t.Fatal("rejoined manager never synced")
	}
	for i, m := range f.managers {
		if m.Directory().Size(serverG) != 2 || m.Directory().Size(clientG) != 2 {
			t.Fatalf("manager %d sizes: server %d client %d",
				i, m.Directory().Size(serverG), m.Directory().Size(clientG))
		}
	}

	// P3 re-hosts its server replica; majority-voted state transfer
	// restores the pre-exclusion state.
	sv := &echoServant{}
	h, err := f.managers[2].HostReplica(serverG, "echo-server", sv)
	if err != nil {
		t.Fatal(err)
	}
	f.b.settle(t)
	if err := h.WaitActive(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sv.state != 5 {
		t.Fatalf("transferred state = %d, want 5", sv.state)
	}

	// And the group operates at full strength again. Both surviving
	// client replicas invoke, as a deterministic replicated client would
	// (the invocation vote needs a majority of the client group).
	req := &iiop.Request{RequestID: 2, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "add", Body: encodeDelta(t, 2)}
	raw := req.Marshal()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := f.clients[i].Invoke(serverG, raw)
			errs <- err
		}(i)
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	f.b.settle(t)
	if sv.state != 7 {
		t.Fatalf("post-rejoin state = %d, want 7", sv.state)
	}
}
