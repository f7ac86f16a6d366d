package replication

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/obs"
)

// retryRig builds one manager on P2 whose server replica is active (it is
// the group's first server replica) and registers P1's degree-1 client
// replica, so invocations submitted from P1 decide with a single copy.
func retryRig(t *testing.T) (*bus, *Manager) {
	t.Helper()
	b := newBus()
	m, err := NewManager(Config{
		Stack:       &busStack{b: b, self: 2},
		Processors:  2,
		CallTimeout: 5 * time.Second,
		Metrics:     MetricsFrom(obs.NewRegistry()),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.attach(m)
	go b.run()
	t.Cleanup(b.stop)

	h, err := m.HostReplica(serverG, "echo-server", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	remote := &busStack{b: b, self: 1}
	join := &group.Message{Kind: group.KindJoin, Dest: ids.BaseGroup,
		Member: ids.ReplicaID{Group: clientG, Processor: 1}, Target: clientG, Payload: []byte{0}}
	if err := remote.Submit(join.Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if err := h.WaitActive(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return b, m
}

func invocationMsg(kind group.Kind, seq uint64) *group.Message {
	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("x")}
	return &group.Message{Kind: kind, Dest: serverG,
		Op:      ids.OperationID{ClientGroup: clientG, Seq: seq},
		Sender:  ids.ReplicaID{Group: clientG, Processor: 1},
		Payload: req.Marshal(),
	}
}

// TestRetryResendsRetainedReply: a KindInvocationRetry for an operation
// the replica already executed is answered from the retained-reply cache
// — no re-execution, one extra response copy — so a response lost in
// transit cannot wedge the call for its full deadline.
func TestRetryResendsRetainedReply(t *testing.T) {
	b, m := retryRig(t)
	remote := &busStack{b: b, self: 1}

	if err := remote.Submit(invocationMsg(group.KindInvocation, 1).Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if st := m.met; st.ResponsesSent.Load() != 1 || st.ResponsesResent.Load() != 0 {
		t.Fatalf("after invocation: ResponsesSent=%d ResponsesResent=%d, want 1, 0",
			st.ResponsesSent.Load(), st.ResponsesResent.Load())
	}

	// The client's re-send: same operation, retry kind.
	if err := remote.Submit(invocationMsg(group.KindInvocationRetry, 1).Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	st := m.met
	if st.ResponsesResent.Load() != 1 {
		t.Fatalf("after retry: ResponsesResent = %d, want 1", st.ResponsesResent.Load())
	}
	if st.ResponsesSent.Load() != 1 {
		t.Fatalf("after retry: ResponsesSent = %d, want 1 (no re-execution)", st.ResponsesSent.Load())
	}

	// A plain duplicate copy (not a retry) stays a silent discard.
	if err := remote.Submit(invocationMsg(group.KindInvocation, 1).Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if st := m.met; st.ResponsesResent.Load() != 1 {
		t.Fatalf("after duplicate: ResponsesResent = %d, want 1", st.ResponsesResent.Load())
	}

	// A retry for an operation never seen contributes a first vote (the
	// original copy may have been the lost frame) and executes normally.
	if err := remote.Submit(invocationMsg(group.KindInvocationRetry, 2).Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if st := m.met; st.ResponsesSent.Load() != 2 || st.ResponsesResent.Load() != 1 {
		t.Fatalf("retry-as-first-copy: ResponsesSent=%d ResponsesResent=%d, want 2, 1",
			st.ResponsesSent.Load(), st.ResponsesResent.Load())
	}
}

// TestStateTransferCarriesReplyCache: a replica joining after operations
// have executed receives the providers' retained-reply cache with the
// snapshot, so it too can answer retries for operations that predate it —
// otherwise every re-hosting would shrink the set of replicas able to
// rebuild a response quorum.
func TestStateTransferCarriesReplyCache(t *testing.T) {
	b := newBus()
	var managers []*Manager
	for i := 1; i <= 3; i++ {
		m, err := NewManager(Config{
			Stack:      &busStack{b: b, self: ids.ProcessorID(i)},
			Processors: 3, CallTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.attach(m)
		managers = append(managers, m)
	}
	go b.run()
	t.Cleanup(b.stop)

	h1, err := managers[0].HostReplica(serverG, "echo-server", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := managers[1].HostReplica(serverG, "echo-server", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := managers[0].HostReplica(clientG, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	for _, h := range []*Handle{h1, h2, client} {
		if err := h.WaitActive(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("hello")}
	reply, err := client.Invoke(serverG, req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)

	// P3 joins the server group and receives majority-voted state.
	h3, err := managers[2].HostReplica(serverG, "echo-server", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if err := h3.WaitActive(5 * time.Second); err != nil {
		t.Fatalf("joined replica never activated: %v", err)
	}

	op := ids.OperationID{ClientGroup: clientG, Seq: 1}
	m3 := managers[2]
	m3.mu.Lock()
	st := m3.hosted[serverG]
	var cached []byte
	if st != nil {
		cached, _ = st.replies.get(op)
	}
	m3.mu.Unlock()
	if cached == nil {
		t.Fatal("joined replica has no retained reply for the pre-join operation")
	}
	if !bytes.Equal(cached, reply) {
		t.Fatalf("transferred reply differs from the voted reply")
	}
}

// TestStatePayloadRoundTrip: the state-transfer framing (snapshot +
// retained replies) survives encode/decode and rejects truncations.
func TestStatePayloadRoundTrip(t *testing.T) {
	ops := []ids.OperationID{
		{ClientGroup: 9, Seq: 1},
		{ClientGroup: 9, Seq: 2},
	}
	var replies opStore
	replies.put(ops[0], []byte("alpha"))
	replies.put(ops[1], []byte{})
	snap := []byte{1, 2, 3, 4}
	enc := encodeStatePayload(snap, &replies)

	// The framing is what providers' digests are voted on and what a
	// mixed-version group exchanges: these are the bytes the encoder
	// produced before the reply cache became an opStore.
	const golden = "0400000001020304" + "02000000" +
		"09000000" + "0100000000000000" + "05000000" + "616c706861" +
		"09000000" + "0200000000000000" + "00000000"
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("state payload framing moved:\n got %s\nwant %s", got, golden)
	}

	gotSnap, got, err := decodeStatePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, snap) {
		t.Fatalf("snapshot %v, want %v", gotSnap, snap)
	}
	var gotLog []ids.OperationID
	got.each(func(op ids.OperationID, _ []byte) { gotLog = append(gotLog, op) })
	if len(gotLog) != 2 || gotLog[0] != ops[0] || gotLog[1] != ops[1] {
		t.Fatalf("reply log %v, want %v", gotLog, ops)
	}
	alpha, _ := got.get(ops[0])
	empty, ok := got.get(ops[1])
	if !bytes.Equal(alpha, []byte("alpha")) || !ok || len(empty) != 0 {
		t.Fatalf("replies %v", got.vals)
	}
	if again := encodeStatePayload(gotSnap, &got); !bytes.Equal(again, enc) {
		t.Fatalf("re-encoding a decoded payload changed it: %x", again)
	}

	// Empty cache round-trips too.
	enc = encodeStatePayload(snap, &opStore{})
	gotSnap, got, err = decodeStatePayload(enc)
	if err != nil || !bytes.Equal(gotSnap, snap) || got.len() != 0 {
		t.Fatalf("empty-cache round trip: %v %v %v", gotSnap, got.vals, err)
	}

	// Every truncation of a valid encoding must error, not panic or
	// mis-parse.
	full := encodeStatePayload(snap, &replies)
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := decodeStatePayload(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
}

// TestOpStoreForgetsOldestFirst: past its limit the store drops exactly
// the oldest insertion per new one and still iterates oldest first, and a
// taken entry's stale key evicts nothing when its turn comes.
func TestOpStoreForgetsOldestFirst(t *testing.T) {
	var s opStore
	op := func(i int) ids.OperationID { return ids.OperationID{ClientGroup: 1, Seq: uint64(i)} }
	for i := 1; i <= opStoreLimit; i++ {
		if !s.put(op(i), []byte{byte(i)}) {
			t.Fatalf("op %d reported as present", i)
		}
	}
	if s.put(op(7), nil) {
		t.Fatal("re-put of a held op reported as new")
	}
	if _, ok := s.take(op(2)); !ok {
		t.Fatal("op 2 missing")
	}
	for i := opStoreLimit + 1; i <= opStoreLimit+3; i++ {
		s.put(op(i), nil)
	}
	if s.len() != opStoreLimit {
		t.Fatalf("store holds %d entries, want %d", s.len(), opStoreLimit)
	}
	want := 4 // 1 and 3 evicted, 2 taken
	s.each(func(o ids.OperationID, _ []byte) {
		if o != op(want) {
			t.Fatalf("iteration reached %v, want %v", o, op(want))
		}
		want++
	})
	if want != opStoreLimit+4 {
		t.Fatalf("iteration ended before op %d", want)
	}
}

// TestRetryBelowDecidedWindowNotReexecuted: at-most-once execution must
// outlive the voter's decided window. After more than a window of later
// operations from the same client group, V_I has forgotten operation 1;
// a retry of it must still be a duplicate, not a fresh vote that the
// client's copy decides and the servant executes a second time.
func TestRetryBelowDecidedWindowNotReexecuted(t *testing.T) {
	b, m := retryRig(t)
	remote := &busStack{b: b, self: 1}
	for seq := uint64(1); seq <= 8192+11; seq++ {
		if err := remote.Submit(invocationMsg(group.KindInvocation, seq).Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	b.settle(t)
	m.mu.Lock()
	servant := m.hosted[serverG].servant.(*echoServant)
	m.mu.Unlock()
	before := servant.executions()
	if before != 8192+11 {
		t.Fatalf("servant executed %d operations, want %d", before, 8192+11)
	}

	if err := remote.Submit(invocationMsg(group.KindInvocationRetry, 1).Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if after := servant.executions(); after != before {
		t.Fatalf("retry of long-decided operation 1 executed again (%d -> %d executions)", before, after)
	}
}
