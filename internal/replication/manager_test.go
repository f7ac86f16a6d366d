package replication

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/obs"
	"immune/internal/orb"
)

// bus models the Secure Multicast Protocols for Manager tests: a single
// pump goroutine delivers every submitted payload to every manager in a
// fixed order — exactly the total-order delivery guarantee.
type bus struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    [][]byte
	managers []*Manager
	stopped  bool
	done     chan struct{}

	suspectMu sync.Mutex
	suspects  map[ids.ProcessorID]map[ids.ProcessorID]bool // reporter -> culprits
}

func newBus() *bus {
	b := &bus{
		suspects: make(map[ids.ProcessorID]map[ids.ProcessorID]bool),
		done:     make(chan struct{}),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *bus) attach(m *Manager) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.managers = append(b.managers, m)
}

func (b *bus) run() {
	defer close(b.done)
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.stopped {
			b.cond.Wait()
		}
		if b.stopped && len(b.queue) == 0 {
			b.mu.Unlock()
			return
		}
		p := b.queue[0]
		b.queue = b.queue[1:]
		managers := append([]*Manager(nil), b.managers...)
		b.mu.Unlock()
		for _, m := range managers {
			m.HandleDelivery(p)
		}
	}
}

func (b *bus) stop() {
	b.mu.Lock()
	b.stopped = true
	b.cond.Broadcast()
	b.mu.Unlock()
	<-b.done
}

// settle waits for the queue to drain.
func (b *bus) settle(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		b.mu.Lock()
		n := len(b.queue)
		b.mu.Unlock()
		if n == 0 {
			time.Sleep(2 * time.Millisecond) // let in-flight handling finish
			b.mu.Lock()
			n = len(b.queue)
			b.mu.Unlock()
			if n == 0 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("bus never settled")
}

// busStack is one processor's Multicaster backed by the shared bus.
type busStack struct {
	b    *bus
	self ids.ProcessorID
}

var _ Multicaster = (*busStack)(nil)

func (s *busStack) Submit(p []byte) error {
	c := append([]byte(nil), p...)
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	if s.b.stopped {
		return errors.New("bus stopped")
	}
	s.b.queue = append(s.b.queue, c)
	s.b.cond.Signal()
	return nil
}

func (s *busStack) Self() ids.ProcessorID { return s.self }

func (s *busStack) ValueFaultSuspect(p ids.ProcessorID) {
	s.b.suspectMu.Lock()
	defer s.b.suspectMu.Unlock()
	set := s.b.suspects[s.self]
	if set == nil {
		set = make(map[ids.ProcessorID]bool)
		s.b.suspects[s.self] = set
	}
	set[p] = true
}

// echoServant echoes its argument and counts executions. A configurable
// corruption makes it return wrong values (a value-faulty replica).
type echoServant struct {
	mu      sync.Mutex
	execs   int
	corrupt bool
	state   int64
}

var _ orb.Servant = (*echoServant)(nil)

func (s *echoServant) Invoke(op string, args []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.execs++
	switch op {
	case "echo":
		if s.corrupt {
			return []byte("CORRUPTED"), nil
		}
		return args, nil
	case "add":
		d := iiop.NewDecoder(args)
		delta, err := d.ReadLongLong()
		if err != nil {
			return nil, err
		}
		s.state += delta
		e := iiop.NewEncoder()
		if s.corrupt {
			e.WriteLongLong(s.state + 1000000)
		} else {
			e.WriteLongLong(s.state)
		}
		return e.Bytes(), nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

func (s *echoServant) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := iiop.NewEncoder()
	e.WriteLongLong(s.state)
	return e.Bytes()
}

func (s *echoServant) Restore(snap []byte) error {
	v, err := iiop.NewDecoder(snap).ReadLongLong()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = v
	return nil
}

func (s *echoServant) executions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execs
}

const (
	serverG = ids.ObjectGroupID(10)
	clientG = ids.ObjectGroupID(20)
)

// fixture builds n managers over one bus, each hosting a server replica
// (with its own servant) and a client replica.
type fixture struct {
	t        *testing.T
	b        *bus
	managers []*Manager
	servants []*echoServant
	servers  []*Handle
	clients  []*Handle
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	f := &fixture{t: t, b: newBus()}
	for i := 1; i <= n; i++ {
		m, err := NewManager(Config{
			Stack:       &busStack{b: f.b, self: ids.ProcessorID(i)},
			Processors:  n,
			CallTimeout: 5 * time.Second,
			Metrics:     MetricsFrom(obs.NewRegistry()),
		})
		if err != nil {
			t.Fatal(err)
		}
		f.b.attach(m)
		f.managers = append(f.managers, m)
	}
	go f.b.run()
	t.Cleanup(f.b.stop)

	for i, m := range f.managers {
		sv := &echoServant{}
		f.servants = append(f.servants, sv)
		h, err := m.HostReplica(serverG, "echo-server", sv)
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, h)
		ch, err := m.HostReplica(clientG, "client", nil)
		if err != nil {
			t.Fatal(err)
		}
		f.clients = append(f.clients, ch)
		_ = i
	}
	f.b.settle(t)
	for i, h := range f.servers {
		if err := h.WaitActive(5 * time.Second); err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
	}
	for i, h := range f.clients {
		if err := h.WaitActive(5 * time.Second); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return f
}

// invokeAll performs the same two-way invocation from every client
// replica, as a deterministic replicated client would, and returns the
// voted replies.
func (f *fixture) invokeAll(op string, args []byte) [][]byte {
	f.t.Helper()
	req := &iiop.Request{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: op, Body: args,
	}
	raw := req.Marshal()
	results := make([][]byte, len(f.clients))
	var wg sync.WaitGroup
	errs := make([]error, len(f.clients))
	for i, h := range f.clients {
		wg.Add(1)
		go func(i int, h *Handle) {
			defer wg.Done()
			results[i], errs[i] = h.Invoke(serverG, raw)
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			f.t.Fatalf("client %d invoke: %v", i, err)
		}
	}
	return results
}

func decodeReplyBody(t *testing.T, rawReply []byte) []byte {
	t.Helper()
	msg, err := iiop.Parse(rawReply)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Reply == nil {
		t.Fatal("not a reply")
	}
	if msg.Reply.Status != iiop.ReplyNoException {
		t.Fatalf("reply status %v: %s", msg.Reply.Status, orb.DecodeException(msg.Reply.Body))
	}
	return msg.Reply.Body
}

func TestReplicatedInvocationEndToEnd(t *testing.T) {
	f := newFixture(t, 3)
	replies := f.invokeAll("echo", []byte("payload"))
	for i, r := range replies {
		if body := decodeReplyBody(t, r); !bytes.Equal(body, []byte("payload")) {
			t.Fatalf("client %d reply body %q", i, body)
		}
	}
	// Every server replica executed the operation exactly once despite
	// three invocation copies (duplicate detection, §5.1).
	f.b.settle(t)
	for i, sv := range f.servants {
		if sv.executions() != 1 {
			t.Fatalf("servant %d executed %d times, want 1", i, sv.executions())
		}
	}
}

func TestSequentialOperationsStayConsistent(t *testing.T) {
	f := newFixture(t, 3)
	e := iiop.NewEncoder()
	e.WriteLongLong(5)
	for k := 1; k <= 4; k++ {
		replies := f.invokeAll("add", e.Bytes())
		want := int64(5 * k)
		for i, r := range replies {
			body := decodeReplyBody(t, r)
			v, err := iiop.NewDecoder(body).ReadLongLong()
			if err != nil {
				t.Fatal(err)
			}
			if v != want {
				t.Fatalf("round %d client %d: value %d, want %d", k, i, v, want)
			}
		}
	}
	// All replica states identical (replica consistency).
	f.b.settle(t)
	for i, sv := range f.servants {
		if sv.state != 20 {
			t.Fatalf("servant %d state %d, want 20", i, sv.state)
		}
	}
}

func TestValueFaultyServerOutvoted(t *testing.T) {
	f := newFixture(t, 3)
	f.servants[2].corrupt = true // server replica on P3 lies

	replies := f.invokeAll("echo", []byte("truth"))
	for i, r := range replies {
		if body := decodeReplyBody(t, r); !bytes.Equal(body, []byte("truth")) {
			t.Fatalf("client %d got %q — corrupted reply won the vote", i, body)
		}
	}
	f.b.settle(t)

	// The value fault detector must confirm the corrupt replica and
	// notify the local Byzantine detectors (Value_Fault_Suspect, §6.2).
	f.b.suspectMu.Lock()
	defer f.b.suspectMu.Unlock()
	reporters := 0
	for reporter, set := range f.b.suspects {
		if set[3] {
			reporters++
		}
		_ = reporter
	}
	if reporters == 0 {
		t.Fatal("no processor raised Value_Fault_Suspect against P3")
	}
}

func TestValueFaultyClientOutvoted(t *testing.T) {
	f := newFixture(t, 3)

	// Two honest clients invoke "echo(ok)"; a corrupted client replica
	// on P3 sends a mutant invocation with the same operation id.
	honest := &iiop.Request{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("ok"),
	}
	mutant := &iiop.Request{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("EVIL"),
	}
	// Forge the mutant copy directly on the bus, as the corrupt client's
	// RM would emit it.
	forged := &group.Message{
		Kind: group.KindInvocation, Dest: serverG,
		Op:      ids.OperationID{ClientGroup: clientG, Seq: 1},
		Sender:  ids.ReplicaID{Group: clientG, Processor: 3},
		Payload: mutant.Marshal(),
	}
	stack3 := &busStack{b: f.b, self: 3}
	if err := stack3.Submit(forged.Marshal()); err != nil {
		t.Fatal(err)
	}

	raw := honest.Marshal()
	var wg sync.WaitGroup
	var replies [2][]byte
	var errs [2]error
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = f.clients[i].Invoke(serverG, raw)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("honest client %d: %v", i, errs[i])
		}
		if body := decodeReplyBody(t, replies[i]); !bytes.Equal(body, []byte("ok")) {
			t.Fatalf("client %d reply %q — mutant invocation delivered", i, body)
		}
	}
	f.b.settle(t)
	// Servants executed the honest invocation exactly once.
	for i, sv := range f.servants {
		if sv.executions() != 1 {
			t.Fatalf("servant %d executions = %d", i, sv.executions())
		}
	}
	// The deviant client replica was observed.
	f.b.suspectMu.Lock()
	defer f.b.suspectMu.Unlock()
	found := false
	for _, set := range f.b.suspects {
		if set[3] {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupt client replica not reported")
	}
}

func TestOneWayInvocation(t *testing.T) {
	f := newFixture(t, 3)
	req := &iiop.Request{
		RequestID: 1, ResponseExpected: false,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("fire"),
	}
	raw := req.Marshal()
	for _, h := range f.clients {
		if err := h.InvokeOneWay(serverG, raw); err != nil {
			t.Fatal(err)
		}
	}
	f.b.settle(t)
	for i, sv := range f.servants {
		if sv.executions() != 1 {
			t.Fatalf("servant %d executions = %d, want 1", i, sv.executions())
		}
	}
	for i, m := range f.managers {
		if st := m.met; st.ResponsesSent.Load() != 0 {
			t.Fatalf("manager %d sent %d responses to a one-way", i, st.ResponsesSent.Load())
		}
	}
}

func TestStateTransferOnJoin(t *testing.T) {
	// Build a 3-processor system but initially host the server on only
	// P1 and P2.
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

	sv1, sv2 := &echoServant{}, &echoServant{}
	h1, err := managers[0].HostReplica(serverG, "echo-server", sv1)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := managers[1].HostReplica(serverG, "echo-server", sv2)
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

	// Mutate state through the replicated path (client degree 1).
	e := iiop.NewEncoder()
	e.WriteLongLong(7)
	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "add", Body: e.Bytes()}
	if _, err := client.Invoke(serverG, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)

	// Now P3 joins the server group; it must receive majority-voted
	// state (7) before activating (§3.1 reallocation).
	sv3 := &echoServant{}
	h3, err := managers[2].HostReplica(serverG, "echo-server", sv3)
	if err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	if err := h3.WaitActive(5 * time.Second); err != nil {
		t.Fatalf("joined replica never activated: %v", err)
	}
	if sv3.state != 7 {
		t.Fatalf("transferred state = %d, want 7", sv3.state)
	}

	// Subsequent operations keep all three in lockstep.
	if _, err := client.Invoke(serverG, req.Marshal()); err != nil {
		t.Fatal(err)
	}
	b.settle(t)
	for i, sv := range []*echoServant{sv1, sv2, sv3} {
		if sv.state != 14 {
			t.Fatalf("replica %d state %d, want 14", i+1, sv.state)
		}
	}
}

func TestProcessorExclusionRemovesReplicas(t *testing.T) {
	f := newFixture(t, 3)
	f.invokeAll("echo", []byte("warm"))
	f.b.settle(t)

	// P3 is excluded from the processor membership.
	for _, m := range f.managers {
		m.OnMembershipInstall(0, []ids.ProcessorID{1, 2}, false)
	}
	for i, m := range f.managers[:2] {
		if m.Directory().Size(serverG) != 2 || m.Directory().Size(clientG) != 2 {
			t.Fatalf("survivor %d sizes: server %d client %d",
				i, m.Directory().Size(serverG), m.Directory().Size(clientG))
		}
	}
	// The excluded processor resets: its directory empties and it must
	// re-sync before it can participate again.
	if ex := f.managers[2]; ex.Synced() ||
		ex.Directory().Size(serverG) != 0 || ex.Directory().Size(clientG) != 0 {
		t.Fatalf("excluded manager: synced=%v server %d client %d",
			ex.Synced(), ex.Directory().Size(serverG), ex.Directory().Size(clientG))
	}

	// The two survivors still operate: majority of 2 is 2.
	req := &iiop.Request{RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("echo-server"), Operation: "echo", Body: []byte("post")}
	raw := req.Marshal()
	var wg sync.WaitGroup
	var errs [2]error
	var replies [2][]byte
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i], errs[i] = f.clients[i].Invoke(serverG, raw)
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("survivor %d: %v", i, errs[i])
		}
		if body := decodeReplyBody(t, replies[i]); !bytes.Equal(body, []byte("post")) {
			t.Fatalf("survivor %d reply %q", i, body)
		}
	}
}

func TestHostReplicaValidation(t *testing.T) {
	b := newBus()
	m, err := NewManager(Config{Stack: &busStack{b: b, self: 1}, Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.attach(m)
	go b.run()
	t.Cleanup(b.stop)

	if _, err := m.HostReplica(ids.BaseGroup, "x", nil); err == nil {
		t.Fatal("hosting on the base group accepted")
	}
	if _, err := m.HostReplica(5, "k", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.HostReplica(5, "k", &echoServant{}); err == nil {
		t.Fatal("double hosting accepted")
	}
}

func TestInvokeBeforeActiveFails(t *testing.T) {
	// A manager whose bus never delivers: the join cannot complete.
	b := newBus() // not running
	m, err := NewManager(Config{Stack: &busStack{b: b, self: 1}, Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.HostReplica(clientG, "c", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Invoke(serverG, []byte("x")); err == nil {
		t.Fatal("invoke before activation succeeded")
	}
}

func TestVFDThreshold(t *testing.T) {
	var confirmed []ids.ReplicaID
	v := newValueFaultDetector(6, func(r ids.ReplicaID) { confirmed = append(confirmed, r) })
	culprit := ids.ReplicaID{Group: 10, Processor: 6}

	// Threshold for n=6 is floor(5/3)+1 = 2 distinct reporters.
	v.record(1, culprit)
	if len(confirmed) != 0 {
		t.Fatal("confirmed on one reporter")
	}
	v.record(1, culprit) // same reporter repeating: no effect
	if len(confirmed) != 0 {
		t.Fatal("confirmed on repeated single reporter")
	}
	v.record(2, culprit)
	if len(confirmed) != 1 || confirmed[0] != culprit {
		t.Fatalf("confirmed = %v", confirmed)
	}
	if !v.isConfirmed(culprit) {
		t.Fatal("isConfirmed false")
	}
	// Further reports are idempotent.
	v.record(4, culprit)
	if len(confirmed) != 1 {
		t.Fatal("re-confirmed")
	}
}

func TestVFDSelfTestimonyIgnored(t *testing.T) {
	var confirmed []ids.ReplicaID
	v := newValueFaultDetector(3, func(r ids.ReplicaID) { confirmed = append(confirmed, r) })
	culprit := ids.ReplicaID{Group: 10, Processor: 2}
	// n=3: threshold is 1 reporter — but the culprit's own processor
	// cannot testify about itself.
	v.record(2, culprit)
	if len(confirmed) != 0 {
		t.Fatal("self-testimony counted")
	}
	v.record(1, culprit)
	if len(confirmed) != 1 {
		t.Fatal("honest testimony ignored")
	}
}
