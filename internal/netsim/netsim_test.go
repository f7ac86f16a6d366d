package netsim

import (
	"bytes"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/obs"
)

// counted gives a network under test its own registry, so the test can
// read its counters back through n.cfg.Metrics.
func counted(cfg Config) Config {
	cfg.Metrics = MetricsFrom(obs.NewRegistry(), "")
	return cfg
}

func mustAttach(t *testing.T, n *Network, p ids.ProcessorID) *Endpoint {
	t.Helper()
	ep, err := n.Attach(p)
	if err != nil {
		t.Fatalf("attach %s: %v", p, err)
	}
	return ep
}

func TestUnicastDelivery(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	a.Send(2, []byte("hello"))
	f, ok := b.Recv()
	if !ok {
		t.Fatal("mailbox closed unexpectedly")
	}
	if f.From != 1 || f.To != 2 || string(f.Payload) != "hello" {
		t.Fatalf("got frame %+v", f)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", b.Pending())
	}
}

func TestMulticastReachesAllButSender(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	eps := make([]*Endpoint, 4)
	for i := range eps {
		eps[i] = mustAttach(t, n, ids.ProcessorID(i+1))
	}
	eps[0].Multicast([]byte("mc"))
	for i := 1; i < 4; i++ {
		f, ok := eps[i].Recv()
		if !ok || string(f.Payload) != "mc" {
			t.Fatalf("endpoint %d did not receive multicast", i)
		}
	}
	if eps[0].Pending() != 0 {
		t.Fatal("sender received its own multicast")
	}
}

func TestSendToUnknownProcessorIsDropped(t *testing.T) {
	n := New(counted(Config{}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	a.Send(42, []byte("void"))
	if s := n.cfg.Metrics; s.Dropped.Load() != 1 || s.Delivered.Load() != 0 {
		t.Fatalf("dropped %d delivered %d, want 1 drop 0 deliveries", s.Dropped.Load(), s.Delivered.Load())
	}
}

func TestDoubleAttachFails(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	mustAttach(t, n, 1)
	if _, err := n.Attach(1); err == nil {
		t.Fatal("second attach of same processor succeeded")
	}
	if _, err := n.Attach(Broadcast); err == nil {
		t.Fatal("attach of reserved broadcast id succeeded")
	}
}

func TestDetachLosesTraffic(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	n.Detach(2)
	a.Send(2, []byte("lost"))
	if b.Pending() != 0 {
		t.Fatal("detached processor received a frame")
	}
	b.Send(1, []byte("also lost"))
	if a.Pending() != 0 {
		t.Fatal("frame from detached processor delivered")
	}

	n.Reattach(2)
	a.Send(2, []byte("back"))
	if f, ok := b.Recv(); !ok || string(f.Payload) != "back" {
		t.Fatal("reattached processor did not receive")
	}
	if n.Detached(2) {
		t.Fatal("Detached(2) true after Reattach")
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	buf := []byte("original")
	a.Send(2, buf)
	buf[0] = 'X' // sender mutates after send
	f, _ := b.Recv()
	if string(f.Payload) != "original" {
		t.Fatalf("receiver saw sender's mutation: %q", f.Payload)
	}
	f.Payload[0] = 'Y' // receiver mutates its copy
	if buf[0] != 'X' {
		t.Fatal("receiver mutation reached sender buffer")
	}
}

func TestCorruptionPlan(t *testing.T) {
	plan := PlanFunc(func(Frame, ids.ProcessorID) (Verdict, time.Duration) {
		return Corrupt, 0
	})
	n := New(counted(Config{Plan: plan, Seed: 7}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	orig := []byte("payload-bytes")
	a.Send(2, orig)
	f, _ := b.Recv()
	if bytes.Equal(f.Payload, orig) {
		t.Fatal("corrupted frame identical to original")
	}
	if len(f.Payload) != len(orig) {
		t.Fatalf("corruption changed length: %d != %d", len(f.Payload), len(orig))
	}
	if s := n.cfg.Metrics; s.Corrupted.Load() != 1 {
		t.Fatalf("Corrupted = %d, want 1", s.Corrupted.Load())
	}
}

func TestDuplicationPlan(t *testing.T) {
	plan := PlanFunc(func(Frame, ids.ProcessorID) (Verdict, time.Duration) {
		return Duplicate, 0
	})
	n := New(counted(Config{Plan: plan}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	a.Send(2, []byte("twice"))
	for i := 0; i < 2; i++ {
		if f, ok := b.Recv(); !ok || string(f.Payload) != "twice" {
			t.Fatalf("copy %d missing", i)
		}
	}
	if s := n.cfg.Metrics; s.Duplicated.Load() != 1 || s.Delivered.Load() != 2 {
		t.Fatalf("duplicated %d delivered %d, want 1 and 2", s.Duplicated.Load(), s.Delivered.Load())
	}
}

func TestLoseFirstN(t *testing.T) {
	n := New(Config{Plan: LoseFirstN(2)})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	a.Send(2, []byte("1"))
	a.Send(2, []byte("2"))
	a.Send(2, []byte("3"))
	f, ok := b.Recv()
	if !ok || string(f.Payload) != "3" {
		t.Fatalf("got %q, want the third frame", f.Payload)
	}
	if b.Pending() != 0 {
		t.Fatal("extra frames delivered")
	}
}

func TestReceiveOmission(t *testing.T) {
	n := New(Config{Plan: ReceiveOmission(2)})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)
	c := mustAttach(t, n, 3)

	a.Multicast([]byte("mc"))
	if f, ok := c.Recv(); !ok || string(f.Payload) != "mc" {
		t.Fatal("non-victim lost multicast")
	}
	if b.Pending() != 0 {
		t.Fatal("victim received despite receive omission")
	}
}

func TestSendOmission(t *testing.T) {
	n := New(Config{Plan: SendOmission(1)})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	a.Send(2, []byte("suppressed"))
	if b.Pending() != 0 {
		t.Fatal("frame from send-omitting processor delivered")
	}
	b.Send(1, []byte("ok"))
	if f, ok := a.Recv(); !ok || string(f.Payload) != "ok" {
		t.Fatal("unrelated traffic affected")
	}
}

func TestChainFirstNonDeliverWins(t *testing.T) {
	dropAll := PlanFunc(func(Frame, ids.ProcessorID) (Verdict, time.Duration) { return Drop, 0 })
	delay := PlanFunc(func(Frame, ids.ProcessorID) (Verdict, time.Duration) {
		return Deliver, time.Millisecond
	})
	v, d := Chain(delay, dropAll).Judge(Frame{}, 1)
	if v != Drop || d != time.Millisecond {
		t.Fatalf("chain verdict = (%v, %v)", v, d)
	}
	v, d = Chain(delay, delay).Judge(Frame{}, 1)
	if v != Deliver || d != 2*time.Millisecond {
		t.Fatalf("chain verdict = (%v, %v)", v, d)
	}
}

func TestProbabilisticRoughRates(t *testing.T) {
	plan := NewProbabilistic(99, 0.5, 0, 0, 0)
	n := New(counted(Config{Plan: plan}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	mustAttach(t, n, 2)

	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(2, []byte{byte(i)})
	}
	s := n.cfg.Metrics
	if s.Delivered.Load()+s.Dropped.Load() != total {
		t.Fatalf("delivered %d + dropped %d != %d", s.Delivered.Load(), s.Dropped.Load(), total)
	}
	ratio := float64(s.Dropped.Load()) / float64(total)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("loss ratio %.3f far from configured 0.5", ratio)
	}
}

func TestDelayedDelivery(t *testing.T) {
	n := New(Config{Latency: 5 * time.Millisecond})
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	start := time.Now()
	a.Send(2, []byte("later"))
	f, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~5ms", elapsed)
	}
	if string(f.Payload) != "later" {
		t.Fatalf("payload %q", f.Payload)
	}
	n.Close()
}

func TestCloseUnblocksReceivers(t *testing.T) {
	n := New(Config{})
	a := mustAttach(t, n, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := a.Recv(); ok {
			t.Error("Recv returned a frame after close")
		}
	}()
	time.Sleep(time.Millisecond)
	n.Close()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("receiver still blocked after Close")
	}
	// Sends after close are dropped, not panicking.
	a.Send(1, []byte("late"))
}

func TestTryRecv(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	if _, ok := b.TryRecv(); ok {
		t.Fatal("TryRecv returned frame from empty mailbox")
	}
	a.Send(2, []byte("x"))
	if f, ok := b.TryRecv(); !ok || string(f.Payload) != "x" {
		t.Fatal("TryRecv missed queued frame")
	}
}

func TestStatsAccounting(t *testing.T) {
	n := New(counted(Config{}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	mustAttach(t, n, 2)
	mustAttach(t, n, 3)

	a.Multicast(bytes.Repeat([]byte{1}, 10))
	s := n.cfg.Metrics
	if s.Sent.Load() != 1 || s.Delivered.Load() != 2 || s.BytesSent.Load() != 10 {
		t.Fatalf("sent %d delivered %d bytes %d, want 1, 2, 10", s.Sent.Load(), s.Delivered.Load(), s.BytesSent.Load())
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Deliver: "deliver", Drop: "drop", Corrupt: "corrupt",
		Duplicate: "duplicate", Verdict(0): "Verdict(0)",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(v), v.String(), want)
		}
	}
}

func TestJitterDelaysDelivery(t *testing.T) {
	n := New(Config{Latency: time.Millisecond, Jitter: time.Millisecond, Seed: 3})
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)
	start := time.Now()
	a.Send(2, []byte("jittered"))
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv failed")
	}
	if e := time.Since(start); e < 900*time.Microsecond {
		t.Fatalf("delivered after %v, want >= ~1ms", e)
	}
	n.Close()
}

func TestProbabilisticExtraDelay(t *testing.T) {
	plan := NewProbabilistic(9, 0, 0, 0, 2*time.Millisecond)
	v, d := plan.Judge(Frame{}, 1)
	if v != Deliver {
		t.Fatalf("verdict %v", v)
	}
	if d < 0 || d >= 2*time.Millisecond {
		t.Fatalf("delay %v outside [0, 2ms)", d)
	}
}

func TestProbabilisticDuplicationRate(t *testing.T) {
	plan := NewProbabilistic(44, 0, 0, 0.3, 0)
	n := New(counted(Config{Plan: plan}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	mustAttach(t, n, 2)
	const total = 2000
	for i := 0; i < total; i++ {
		a.Send(2, []byte{byte(i)})
	}
	s := n.cfg.Metrics
	ratio := float64(s.Duplicated.Load()) / float64(total)
	if ratio < 0.2 || ratio > 0.4 {
		t.Fatalf("duplication ratio %.3f far from 0.3", ratio)
	}
	if s.Delivered.Load() != total+s.Duplicated.Load() {
		t.Fatalf("delivered %d != sent %d + dup %d", s.Delivered.Load(), total, s.Duplicated.Load())
	}
}

func TestBroadcastWithDetachedReceiver(t *testing.T) {
	n := New(Config{})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)
	c := mustAttach(t, n, 3)
	n.Detach(3)
	a.Multicast([]byte("m"))
	if f, ok := b.Recv(); !ok || string(f.Payload) != "m" {
		t.Fatal("live receiver missed multicast")
	}
	if c.Pending() != 0 {
		t.Fatal("detached receiver got multicast")
	}
}

func TestDelayedFrameNotDeliveredAfterDetach(t *testing.T) {
	n := New(counted(Config{Latency: 10 * time.Millisecond}))
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	a.Send(2, []byte("in flight"))
	n.Detach(2) // receiver drops off while the frame is still in flight
	time.Sleep(30 * time.Millisecond)
	if b.Pending() != 0 {
		t.Fatalf("detached receiver got %d delayed frames", b.Pending())
	}
	s := n.cfg.Metrics
	if s.Delivered.Load() != 0 {
		t.Fatalf("delivered = %d, want 0 (frame was in flight at detach)", s.Delivered.Load())
	}
	if s.Dropped.Load() != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped.Load())
	}
}

func TestDelayedFrameNotCountedAfterClose(t *testing.T) {
	n := New(counted(Config{Latency: 10 * time.Millisecond}))
	a := mustAttach(t, n, 1)
	mustAttach(t, n, 2)

	a.Send(2, []byte("in flight"))
	n.Close() // waits for the in-flight timer; the late frame must drop
	s := n.cfg.Metrics
	if s.Delivered.Load() != 0 {
		t.Fatalf("delivered = %d, want 0 (network closed before delivery)", s.Delivered.Load())
	}
	if s.Dropped.Load() != 1 {
		t.Fatalf("dropped = %d, want 1", s.Dropped.Load())
	}
}
