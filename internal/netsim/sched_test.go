package netsim

import (
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/obs"
)

// Equal delay ⇒ send order: two frames sent back to back over the same
// link must be read in the order they were sent. The ring depends on it —
// a token that overtakes the regulars multicast just before it makes the
// next holder request retransmissions of messages that are merely late.
func TestDelayedFramesArriveInSendOrder(t *testing.T) {
	n := New(Config{Latency: 300 * time.Microsecond})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	inverted := 0
	for i := 0; i < 500; i++ {
		a.Send(2, []byte{0})
		a.Send(2, []byte{1})
		first, ok1 := b.Recv()
		_, ok2 := b.Recv()
		if !ok1 || !ok2 {
			t.Fatal("mailbox closed")
		}
		if first.Payload[0] != 0 {
			inverted++
		}
	}
	if inverted != 0 {
		t.Fatalf("%d of 500 back-to-back pairs arrived out of send order", inverted)
	}
}

// A copy is never readable before send + Latency + jitter. The jitter of
// the i-th send is recomputed from the seed, which also pins that the RNG
// is still consumed at send time, one draw per copy, in send order.
func TestDelayedFrameNeverEarly(t *testing.T) {
	const (
		latency = 2 * time.Millisecond
		jitter  = time.Millisecond
		frames  = 100
	)
	n := New(Config{Latency: latency, Jitter: jitter, Seed: 11})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	rng := newSplitmix(11)
	due := make([]time.Time, frames)
	for i := range due {
		due[i] = time.Now().Add(latency + time.Duration(rng.uint64n(uint64(jitter))))
		a.Send(2, binary.BigEndian.AppendUint32(nil, uint32(i)))
	}
	for range due {
		f, ok := b.Recv()
		if !ok {
			t.Fatal("mailbox closed")
		}
		i := binary.BigEndian.Uint32(f.Payload)
		if early := time.Until(due[i]); early > 0 {
			t.Fatalf("frame %d readable %v before its due time", i, early)
		}
	}
}

// A later-sent copy can be due before the head the scheduler is napping
// on. The nap is capped at Latency, so the newcomer is not late by more
// than that — here it would be 200 ms late if the scheduler slept out the
// head's delay.
func TestNewcomerDueBeforeHeadIsNotHeldBack(t *testing.T) {
	const latency = 2 * time.Millisecond
	plan := PlanFunc(func(f Frame, _ ids.ProcessorID) (Verdict, time.Duration) {
		if f.Payload[0] == 'A' {
			return Deliver, 200 * time.Millisecond
		}
		return Deliver, 0
	})
	n := New(Config{Latency: latency, Plan: plan})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	a.Send(2, []byte("A"))
	time.Sleep(500 * time.Microsecond) // the scheduler is napping on A
	sent := time.Now()
	a.Send(2, []byte("B"))
	f, ok := b.Recv()
	if !ok || f.Payload[0] != 'B' {
		t.Fatalf("first frame read is %q, want the later-sent, earlier-due B", f.Payload)
	}
	// Due at +2 ms, at most one 2 ms nap late; the rest is slack for a
	// loaded host, still far below the 200 ms a held-back copy would show.
	if took := time.Since(sent); took > 50*time.Millisecond {
		t.Fatalf("B read %v after send, want ≈ %v", took, latency)
	}
	if f, ok := b.Recv(); !ok || f.Payload[0] != 'A' {
		t.Fatalf("second frame read is %q, want A", f.Payload)
	}
}

// The simulator's own error on a 300 µs link stays below the link
// latency. Median, so that a loaded CI host does not flake it: one Go
// runtime timer per copy put it at ≈ 810 µs on an idle process.
func TestMedianLatenessBelowLinkLatency(t *testing.T) {
	const latency = 300 * time.Microsecond
	reg := obs.NewRegistry()
	n := New(Config{Latency: latency, Metrics: MetricsFrom(reg, "")})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)

	for i := 0; i < 200; i++ {
		a.Send(2, []byte{byte(i)})
		if _, ok := b.Recv(); !ok {
			t.Fatal("mailbox closed")
		}
	}
	late := reg.Snapshot().Histograms["net.late"]
	if late.Count != 200 {
		t.Fatalf("net.late has %d observations, want 200", late.Count)
	}
	if p50 := late.Quantile(0.5); p50 >= latency {
		t.Fatalf("median lateness %v on an idle %v link", p50, latency)
	}
}

// The scheduler goroutine lives only while something is in flight.
func TestSchedulerExitsWhenNothingInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	n := New(Config{Latency: 300 * time.Microsecond})
	defer n.Close()
	a := mustAttach(t, n, 1)
	b := mustAttach(t, n, 2)
	for i := 0; i < 10; i++ {
		a.Send(2, []byte{byte(i)})
	}
	for i := 0; i < 10; i++ {
		if _, ok := b.Recv(); !ok {
			t.Fatal("mailbox closed")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		n.mu.Lock()
		running := n.scheduling
		n.mu.Unlock()
		if !running && runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduling=%v, %d goroutines against a baseline of %d", running, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// Close must not sleep out the delay of what is in flight: it drops it.
func TestCloseDropsInFlightWithoutWaiting(t *testing.T) {
	plan := PlanFunc(func(Frame, ids.ProcessorID) (Verdict, time.Duration) {
		return Deliver, 5 * time.Second
	})
	n := New(counted(Config{Plan: plan}))
	a := mustAttach(t, n, 1)
	mustAttach(t, n, 2)

	a.Send(2, []byte("in flight"))
	start := time.Now()
	n.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v with a 5 s delay in flight", took)
	}
	s := n.cfg.Metrics
	if s.Delivered.Load() != 0 || s.Dropped.Load() != 1 {
		t.Fatalf("delivered %d dropped %d, want 0 and 1", s.Delivered.Load(), s.Dropped.Load())
	}
}
