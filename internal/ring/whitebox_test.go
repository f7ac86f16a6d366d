package ring

import (
	"testing"

	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/wire"
)

func newBareRing(t *testing.T, members []ids.ProcessorID, self ids.ProcessorID) *Ring {
	t.Helper()
	suite, err := sec.NewSuite(sec.LevelNone, self, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(Config{
		Self: self, Members: members, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Deliver: func(*wire.Regular) {},
		Metrics: testMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestStableAruWindow pins the GC-safety rule: the release point is the
// minimum aru over the last n+1 accepted tokens, never the instantaneous
// (possibly transiently raised) token aru.
func TestStableAruWindow(t *testing.T) {
	r := newBareRing(t, []ids.ProcessorID{1, 2, 3}, 1) // window size 4

	// Window not yet full: threshold stays 0.
	if got := r.stableAru(10); got != 0 {
		t.Fatalf("partial window returned %d", got)
	}
	if got := r.stableAru(12); got != 0 {
		t.Fatalf("partial window returned %d", got)
	}
	if got := r.stableAru(14); got != 0 {
		t.Fatalf("partial window returned %d", got)
	}
	// Fourth observation fills the window: min(10,12,14,16) = 10.
	if got := r.stableAru(16); got != 10 {
		t.Fatalf("full window min = %d, want 10", got)
	}
	// A transient spike must not lift the threshold past the lagging
	// member's aru still in the window.
	if got := r.stableAru(100); got != 12 {
		t.Fatalf("after spike min = %d, want 12", got)
	}
	// The laggard reasserts a low aru: threshold follows down.
	if got := r.stableAru(13); got != 13 { // window now {14,16,100,13}
		t.Fatalf("min = %d, want 13", got)
	}
}

func TestSortU64(t *testing.T) {
	s := []uint64{5, 1, 4, 1, 3}
	sortU64(s)
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted: %v", s)
		}
	}
	sortU64(nil) // must not panic
	one := []uint64{9}
	sortU64(one)
	if one[0] != 9 {
		t.Fatal("singleton mangled")
	}
}

// TestMergeMissingCapped: the retransmission request list must stay within
// maxRtrList even with a huge gap.
func TestMergeMissingCapped(t *testing.T) {
	r := newBareRing(t, []ids.ProcessorID{1, 2}, 1)
	r.seq = 10000 // nothing received: everything "missing"
	got := r.mergeMissing(nil)
	if len(got) > maxRtrList {
		t.Fatalf("rtr list %d exceeds cap %d", len(got), maxRtrList)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("rtr list not strictly increasing: %v", got)
		}
	}
}

// TestFarFutureSeqIgnored: a message claiming an absurd sequence number
// (Byzantine state inflation) is dropped.
func TestFarFutureSeqIgnored(t *testing.T) {
	r := newBareRing(t, []ids.ProcessorID{1, 2}, 1)
	m := &wire.Regular{Sender: 2, Ring: 1, Seq: maxSeqAhead + 100, Contents: []byte("x")}
	r.HandleRegular(m.Marshal())
	if len(r.msgs) != 0 {
		t.Fatal("far-future message retained")
	}
}

// TestSeqZeroIgnored: sequence 0 is never assigned by the protocol.
func TestSeqZeroIgnored(t *testing.T) {
	r := newBareRing(t, []ids.ProcessorID{1, 2}, 1)
	m := &wire.Regular{Sender: 2, Ring: 1, Seq: 0, Contents: []byte("x")}
	r.HandleRegular(m.Marshal())
	if len(r.msgs) != 0 || r.m.Delivered.Load() != 0 {
		t.Fatal("seq-0 message accepted")
	}
}

// TestRecoveryRoundTrip: recovery digests/messages cover exactly the
// requested suffix of the delivered prefix.
func TestRecoveryRoundTrip(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	var delivered int
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Deliver: func(*wire.Regular) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		r.Submit([]byte{byte(i)})
	}
	r.Kickstart()
	if delivered != 4 {
		t.Fatalf("delivered %d", delivered)
	}
	msgs := r.RecoveryMessages(2)
	if len(msgs) != 2 {
		t.Fatalf("recovery messages above 2: %d, want 2", len(msgs))
	}
	for _, raw := range msgs {
		m, err := wire.UnmarshalRegular(raw)
		if err != nil || m.Seq <= 2 {
			t.Fatalf("bad recovery message %v (%v)", m, err)
		}
	}
	// LevelNone has no digests to recover.
	if ds := r.RecoveryDigests(0); ds != nil {
		t.Fatalf("digests at LevelNone: %v", ds)
	}
}

// TestDrainQueue hands pending submissions over for the next ring config.
func TestDrainQueue(t *testing.T) {
	r := newBareRing(t, []ids.ProcessorID{1, 2}, 2) // not the kickstarter
	r.Submit([]byte("a"))
	r.Submit([]byte("b"))
	q := r.DrainQueue()
	if len(q) != 2 || string(q[0]) != "a" || string(q[1]) != "b" {
		t.Fatalf("drained %q", q)
	}
	if r.QueuedSubmissions() != 0 {
		t.Fatal("queue not emptied")
	}
}
