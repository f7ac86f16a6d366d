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

// TestMergeMissingCapped: the retransmission request list must stay within
// maxRtrList even with a huge gap.
func TestMergeMissingCapped(t *testing.T) {
	r := newBareRing(t, []ids.ProcessorID{1, 2}, 1)
	r.seq = 10000 // nothing received: everything "missing"
	got := r.mergeMissing(nil, r.seq)
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

// steppedRing is a ring of bare participants stepped synchronously: every
// multicast is queued and handed to the other members one frame at a time.
// tamper, when set, may rewrite a token frame on its way out of the queue.
type steppedRing struct {
	rings  []*Ring
	queue  []steppedFrame
	tamper func(tok *wire.Token) *wire.Token
}

type steppedFrame struct {
	from    int
	payload []byte
}

func newSteppedRing(t *testing.T, members int) *steppedRing {
	t.Helper()
	s := &steppedRing{}
	all := make([]ids.ProcessorID, members)
	for i := range all {
		all[i] = ids.ProcessorID(i + 1)
	}
	for i, p := range all {
		i := i
		suite, err := sec.NewSuite(sec.LevelDigests, p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(Config{
			Self: p, Members: all, Ring: 1, Suite: suite,
			Knobs:   Knobs{IdleDelay: -1},
			Trans:   transportFunc(func(b []byte) { s.queue = append(s.queue, steppedFrame{i, b}) }),
			Deliver: func(*wire.Regular) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.rings = append(s.rings, r)
	}
	return s
}

// visit dispatches queued frames up to and including the next token.
func (s *steppedRing) visit(t *testing.T) {
	t.Helper()
	for {
		if len(s.queue) == 0 {
			t.Fatal("the token was lost")
		}
		f := s.queue[0]
		s.queue = s.queue[1:]
		kind, err := wire.PeekKind(f.payload)
		if err != nil {
			t.Fatal(err)
		}
		if kind == wire.KindToken && s.tamper != nil {
			tok, err := wire.UnmarshalToken(f.payload)
			if err != nil {
				t.Fatal(err)
			}
			f.payload = s.tamper(tok).Marshal()
		}
		for i, r := range s.rings {
			if i == f.from {
				continue
			}
			if kind == wire.KindToken {
				r.HandleToken(append([]byte(nil), f.payload...))
			} else {
				r.HandleRegular(append([]byte(nil), f.payload...))
			}
		}
		if kind == wire.KindToken {
			return
		}
	}
}

// TestBooksStayBoundedOverManyVisits: msgs, digestBook and tokensSeen are
// trimmed by marks that only move forward, so nothing may be written
// behind a mark — not by a token or a flush vouching for sequence numbers
// already released — and a faulty jump in visit numbers must cost no more
// than one window.
func TestBooksStayBoundedOverManyVisits(t *testing.T) {
	s := newSteppedRing(t, 3)
	stale := func() []wire.DigestEntry {
		var out []wire.DigestEntry
		for seq := uint64(1); seq <= 40; seq++ {
			out = append(out, wire.DigestEntry{Seq: seq, Digest: sec.Digest([]byte{byte(seq)})})
		}
		return out
	}
	visits := 0
	s.tamper = func(tok *wire.Token) *wire.Token {
		cp := &wire.Token{
			Sender: tok.Sender, Ring: tok.Ring, Visit: tok.Visit, Seq: tok.Seq,
			Aru: tok.Aru, AruSetter: tok.AruSetter, RtrList: tok.RtrList,
			DigestList: tok.DigestList, PrevTokenDigest: tok.PrevTokenDigest,
			RtgList: tok.RtgList, Signature: tok.Signature,
		}
		switch {
		case visits > 1000 && visits%500 == 0:
			cp.DigestList = append(stale(), cp.DigestList...)
		case visits == 3001:
			cp.Visit += 1 << 40
		}
		return cp
	}
	s.rings[0].Kickstart()
	for visits = 0; visits < 6000; visits++ {
		for _, r := range s.rings {
			if r.QueuedSubmissions() == 0 {
				r.Submit([]byte{byte(visits), byte(visits >> 8)})
			}
		}
		if visits > 1000 && visits%700 == 0 {
			s.rings[1].AdoptFlushDigests(stale(), 3)
		}
		s.visit(t)
	}
	for i, r := range s.rings {
		if r.visit < 1<<40 {
			t.Fatalf("ring %d never took the jumped visit (visit %d)", i, r.visit)
		}
		if r.released < 5000 {
			t.Fatalf("ring %d released only %d sequence numbers", i, r.released)
		}
		for seq := range r.digestBook {
			if seq <= r.released {
				t.Fatalf("ring %d keeps a digest for released seq %d", i, seq)
			}
		}
		for seq := range r.msgs {
			if seq <= r.released {
				t.Fatalf("ring %d keeps released message %d", i, seq)
			}
		}
		if n := len(r.msgs) + len(r.digestBook) + len(r.tokensSeen); n > tokenWindow+256 {
			t.Fatalf("ring %d holds %d entries (%d msgs, %d digests, %d tokens)",
				i, n, len(r.msgs), len(r.digestBook), len(r.tokensSeen))
		}
	}
}

// heldToken decodes the token at the tail of the queue: the one the last
// holder just passed on.
func (s *steppedRing) heldToken(t *testing.T) *wire.Token {
	t.Helper()
	tok, err := wire.UnmarshalToken(s.queue[len(s.queue)-1].payload)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// TestGapGetsOneRotationOfGrace: over a real transport a token overtakes
// the regulars multicast just before it. The next holder must not request
// them on that visit (they are late, not lost); a message still missing
// at the holder's next visit is requested then, and recovered.
func TestGapGetsOneRotationOfGrace(t *testing.T) {
	s := newSteppedRing(t, 3)
	s.rings[0].Kickstart()
	for i := 0; i < 6; i++ {
		s.visit(t)
	}
	// The token in the queue is ring 0's; ring 1 holds next and originates.
	originate := func() {
		t.Helper()
		if err := s.rings[1].Submit([]byte("m")); err != nil {
			t.Fatal(err)
		}
		s.visit(t)
		if len(s.queue) != 2 {
			t.Fatalf("holder emitted %d frames, want its regular and the token", len(s.queue))
		}
	}

	// Late: the token reaches ring 2 before the regular does.
	originate()
	s.queue[0], s.queue[1] = s.queue[1], s.queue[0]
	s.visit(t)
	if rtr := s.heldToken(t).RtrList; len(rtr) != 0 {
		t.Fatalf("ring 2 requested %v on the visit the token overtook the regular", rtr)
	}
	for i := 0; i < 4; i++ { // rings 0, 1, 2, 0 hold; ring 1 is next again
		s.visit(t) // the regular arrives first thing
		if rtr := s.heldToken(t).RtrList; len(rtr) != 0 {
			t.Fatalf("visit %d after the late regular arrived requests %v", i, rtr)
		}
	}

	// Lost: the regular reaches nobody.
	originate()
	s.queue = s.queue[1:]
	for i, want := range []int{0, 0, 0, 1} { // rings 2, 0, 1 hold, then ring 2 again
		s.visit(t)
		if rtr := s.heldToken(t).RtrList; len(rtr) != want {
			t.Fatalf("hold %d after the loss requests %v, want %d entries", i, rtr, want)
		}
	}
	for i := 0; i < 9; i++ {
		s.visit(t)
	}
	for i, r := range s.rings {
		if r.Delivered() != 2 {
			t.Fatalf("ring %d delivered %d of 2 messages: the lost one was not recovered", i, r.Delivered())
		}
	}
}
