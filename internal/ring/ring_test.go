package ring

import (
	"fmt"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/netsim"
	"immune/internal/sec"
	"immune/internal/wire"
)

// levels runs a subtest per security level.
func levels(t *testing.T, f func(t *testing.T, level sec.Level)) {
	for _, l := range []sec.Level{sec.LevelNone, sec.LevelDigests, sec.LevelSignatures} {
		l := l
		t.Run(l.String(), func(t *testing.T) { f(t, l) })
	}
}

func TestTotalOrderFaultFree(t *testing.T) {
	levels(t, func(t *testing.T, level sec.Level) {
		c := newCluster(t, 3, level, netsim.Config{})
		c.start()
		defer c.stop()

		const perNode = 20
		for i, n := range c.nodes {
			for k := 0; k < perNode; k++ {
				n.ring.Submit([]byte(fmt.Sprintf("msg-%d-%d", i, k)))
			}
		}
		total := perNode * len(c.nodes)
		if !c.waitDelivered(total, 5*time.Second) {
			for _, n := range c.nodes {
				t.Logf("node %s delivered %d, stats\n%s", n.id, n.deliveredCount(), n.reg.Snapshot())
			}
			t.Fatal("not all messages delivered")
		}
		c.checkAgreement()
	})
}

func TestReliableDeliveryUnderLoss(t *testing.T) {
	levels(t, func(t *testing.T, level sec.Level) {
		plan := netsim.NewProbabilistic(1234, 0.15, 0, 0, 0)
		c := newCluster(t, 4, level, netsim.Config{Plan: plan, Seed: 99})
		c.start()
		defer c.stop()

		const perNode = 15
		for i, n := range c.nodes {
			for k := 0; k < perNode; k++ {
				n.ring.Submit([]byte(fmt.Sprintf("lossy-%d-%d", i, k)))
			}
		}
		total := perNode * len(c.nodes)
		if !c.waitDelivered(total, 20*time.Second) {
			for _, n := range c.nodes {
				t.Logf("node %s delivered %d, stats\n%s", n.id, n.deliveredCount(), n.reg.Snapshot())
			}
			t.Fatal("reliable delivery violated under message loss")
		}
		c.checkAgreement()
	})
}

func TestUniquenessUnderCorruption(t *testing.T) {
	// Corruption in transit: at LevelDigests and above the digest list in
	// the token screens out corrupted copies and retransmission recovers
	// the genuine message (Table 1: message corruption).
	for _, level := range []sec.Level{sec.LevelDigests, sec.LevelSignatures} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			// Corrupt ~25% of regular-message copies, never tokens, so the
			// rotation survives; the decision is per copy, so
			// retransmissions of the genuine message eventually get
			// through (retransmitting over a channel that corrupts the
			// same message every time is indistinguishable from permanent
			// loss, which is a membership-level fault, not a delivery one).
			inner := netsim.NewProbabilistic(555, 0, 0.25, 0, 0)
			var corruptPlan netsim.FaultPlan = netsim.PlanFunc(
				func(f netsim.Frame, r ids.ProcessorID) (netsim.Verdict, time.Duration) {
					if k, err := wire.PeekKind(f.Payload); err == nil && k == wire.KindRegular {
						return inner.Judge(f, r)
					}
					return netsim.Deliver, 0
				})
			c := newCluster(t, 3, level, netsim.Config{Plan: corruptPlan, Seed: 7})
			c.start()
			defer c.stop()

			const perNode = 12
			want := make(map[string]bool)
			for i, n := range c.nodes {
				for k := 0; k < perNode; k++ {
					s := fmt.Sprintf("payload-%d-%d", i, k)
					want[s] = true
					n.ring.Submit([]byte(s))
				}
			}
			total := perNode * len(c.nodes)
			if !c.waitDelivered(total, 20*time.Second) {
				for _, n := range c.nodes {
					t.Logf("node %s delivered %d stats\n%s", n.id, n.deliveredCount(), n.reg.Snapshot())
				}
				t.Fatal("delivery stalled under corruption")
			}
			c.checkAgreement()
			// Uniqueness: every delivered message is a genuine original.
			for _, n := range c.nodes {
				for _, m := range n.deliveredSnapshot() {
					if !want[string(m.Contents)] {
						t.Fatalf("node %s delivered corrupted contents %q", n.id, m.Contents)
					}
				}
			}
		})
	}
}

func TestTokenLossRecovery(t *testing.T) {
	// Drop a burst of frames early (including tokens); the token resend
	// timer must revive the rotation.
	c := newCluster(t, 3, sec.LevelNone, netsim.Config{Plan: netsim.LoseFirstN(4)})
	c.start()
	defer c.stop()

	for _, n := range c.nodes {
		n.ring.Submit([]byte("after-storm"))
	}
	if !c.waitDelivered(3, 10*time.Second) {
		t.Fatal("rotation did not recover from token loss")
	}
	c.checkAgreement()
}

func TestForgedTokenRejected(t *testing.T) {
	// A non-member (or member without the right key) forges a token. At
	// LevelSignatures every correct processor rejects it and reports the
	// claimed sender.
	c := newCluster(t, 3, sec.LevelSignatures, netsim.Config{})
	c.start()
	defer c.stop()

	// Let the ring make progress first.
	c.nodes[0].ring.Submit([]byte("legit"))
	if !c.waitDelivered(1, 5*time.Second) {
		t.Fatal("no initial progress")
	}

	// Attacker attaches to the LAN and multicasts a forged token claiming
	// to be from processor 2 with a far-future visit.
	attacker, err := c.net.Attach(77)
	if err != nil {
		t.Fatal(err)
	}
	forged := &wire.Token{
		Sender: 2, Ring: 1, Visit: 1 << 40, Seq: 1 << 40, Aru: 0,
		Signature: []byte{1, 2, 3},
	}
	attacker.Multicast(forged.Marshal())

	// The ring must keep working.
	c.nodes[1].ring.Submit([]byte("still-alive"))
	if !c.waitDelivered(2, 5*time.Second) {
		t.Fatal("forged token wedged the ring")
	}
	c.checkAgreement()

	// The forgery is rejected on signature grounds but NOT attributed to
	// the claimed sender P2 (an invalid signature proves only that a
	// forgery exists): no invalid-token reports, only rejects.
	for _, n := range c.nodes {
		if inv, mt, _ := n.rec.counts(); inv != 0 || mt != 0 {
			t.Fatalf("forged token was attributed to a correct processor (inv=%d mutant=%d)", inv, mt)
		}
	}
	// Stop the loops so the counts are final.
	c.stop()
	rejected := false
	for _, n := range c.nodes {
		if n.ring.m.TokenRejects.Load() > 0 {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("no processor rejected the forged token")
	}
}

func TestMutantMessageSuppressed(t *testing.T) {
	// A faulty processor multicasts a mutant version of a message (same
	// seq, different contents) racing the genuine one. With digests, no
	// correct processor may deliver the mutant (Table 2 Uniqueness).
	c := newCluster(t, 3, sec.LevelDigests, netsim.Config{})
	c.start()
	defer c.stop()

	c.nodes[0].ring.Submit([]byte("genuine-0"))
	if !c.waitDelivered(1, 5*time.Second) {
		t.Fatal("no progress")
	}

	// Forge mutants for the next several sequence numbers and blast them
	// before the genuine messages are originated.
	attacker, err := c.net.Attach(88)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(2); seq <= 6; seq++ {
		mutant := &wire.Regular{Sender: 1, Ring: 1, Seq: seq, Contents: []byte("MUTANT")}
		attacker.Multicast(mutant.Marshal())
	}

	for i, n := range c.nodes {
		n.ring.Submit([]byte(fmt.Sprintf("genuine-%d", i+1)))
	}
	if !c.waitDelivered(4, 10*time.Second) {
		for _, n := range c.nodes {
			t.Logf("node %s delivered %d stats\n%s", n.id, n.deliveredCount(), n.reg.Snapshot())
		}
		t.Fatal("mutant injection stalled delivery")
	}
	c.checkAgreement()
	for _, n := range c.nodes {
		for _, m := range n.deliveredSnapshot() {
			if string(m.Contents) == "MUTANT" {
				t.Fatalf("node %s delivered a mutant message", n.id)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	suite, err := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	trans := transportFunc(func([]byte) {})
	deliver := func(*wire.Regular) {}
	base := Config{
		Self: 1, Members: []ids.ProcessorID{1, 2, 3}, Ring: 1,
		Suite: suite, Trans: trans, Deliver: deliver,
	}

	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"empty members": func(c *Config) { c.Members = nil },
		"nil deliver":   func(c *Config) { c.Deliver = nil },
		"nil transport": func(c *Config) { c.Trans = nil },
		"nil suite":     func(c *Config) { c.Suite = nil },
		"self missing":  func(c *Config) { c.Self = 9 },
		"unsorted":      func(c *Config) { c.Members = []ids.ProcessorID{2, 1, 3} },
		"duplicate":     func(c *Config) { c.Members = []ids.ProcessorID{1, 1, 3} },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// transportFunc adapts a func to Transport.
type transportFunc func([]byte)

func (f transportFunc) Multicast(p []byte) { f(p) }

func TestSuccessorOrder(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 2, nil, nil)
	r, err := New(Config{
		Self: 2, Members: []ids.ProcessorID{1, 2, 5}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Deliver: func(*wire.Regular) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Successor() != 5 {
		t.Fatalf("successor of 2 in {1,2,5} = %s, want P5", r.Successor())
	}
	if r.predecessor() != 1 {
		t.Fatalf("predecessor = %s, want P1", r.predecessor())
	}

	// Wrap-around.
	r5, err := New(Config{
		Self: 5, Members: []ids.ProcessorID{1, 2, 5}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Deliver: func(*wire.Regular) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r5.Successor() != 1 {
		t.Fatalf("successor of 5 = %s, want P1", r5.Successor())
	}
}

func TestStaleRingIgnored(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	var sent [][]byte
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1, 2}, Ring: 5,
		Suite: suite, Trans: transportFunc(func(p []byte) { sent = append(sent, p) }),
		Deliver: func(*wire.Regular) { t.Fatal("delivered message from stale ring") },
		Metrics: testMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Token and message for a different ring id must be ignored.
	r.HandleToken((&wire.Token{Sender: 2, Ring: 4, Visit: 1}).Marshal())
	r.HandleRegular((&wire.Regular{Sender: 2, Ring: 4, Seq: 1, Contents: []byte("x")}).Marshal())
	if len(sent) != 0 {
		t.Fatal("stale-ring token triggered activity")
	}
	if r.m.TokenVisits.Load() != 0 {
		t.Fatal("stale-ring token counted as visit")
	}
}

func TestNonMemberTrafficIgnored(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	rec := &recorder{}
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1, 2}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Obs:     rec,
		Deliver: func(*wire.Regular) { t.Fatal("delivered non-member message") },
		Metrics: testMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.HandleToken((&wire.Token{Sender: 42, Ring: 1, Visit: 1}).Marshal())
	r.HandleRegular((&wire.Regular{Sender: 42, Ring: 1, Seq: 1, Contents: []byte("x")}).Marshal())
	if inv, _, _ := rec.counts(); inv != 0 {
		t.Fatalf("non-member traffic attributed (%d reports); it is not attributable", inv)
	}
	if r.m.TokenRejects.Load() != 1 {
		t.Fatalf("TokenRejects = %d, want 1", r.m.TokenRejects.Load())
	}
}

func TestMalformedTokenRejected(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	rec := &recorder{}
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1, 2}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Obs:     rec,
		Deliver: func(*wire.Regular) {},
		Metrics: testMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := &wire.Token{Sender: 2, Ring: 1, Visit: 1, Seq: 5, Aru: 9} // aru > seq
	r.HandleToken(bad.Marshal())
	if inv, _, _ := rec.counts(); inv != 1 {
		t.Fatalf("malformed token not reported (invalid=%d)", inv)
	}
	if r.m.TokenRejects.Load() != 1 {
		t.Fatalf("TokenRejects = %d, want 1", r.m.TokenRejects.Load())
	}
}

func TestStopMakesEventsNoOps(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	var sent int
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1, 2}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) { sent++ }),
		Deliver: func(*wire.Regular) { t.Fatal("delivery after Stop") },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Stop()
	r.Kickstart()
	r.HandleToken((&wire.Token{Sender: 2, Ring: 1, Visit: 1}).Marshal())
	r.HandleRegular((&wire.Regular{Sender: 2, Ring: 1, Seq: 1}).Marshal())
	r.Tick()
	if sent != 0 {
		t.Fatal("stopped ring transmitted")
	}
}

func TestDuplicateTokenIgnoredMutantReported(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 2, nil, nil)
	rec := &recorder{}
	r, err := New(Config{
		Self: 2, Members: []ids.ProcessorID{1, 2, 3}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Obs:     rec,
		Deliver: func(*wire.Regular) {},
		Metrics: testMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Token from 3 (whose successor is 1, not us): accepted, not held.
	tok := &wire.Token{Sender: 3, Ring: 1, Visit: 5}
	r.HandleToken(tok.Marshal())
	if r.m.TokenVisits.Load() != 1 || r.m.TokensSigned.Load() != 0 {
		t.Fatalf("visits = %d, holds = %d", r.m.TokenVisits.Load(), r.m.TokensSigned.Load())
	}
	// Exact duplicate: silently ignored.
	r.HandleToken(tok.Marshal())
	if _, mt, _ := rec.counts(); mt != 0 {
		t.Fatal("duplicate token misreported as mutant")
	}
	// Mutant: same visit, different contents.
	mutant := &wire.Token{Sender: 3, Ring: 1, Visit: 5, Seq: 99}
	r.HandleToken(mutant.Marshal())
	if _, mt, _ := rec.counts(); mt != 1 {
		t.Fatal("mutant token not reported")
	}
}

func TestSubmitCopiesContents(t *testing.T) {
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	var delivered []*wire.Regular
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1}, Ring: 1,
		Suite: suite, Trans: transportFunc(func([]byte) {}),
		Deliver: func(m *wire.Regular) { delivered = append(delivered, m) },
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("before")
	r.Submit(buf)
	copy(buf, "MUTATE")
	r.Kickstart() // single-member ring: originate and deliver immediately
	if len(delivered) != 1 || string(delivered[0].Contents) != "before" {
		t.Fatalf("delivered %v; submission not copied", delivered)
	}
}

func TestSingleMemberRing(t *testing.T) {
	// Degenerate but legal: one member, token loops to itself.
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	var delivered int
	var sentTokens [][]byte
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1}, Ring: 1,
		Suite: suite,
		Trans: transportFunc(func(p []byte) {
			if k, _ := wire.PeekKind(p); k == wire.KindToken {
				sentTokens = append(sentTokens, p)
			}
		}),
		Deliver: func(*wire.Regular) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Submit([]byte("a"))
	r.Submit([]byte("b"))
	r.Kickstart()
	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (self-origination delivers locally)", delivered)
	}
	if len(sentTokens) != 1 {
		t.Fatalf("sent %d tokens, want 1", len(sentTokens))
	}
}

func TestBatchBound(t *testing.T) {
	// A holder may originate at most MaxPerVisit messages per visit.
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	var regulars int
	r, err := New(Config{
		Self: 1, Members: []ids.ProcessorID{1}, Ring: 1, Knobs: Knobs{MaxPerVisit: 3},
		Suite: suite,
		Trans: transportFunc(func(p []byte) {
			if k, _ := wire.PeekKind(p); k == wire.KindRegular {
				regulars++
			}
		}),
		Deliver: func(*wire.Regular) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		r.Submit([]byte{byte(i)})
	}
	r.Kickstart()
	if regulars != 3 {
		t.Fatalf("first visit originated %d, want 3", regulars)
	}
	if r.QueuedSubmissions() != 7 {
		t.Fatalf("queue = %d, want 7", r.QueuedSubmissions())
	}
}
