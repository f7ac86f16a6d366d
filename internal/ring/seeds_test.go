package ring

import (
	"fmt"
	"testing"
	"time"

	"immune/internal/netsim"
	"immune/internal/sec"
)

// TestAgreementAcrossSeeds sweeps fault-injection seeds: for every seed the
// Table 2 properties must hold under simultaneous loss and duplication.
// This is the regression net for the aru/GC interaction that once let a
// transiently raised aru garbage-collect a message a lagging processor
// still needed.
func TestAgreementAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for _, seed := range []uint64{1, 7, 1234, 99999} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := netsim.NewProbabilistic(seed, 0.12, 0, 0.05, 0)
			c := newCluster(t, 4, sec.LevelDigests, netsim.Config{Plan: plan, Seed: seed})
			c.start()
			defer c.stop()

			const perNode = 12
			for i, n := range c.nodes {
				for k := 0; k < perNode; k++ {
					n.ring.Submit([]byte(fmt.Sprintf("s%d-%d-%d", seed, i, k)))
				}
			}
			if !c.waitDelivered(perNode*4, 30*time.Second) {
				for _, n := range c.nodes {
					t.Logf("node %s delivered %d stats\n%s", n.id, n.deliveredCount(), n.reg.Snapshot())
				}
				t.Fatal("delivery incomplete")
			}
			c.checkAgreement()
		})
	}
}

// TestAgreementSignedRandomSeeds sweeps randomized fault-injection seeds
// at LevelSignatures, where the signature-verify cache is live: loss and
// duplication force token retransmissions (cache hits) while every node
// must still deliver a unique, totally ordered, identical sequence. The
// seeds are drawn from a seeded RNG so each run covers a reproducible but
// non-hand-picked corner of the schedule space.
func TestAgreementSignedRandomSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	seeds := make([]uint64, 0, 4)
	s := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		seeds = append(seeds, s)
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := netsim.NewProbabilistic(seed, 0.10, 0, 0.08, 0)
			c := newCluster(t, 3, sec.LevelSignatures, netsim.Config{Plan: plan, Seed: seed})
			c.start()
			defer c.stop()

			const perNode = 8
			for i, n := range c.nodes {
				for k := 0; k < perNode; k++ {
					n.ring.Submit([]byte(fmt.Sprintf("sig%d-%d-%d", seed, i, k)))
				}
			}
			if !c.waitDelivered(perNode*3, 60*time.Second) {
				for _, n := range c.nodes {
					t.Logf("node %s delivered %d stats\n%s", n.id, n.deliveredCount(), n.reg.Snapshot())
				}
				t.Fatal("delivery incomplete at LevelSignatures")
			}
			c.checkAgreement()
			// The fault plan duplicates ~8% of frames; with the verify
			// cache those duplicates must not be re-verified, which shows
			// up as no node rejecting a genuine duplicate. (Agreement above
			// is the hard property; this is the performance invariant's
			// observable shadow: no spurious mutant-token reports on
			// duplicated-but-identical tokens.)
			for _, n := range c.nodes {
				if _, mt, _ := n.rec.counts(); mt != 0 {
					t.Fatalf("node %s reported %d mutant tokens in a mutant-free run", n.id, mt)
				}
			}
		})
	}
}

// TestDelayedFramesReordered injects random extra delays so frames arrive
// out of order; total order must still hold (channels are not FIFO, §3).
func TestDelayedFramesReordered(t *testing.T) {
	plan := netsim.NewProbabilistic(5, 0, 0, 0, 2*time.Millisecond)
	c := newCluster(t, 3, sec.LevelDigests, netsim.Config{Plan: plan, Seed: 5})
	c.start()
	defer c.stop()

	const perNode = 10
	for i, n := range c.nodes {
		for k := 0; k < perNode; k++ {
			n.ring.Submit([]byte(fmt.Sprintf("d-%d-%d", i, k)))
		}
	}
	if !c.waitDelivered(perNode*3, 30*time.Second) {
		t.Fatal("delivery incomplete under reordering")
	}
	c.checkAgreement()
}

// TestGCBoundsMemory pins that delivered-and-stable messages are released:
// after sustained traffic the per-node retained message map must stay far
// below the total number of messages ordered.
func TestGCBoundsMemory(t *testing.T) {
	c := newCluster(t, 3, sec.LevelNone, netsim.Config{})
	c.start()
	defer c.stop()

	const perNode = 200
	for i, n := range c.nodes {
		for k := 0; k < perNode; k++ {
			n.ring.Submit([]byte(fmt.Sprintf("gc-%d-%d", i, k)))
		}
	}
	if !c.waitDelivered(perNode*3, 30*time.Second) {
		t.Fatal("delivery incomplete")
	}
	// Drive a few idle rotations so the aru window fills and GC runs.
	time.Sleep(50 * time.Millisecond)
	for _, n := range c.nodes {
		n.stopFlag.Store(true)
	}
	for _, n := range c.nodes {
		<-n.done
	}
	for _, n := range c.nodes {
		if retained := len(n.ring.msgs); retained > 150 {
			t.Fatalf("node %s retains %d of %d messages; GC ineffective",
				n.id, retained, perNode*3)
		}
	}
	c.net.Close()
}
