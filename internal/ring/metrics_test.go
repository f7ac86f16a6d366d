package ring

import (
	"testing"
	"time"

	"immune/internal/netsim"
	"immune/internal/obs"
	"immune/internal/sec"
)

// TestDisabledMetricsZeroAllocsOnHotPath is the allocs/op budget for the
// instrumentation: an uninstrumented ring carries the zero-value Metrics,
// and every hook site on the token hot path (signing, verification, cache
// hits, delivery, origination, rejects, rotation) must cost zero
// allocations when disabled. The rotation histogram site additionally
// guards its clock read behind a nil check, mirrored here.
func TestDisabledMetricsZeroAllocsOnHotPath(t *testing.T) {
	var m Metrics // zero value: every hook disabled
	var lastHold time.Time
	allocs := testing.AllocsPerRun(1000, func() {
		// The exact calls holdToken/verifyOnce/tryDeliver/Tick make.
		if m.Rotation != nil {
			now := time.Now()
			if !lastHold.IsZero() {
				m.Rotation.Observe(now.Sub(lastHold))
			}
			lastHold = now
		}
		m.TokensSigned.Inc()
		m.TokensVerified.Add(3)
		m.VerifyCacheHits.Inc()
		m.Delivered.Inc()
		m.Originated.Inc()
		m.Retransmissions.Inc()
		m.TokenResends.Inc()
		m.Rejects.Inc()
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics hooks allocate %.1f allocs/op on the hot path, want 0", allocs)
	}
}

// TestEnabledMetricsCountRingActivity drives a real signed ring with
// metrics installed and checks the counters reflect the protocol activity.
func TestEnabledMetricsCountRingActivity(t *testing.T) {
	reg := obs.NewRegistry()
	c := newCluster(t, 3, sec.LevelSignatures, netsim.Config{},
		func(cfg *Config) { cfg.Metrics = MetricsFrom(reg, "") })
	c.start()
	defer c.stop()

	for _, n := range c.nodes {
		n.ring.Submit([]byte("payload-" + n.id.String()))
	}
	if !c.waitDelivered(len(c.nodes), 5*time.Second) {
		t.Fatal("not all messages delivered")
	}

	snap := reg.Snapshot()
	// Counters aggregate across all three nodes: each node delivers every
	// message, and each originated one.
	if got := snap.Counters["ring.delivered"]; got < 9 {
		t.Fatalf("ring.delivered = %d, want >= 9", got)
	}
	if got := snap.Counters["ring.originated"]; got < 3 {
		t.Fatalf("ring.originated = %d, want >= 3", got)
	}
	if got := snap.Counters["ring.tokens_signed"]; got == 0 {
		t.Fatal("ring.tokens_signed stayed zero")
	}
	if got := snap.Counters["ring.tokens_verified"] + snap.Counters["ring.verify_cache_hits"]; got == 0 {
		t.Fatal("no token verifications observed")
	}
	if snap.Histograms["ring.rotation"].Count == 0 {
		t.Fatal("ring.rotation observed no rotations")
	}
}
