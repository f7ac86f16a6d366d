package ring

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"immune/internal/netsim"
	"immune/internal/sec"
)

// TestSubmitQueueBound: the submit queue rejects past MaxQueue with
// ErrOverloaded, counts the shed submissions, and never exceeds the cap.
func TestSubmitQueueBound(t *testing.T) {
	c := newCluster(t, 3, sec.LevelNone, netsim.Config{}, func(cfg *Config) {
		cfg.MaxQueue = 8
	})
	defer c.net.Close()
	r := c.nodes[0].ring // never started: submissions stay queued

	for i := 0; i < 8; i++ {
		if err := r.Submit([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("submit %d under cap: %v", i, err)
		}
	}
	if q := r.QueuedSubmissions(); q != 8 {
		t.Fatalf("queued = %d, want 8", q)
	}
	for i := 0; i < 3; i++ {
		err := r.Submit([]byte("overflow"))
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit past cap: err = %v, want ErrOverloaded", err)
		}
	}
	if q := r.QueuedSubmissions(); q != 8 {
		t.Fatalf("queued = %d after rejects, want 8 (cap held)", q)
	}
	if shed := r.m.SubmitShed.Load(); shed != 3 {
		t.Fatalf("SubmitShed = %d, want 3", shed)
	}
}

// TestSubmitUnboundedWhenNegative: a negative MaxQueue disables the bound.
func TestSubmitUnboundedWhenNegative(t *testing.T) {
	c := newCluster(t, 3, sec.LevelNone, netsim.Config{}, func(cfg *Config) {
		cfg.MaxQueue = -1
	})
	defer c.net.Close()
	r := c.nodes[0].ring
	for i := 0; i < DefaultMaxQueue+10; i++ {
		if err := r.Submit([]byte("m")); err != nil {
			t.Fatalf("unbounded submit %d: %v", i, err)
		}
	}
}

// TestAruWindowThrottles: with a tight MaxUnstable the holder withholds
// origination when its sequence runs ahead of the stable aru, so the
// retransmission buffer stays bounded — yet every queued message is still
// delivered once the window re-opens (liveness under flow control).
func TestAruWindowThrottles(t *testing.T) {
	c := newCluster(t, 3, sec.LevelNone, netsim.Config{}, func(cfg *Config) {
		cfg.MaxUnstable = 2
		cfg.MaxPerVisit = 6
		cfg.MaxQueue = 256
	})
	defer c.stop()

	const perNode = 20
	for _, n := range c.nodes {
		for i := 0; i < perNode; i++ {
			if err := n.ring.Submit([]byte(fmt.Sprintf("%s-%d", n.id, i))); err != nil {
				t.Fatalf("submit on %s: %v", n.id, err)
			}
		}
	}
	c.start()
	if !c.waitDelivered(perNode*len(c.nodes), 10*time.Second) {
		t.Fatal("not all messages delivered under aru-window throttling")
	}
	c.stop() // the counts are final once the event loops quiesce
	c.checkAgreement()

	var throttled uint64
	for _, n := range c.nodes {
		throttled += n.ring.m.Throttled.Load()
	}
	if throttled == 0 {
		t.Fatal("Throttled = 0: the aru window never engaged under load")
	}
}
