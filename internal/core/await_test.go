package core

import (
	"testing"
	"time"

	"immune/internal/orb"
	"immune/internal/sec"
)

// TestConcurrentWaitGroupActive: every goroutine waiting on one group is
// woken by its activation, not by a later re-check. Each activation fires
// the signal once per manager, so a few waiters could each catch a fire of
// their own even from a channel that wakes one waiter per fire; sixteen
// cannot.
func TestConcurrentWaitGroupActive(t *testing.T) {
	sys, err := NewSystem(Config{Processors: 4, Level: sec.LevelNone, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	const waiters = 16
	returned := make(chan time.Time, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			if err := sys.WaitGroupActive(kvGroup, 3, 20*time.Second); err != nil {
				t.Error(err)
			}
			returned <- time.Now()
		}()
	}
	// Let the waiters park before the group exists.
	time.Sleep(20 * time.Millisecond)
	if _, err := sys.HostGroup(kvGroup, kvKey, 3, func() orb.Servant { return newKVServant() }); err != nil {
		t.Fatal(err)
	}

	// Activation is the moment the home ring's directory first counts
	// three active replicas; observe it by polling independently.
	r := sys.RingOf(kvGroup)
	var activated time.Time
	for deadline := time.Now().Add(20 * time.Second); activated.IsZero(); {
		if ref := sys.reference(r); ref != nil && ref.mgrs[r].ActiveCount(kvGroup) >= 3 {
			activated = time.Now()
		} else if time.Now().After(deadline) {
			t.Fatal("group never activated")
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := 0; i < waiters; i++ {
		if late := (<-returned).Sub(activated); late > 50*time.Millisecond {
			t.Errorf("waiter %d returned %v after activation, want within 50ms", i, late)
		}
	}
}
