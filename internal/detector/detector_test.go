package detector

import (
	"testing"
	"time"

	"immune/internal/ids"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestDetector(self ids.ProcessorID, clock *fakeClock) *Detector {
	d := New(Config{Self: self, Knobs: Knobs{SuspectTimeout: 10 * time.Millisecond}, Now: clock.now})
	d.SetView([]ids.ProcessorID{1, 2, 3, 4})
	return d
}

func TestNoSuspectsInitially(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	if got := d.Suspects(); len(got) != 0 {
		t.Fatalf("initial suspects = %v", got)
	}
}

func TestMutantTokenSuspectsImmediately(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.MutantToken(3, 7)
	if !d.Suspected(3) {
		t.Fatal("mutant-token sender not suspected")
	}
	if r := d.Reasons()[3]; r != ReasonMutantToken {
		t.Fatalf("reason = %v", r)
	}
}

func TestValueFaultSuspectsImmediately(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.ValueFaultSuspect(2)
	if !d.Suspected(2) {
		t.Fatal("value-fault processor not suspected")
	}
}

func TestStrikesAccumulate(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.MutantMessage(4, 1)
	d.MutantMessage(4, 2)
	if d.Suspected(4) {
		t.Fatal("suspected below strike threshold")
	}
	d.MutantMessage(4, 3)
	if !d.Suspected(4) {
		t.Fatal("not suspected at strike threshold")
	}
}

func TestInvalidTokenStrikes(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	for i := 0; i < 3; i++ {
		d.TokenInvalid(2, "bad signature")
	}
	if !d.Suspected(2) {
		t.Fatal("repeated invalid tokens did not suspect")
	}
}

func TestLivenessTimeoutSuspectsSuccessorOfLastHolder(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.TokenActivity(2, 10) // holder 2 acted; 3 is next
	c.advance(5 * time.Millisecond)
	d.Tick()
	if len(d.Suspects()) != 0 {
		t.Fatal("suspected before timeout")
	}
	c.advance(10 * time.Millisecond)
	d.Tick()
	if !d.Suspected(3) {
		t.Fatalf("expected P3 suspected, got %v", d.Suspects())
	}
}

func TestLivenessTimeoutNoActivitySuspectsStarter(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(2, c) // self is 2, so suspecting 1 is allowed
	c.advance(20 * time.Millisecond)
	d.Tick()
	if !d.Suspected(1) {
		t.Fatalf("expected starter P1 suspected, got %v", d.Suspects())
	}
}

func TestLivenessSkipsAlreadySuspected(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.TokenActivity(2, 10)
	d.MutantToken(3, 11) // 3 already suspected
	c.advance(20 * time.Millisecond)
	d.Tick()
	if !d.Suspected(4) {
		t.Fatalf("expected P4 (skipping suspected P3), got %v", d.Suspects())
	}
}

func TestNeverSelfSuspect(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(3, c)
	d.TokenActivity(2, 10) // successor of 2 is 3 == self
	c.advance(20 * time.Millisecond)
	d.Tick()
	if d.Suspected(3) {
		t.Fatal("detector suspected itself")
	}
	d.MutantToken(3, 1)
	d.ValueFaultSuspect(3)
	if d.Suspected(3) {
		t.Fatal("detector suspected itself on behavioural path")
	}
}

func TestAccuracyActivityClearsLivenessSuspicion(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.TokenActivity(2, 10)
	c.advance(20 * time.Millisecond)
	d.Tick()
	if !d.Suspected(3) {
		t.Fatal("setup: P3 not suspected")
	}
	// P3 turns out to be alive: Eventual Strong Accuracy requires the
	// suspicion to be withdrawn.
	d.TokenActivity(3, 11)
	if d.Suspected(3) {
		t.Fatal("liveness suspicion not cleared by renewed activity")
	}
}

func TestStickySuspicionSurvivesActivity(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.MutantToken(3, 5)
	d.TokenActivity(3, 6)
	if !d.Suspected(3) {
		t.Fatal("behavioural suspicion cleared by activity (must be permanent)")
	}
}

func TestSetViewClearsOnlyNonSticky(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.Unresponsive(2)   // non-sticky
	d.MutantToken(3, 1) // sticky
	d.SetView([]ids.ProcessorID{1, 3, 4})
	if d.Suspected(2) {
		t.Fatal("non-sticky suspicion survived view change")
	}
	if !d.Suspected(3) {
		t.Fatal("sticky suspicion dropped on view change")
	}
}

func TestOnSuspectFiresOnce(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	var fired []ids.ProcessorID
	d := New(Config{
		Self: 1, Knobs: Knobs{SuspectTimeout: 10 * time.Millisecond}, Now: c.now,
		OnSuspect: func(p ids.ProcessorID, _ Reason) { fired = append(fired, p) },
	})
	d.SetView([]ids.ProcessorID{1, 2, 3})
	d.MutantToken(2, 1)
	d.MutantToken(2, 2)
	d.ValueFaultSuspect(2)
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("OnSuspect fired %v, want exactly once for P2", fired)
	}
}

func TestStickyUpgrade(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.Unresponsive(2)
	d.ValueFaultSuspect(2)
	if r := d.Reasons()[2]; r != ReasonValueFault {
		t.Fatalf("non-sticky not upgraded: reason = %v", r)
	}
	// Downgrade must not happen.
	d.Unresponsive(2)
	if r := d.Reasons()[2]; r != ReasonValueFault {
		t.Fatalf("sticky downgraded to %v", r)
	}
}

func TestAdoptSuspicion(t *testing.T) {
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.AdoptSuspicion(4, ReasonMutantToken)
	if !d.Suspected(4) {
		t.Fatal("adopted suspicion not recorded")
	}
}

func TestCorroboratedSuspicionClearedByInstall(t *testing.T) {
	// A corroborated suspicion relays no fault class — it may be mere
	// silence — so it must not outlive the install that acted on it, or a
	// repaired processor could never rejoin (Eventual Inclusion, Table 4).
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.AdoptSuspicion(4, ReasonCorroborated)
	if !d.Suspected(4) {
		t.Fatal("corroborated suspicion not recorded")
	}
	d.SetView([]ids.ProcessorID{1, 2, 3})
	if d.Suspected(4) {
		t.Fatal("corroborated suspicion survived the install")
	}
	// Locally verified Byzantine evidence does survive.
	d.AdoptSuspicion(5, ReasonMutantToken)
	d.SetView([]ids.ProcessorID{1, 2, 3})
	if !d.Suspected(5) {
		t.Fatal("mutant-token suspicion cleared by install")
	}
}

func TestRepeatedStallWalksRing(t *testing.T) {
	// If the rotation stays stalled, successive timeouts implicate the
	// next processor along, never self.
	c := &fakeClock{t: time.Unix(0, 0)}
	d := newTestDetector(1, c)
	d.TokenActivity(1, 1) // successor is 2
	c.advance(20 * time.Millisecond)
	d.Tick()
	if !d.Suspected(2) {
		t.Fatalf("first stall: got %v", d.Suspects())
	}
	c.advance(20 * time.Millisecond)
	d.Tick()
	if !d.Suspected(3) {
		t.Fatalf("second stall: got %v", d.Suspects())
	}
	c.advance(20 * time.Millisecond)
	d.Tick()
	if !d.Suspected(4) {
		t.Fatalf("third stall: got %v", d.Suspects())
	}
	// All others suspected; next stall must not suspect self.
	c.advance(20 * time.Millisecond)
	d.Tick()
	if d.Suspected(1) {
		t.Fatal("self-suspected after full walk")
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		ReasonSilent: "silent", ReasonMutantToken: "mutant-token",
		ReasonMalformedToken: "malformed-token", ReasonMutantMessage: "mutant-message",
		ReasonValueFault: "value-fault", ReasonUnresponsive: "unresponsive",
		Reason(0): "Reason(0)",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

// TestTickDeadline pins the deadline Tick reports: lastActivity plus
// SuspectTimeout, rearmed by activity and by each suspicion step.
func TestTickDeadline(t *testing.T) {
	const timeout = 10 * time.Millisecond
	t0 := time.Unix(0, 0)
	for _, tc := range []struct {
		name  string
		setup func(d *Detector, c *fakeClock)
		want  time.Time // zero: none
	}{
		{"no view", func(d *Detector, _ *fakeClock) { d.SetView(nil) }, time.Time{}},
		{"view set", func(*Detector, *fakeClock) {}, t0.Add(timeout)},
		{"activity", func(d *Detector, c *fakeClock) {
			c.advance(4 * time.Millisecond)
			d.TokenActivity(2, 1)
			c.advance(time.Millisecond)
		}, t0.Add(4*time.Millisecond + timeout)},
		{"stall suspects and rearms", func(d *Detector, c *fakeClock) {
			c.advance(timeout + 2*time.Millisecond)
		}, t0.Add(2*timeout + 2*time.Millisecond)},
		{"nobody left to suspect", func(d *Detector, c *fakeClock) {
			for _, p := range []ids.ProcessorID{2, 3, 4} {
				d.MutantToken(p, 1)
			}
			c.advance(timeout)
		}, t0.Add(2 * timeout)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &fakeClock{t: t0}
			d := newTestDetector(1, c)
			tc.setup(d, c)
			if got := d.Tick(); !got.Equal(tc.want) {
				t.Fatalf("Tick() = %v, want %v", got, tc.want)
			}
		})
	}
}
