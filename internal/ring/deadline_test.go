package ring

import (
	"sort"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/wire"
)

// clockedRing is member 2 of ring {1,2,3} at LevelNone on a manual clock,
// recording every frame it multicasts. It is ticked once on creation, as
// the smp stack ticks its rings, so it paces an idle ring.
type clockedRing struct {
	r      *Ring
	clock  time.Time
	tokens []*wire.Token
	regs   int
}

func newClockedRing(t *testing.T, knobs Knobs) *clockedRing {
	t.Helper()
	suite, _ := sec.NewSuite(sec.LevelNone, 2, nil, nil)
	c := &clockedRing{clock: time.Unix(1000, 0)}
	r, err := New(Config{
		Self: 2, Members: []ids.ProcessorID{1, 2, 3}, Ring: 1,
		Suite: suite,
		Trans: transportFunc(func(raw []byte) {
			if k, _ := wire.PeekKind(raw); k == wire.KindToken {
				tok, _ := wire.UnmarshalToken(raw)
				c.tokens = append(c.tokens, tok)
			} else {
				c.regs++
			}
		}),
		Deliver: func(*wire.Regular) {},
		Knobs:   knobs,
		Now:     func() time.Time { return c.clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	c.r = r
	r.Tick()
	return c
}

// idleToken is a token from member 1 that meets the idle-hold condition
// at a fresh member 2: no rtr list, no sequence progress, empty queue.
func idleToken(visit uint64) []byte {
	return (&wire.Token{Sender: 1, Ring: 1, Visit: visit}).Marshal()
}

// TestIdleHoldDoesNotBlock: with a 200 ms IdleDelay, HandleToken on an
// idle token returns at once and holds the token as state; Tick passes it
// only once the hold has expired, and a Submit followed by Tick passes it
// at once with the submission originated.
func TestIdleHoldDoesNotBlock(t *testing.T) {
	const idle = 200 * time.Millisecond
	var took []time.Duration
	for i := 0; i < 5; i++ {
		c := newClockedRing(t, Knobs{IdleDelay: idle})
		start := time.Now()
		c.r.HandleToken(idleToken(1))
		took = append(took, time.Since(start))
	}
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	if med := took[len(took)/2]; med > idle/4 {
		t.Fatalf("HandleToken on an idle token took %v (median of 5), want well under %v", med, idle)
	}

	c := newClockedRing(t, Knobs{IdleDelay: idle})
	c.r.HandleToken(idleToken(1))
	if !c.r.Holding() || len(c.tokens) != 0 {
		t.Fatalf("idle token: holding=%v, %d tokens passed; want held", c.r.Holding(), len(c.tokens))
	}
	c.clock = c.clock.Add(idle - time.Millisecond)
	c.r.Tick()
	if len(c.tokens) != 0 {
		t.Fatal("token passed before the hold expired")
	}
	c.clock = c.clock.Add(time.Millisecond)
	c.r.Tick()
	if len(c.tokens) != 1 || c.tokens[0].Visit != 2 || c.r.Holding() {
		t.Fatalf("after the hold: %d tokens, holding=%v; want visit 2 passed", len(c.tokens), c.r.Holding())
	}

	c = newClockedRing(t, Knobs{IdleDelay: idle})
	c.r.HandleToken(idleToken(1))
	if err := c.r.Submit([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c.r.Tick()
	if len(c.tokens) != 1 || c.tokens[0].Seq != 1 || c.regs != 1 {
		t.Fatalf("Submit during a hold: %d tokens, %d regulars; want the token passed at once with seq 1", len(c.tokens), c.regs)
	}

	// A ring that was never ticked is stepped by frames alone: it does not
	// hold, since nothing would release the token.
	c = newClockedRing(t, Knobs{IdleDelay: idle})
	c.r.ticked = false
	c.r.HandleToken(idleToken(1))
	if c.r.Holding() || len(c.tokens) != 1 {
		t.Fatalf("unticked ring: holding=%v, %d tokens passed; want the token passed at once", c.r.Holding(), len(c.tokens))
	}
}

// TestRingTickDeadline pins the deadline Tick reports in each state.
func TestRingTickDeadline(t *testing.T) {
	const (
		idle    = 10 * time.Millisecond
		timeout = 3 * time.Millisecond
	)
	t0 := time.Unix(1000, 0)
	for _, tc := range []struct {
		name  string
		knobs Knobs
		setup func(c *clockedRing)
		want  time.Time // zero: none
	}{
		{"fresh", Knobs{}, func(*clockedRing) {}, time.Time{}},
		{"holding", Knobs{IdleDelay: idle}, func(c *clockedRing) {
			c.r.HandleToken(idleToken(1))
		}, t0.Add(idle)},
		{"sent last", Knobs{IdleDelay: -1, TokenTimeout: timeout}, func(c *clockedRing) {
			c.r.HandleToken(idleToken(1))
		}, t0.Add(timeout)},
		{"hold released", Knobs{IdleDelay: idle, TokenTimeout: timeout}, func(c *clockedRing) {
			c.r.HandleToken(idleToken(1))
			c.clock = c.clock.Add(idle)
		}, t0.Add(idle + timeout)},
		{"resent", Knobs{IdleDelay: -1, TokenTimeout: timeout}, func(c *clockedRing) {
			c.r.HandleToken(idleToken(1))
			c.clock = c.clock.Add(timeout + time.Millisecond)
		}, t0.Add(2*timeout + time.Millisecond)},
		{"rotation moved on", Knobs{IdleDelay: -1, TokenTimeout: timeout}, func(c *clockedRing) {
			c.r.HandleToken(idleToken(1))
			c.r.HandleToken((&wire.Token{Sender: 3, Ring: 1, Visit: 3}).Marshal())
		}, time.Time{}},
		{"stopped", Knobs{IdleDelay: idle}, func(c *clockedRing) {
			c.r.HandleToken(idleToken(1))
			c.r.Stop()
		}, time.Time{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newClockedRing(t, tc.knobs)
			tc.setup(c)
			if got := c.r.Tick(); !got.Equal(tc.want) {
				t.Fatalf("Tick() = %v, want %v", got, tc.want)
			}
		})
	}
}
