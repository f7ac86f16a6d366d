package smp

import (
	"sort"
	"testing"
	"time"

	"immune/internal/detector"
	"immune/internal/ids"
	"immune/internal/netsim"
	"immune/internal/ring"
	"immune/internal/sec"
	"immune/internal/wire"
)

// holdDelay is long enough that an idle hold blocking the event goroutine
// would stand out against any scheduling noise.
const holdDelay = 300 * time.Millisecond

// newHoldStack builds member self of members at LevelNone over nw, pacing
// an idle ring with holdDelay, and with a liveness timeout long enough that
// silent peers are not suspected during a test.
func newHoldStack(t *testing.T, nw *netsim.Network, self ids.ProcessorID, members []ids.ProcessorID) *Stack {
	t.Helper()
	ep, err := nw.Attach(self)
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := sec.NewSuite(sec.LevelNone, self, nil, nil)
	st, err := New(Config{
		Self:     self,
		Members:  members,
		Suite:    suite,
		Endpoint: ep,
		Ring:     ring.Knobs{IdleDelay: holdDelay},
		Detector: detector.Knobs{SuspectTimeout: time.Minute},
		Deliver:  func(Delivery) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func median(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestStartDuringIdleHold: the kickstarting member's first visit meets the
// idle-hold condition, and Start must not wait the hold out.
func TestStartDuringIdleHold(t *testing.T) {
	var took []time.Duration
	for i := 0; i < 3; i++ {
		nw := netsim.New(netsim.Config{})
		st := newHoldStack(t, nw, 1, []ids.ProcessorID{1, 2})
		start := time.Now()
		st.Start()
		took = append(took, time.Since(start))
		st.Stop()
		nw.Close()
	}
	if med := median(took); med >= 50*time.Millisecond {
		t.Fatalf("Start took %v (median of 3) with a %v idle hold, want < 50ms", med, holdDelay)
	}
}

// TestFrameDispatchedDuringIdleHold: member 2 holds an idle token from
// member 1; a Leave from member 3 arriving meanwhile is acted on — member
// 2 proposes a view without 3 — before the held token is passed on.
func TestFrameDispatchedDuringIdleHold(t *testing.T) {
	members := []ids.ProcessorID{1, 2, 3}
	var took []time.Duration
	for i := 0; i < 3; i++ {
		nw := netsim.New(netsim.Config{})
		st := newHoldStack(t, nw, 2, members)
		e1, err := nw.Attach(1)
		if err != nil {
			t.Fatal(err)
		}
		e3, err := nw.Attach(3)
		if err != nil {
			t.Fatal(err)
		}
		st.Start()

		// Idle: no retransmission requests, no sequence progress, and
		// member 2 has nothing queued.
		e1.Multicast((&wire.Token{Sender: 1, Ring: 1, Visit: 1}).Marshal())
		time.Sleep(20 * time.Millisecond) // the token is dispatched and held
		sent := time.Now()
		e3.Multicast((&wire.Membership{Sender: 3, Kind: wire.MembershipLeave, InstallID: 1, NewRing: 1}).Marshal())

		res := time.Duration(1<<63 - 1) // the token came first: never
		for deadline := time.Now().Add(2 * holdDelay); time.Now().Before(deadline); {
			f, ok := e1.Recv()
			if !ok || f.From != 2 {
				continue
			}
			kind, _ := wire.PeekKind(f.Payload)
			if kind == wire.KindToken {
				break
			}
			if m, err := wire.UnmarshalMembership(f.Payload); kind == wire.KindMembership && err == nil &&
				m.Kind == wire.MembershipPropose {
				res = time.Since(sent)
				break
			}
		}
		took = append(took, res)
		st.Stop()
		nw.Close()
	}
	if med := median(took); med >= holdDelay/2 {
		t.Fatalf("proposal after the Leave took %v (median of 3; max: the held token was passed first), want < %v", med, holdDelay/2)
	}
}
