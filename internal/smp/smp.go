// Package smp assembles the Secure Multicast Protocols of the Immune
// system (paper §7, Figure 5): the message delivery protocol (token ring),
// the processor membership protocol, and the Byzantine fault detector, one
// instance of each per processor. The composed stack delivers two kinds of
// events to the layer above (the object group interface): regular data
// messages in secure reliable total order, and Processor Membership Change
// notifications delivered in sequence with the regular messages.
package smp

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"immune/internal/detector"
	"immune/internal/ids"
	"immune/internal/membership"
	"immune/internal/ring"
	"immune/internal/sec"
	"immune/internal/transport"
	"immune/internal/wire"
)

// Delivery is one totally ordered data message handed to the layer above.
type Delivery struct {
	Sender  ids.ProcessorID // originating processor
	Ring    ids.RingID      // ring configuration that ordered it
	Seq     uint64          // position in that configuration's total order
	Payload []byte          // opaque contents (the object group layer's encoding)
}

// Config parameterizes one processor's protocol stack.
type Config struct {
	Self    ids.ProcessorID
	Members []ids.ProcessorID // initial processor membership
	// Joining starts the stack outside any membership (live
	// reconfiguration: a processor added to a running system). No ring is
	// built — the stack behaves like an excluded processor until the
	// running members announce their view and admit it through the
	// membership protocol. Members is ignored.
	Joining bool
	Suite   *sec.Suite
	// Endpoint is the processor's attachment to the network: the
	// deterministic simulator (*netsim.Endpoint) or a real-socket
	// backend such as tcpmesh. The stack consumes only the transport
	// seam — send, multicast, non-blocking receive, notify.
	Endpoint transport.Endpoint
	// Deliver receives data messages in total order. Required. Invoked
	// from the stack's event goroutine; must not block.
	Deliver func(Delivery)
	// OnMembershipChange receives Processor Membership Change
	// notifications, in order, interleaved correctly with deliveries.
	// Optional.
	OnMembershipChange func(membership.Install)

	// Ring and Detector are the tuning values of the two layers the stack
	// builds, handed to them whole; each layer documents its own fields
	// and applies its own defaults.
	Ring     ring.Knobs
	Detector detector.Knobs
	// Metrics are optional observability hooks; the zero value disables
	// them.
	Metrics Metrics
}

// Stack is one processor's Secure Multicast Protocols instance.
type Stack struct {
	cfg Config
	det *detector.Detector
	mem *membership.Membership

	mu      sync.Mutex
	cur     *ring.Ring // nil once excluded from the membership
	curInst membership.Install
	pending []membership.Install // installs awaiting event-loop processing

	// wake asks the event loop to run every layer's Tick at once: a
	// suspicion, a Submit during an idle hold, Leave, or the deadline
	// timer.
	wake  chan struct{}
	leave atomic.Bool // Leave was called; the loop's next tick announces it

	stop    chan struct{}
	done    chan struct{}
	started bool // guarded by mu
}

// New builds (but does not start) a protocol stack.
func New(cfg Config) (*Stack, error) {
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("smp %s: Deliver required", cfg.Self)
	}
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("smp %s: endpoint required", cfg.Self)
	}
	if cfg.Suite == nil {
		return nil, fmt.Errorf("smp %s: suite required", cfg.Self)
	}

	s := &Stack{
		cfg:  cfg,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.det = detector.New(detector.Config{
		Self:  cfg.Self,
		Knobs: cfg.Detector,
		// A suspicion is acted on at once (the membership protocol may
		// have to start a change), from whichever goroutine raised it.
		OnSuspect: func(_ ids.ProcessorID, r detector.Reason) {
			cfg.Metrics.Suspicions.Inc()
			if cfg.Metrics.SuspectReason != nil {
				cfg.Metrics.SuspectReason(r.String())
			}
			s.wakeLoop()
		},
	})
	mem, err := membership.New(membership.Config{
		Self:      cfg.Self,
		Suite:     cfg.Suite,
		Trans:     cfg.Endpoint,
		Initial:   cfg.Members,
		Joining:   cfg.Joining,
		Source:    sourceAdapter{det: s.det},
		Bridge:    bridgeAdapter{s: s},
		OnInstall: s.queueInstall,
	})
	if err != nil {
		return nil, fmt.Errorf("smp %s: %w", cfg.Self, err)
	}
	s.mem = mem

	inst := mem.Current()
	if cfg.Joining {
		// Outside the membership: no ring until the running members admit
		// this processor. The members gauge is shared per ring across
		// processors; a joiner must not clobber it with its empty view.
		s.curInst = inst
		s.det.SetView(nil)
		return s, nil
	}
	cfg.Metrics.Members.Set(int64(len(cfg.Members)))
	r, err := s.buildRing(inst, nil)
	if err != nil {
		return nil, fmt.Errorf("smp %s: %w", cfg.Self, err)
	}
	s.cur = r
	s.curInst = inst
	s.det.SetView(inst.Members)
	return s, nil
}

// buildRing constructs the ring instance for an installed membership.
func (s *Stack) buildRing(inst membership.Install, carryover [][]byte) (*ring.Ring, error) {
	r, err := ring.New(ring.Config{
		Self:    s.cfg.Self,
		Members: inst.Members,
		Ring:    inst.Ring,
		Suite:   s.cfg.Suite,
		Trans:   s.cfg.Endpoint,
		Obs:     s.det,
		Knobs:   s.cfg.Ring,
		Metrics: s.cfg.Metrics.Ring,
		Deliver: func(m *wire.Regular) {
			s.cfg.Deliver(Delivery{
				Sender:  m.Sender,
				Ring:    m.Ring,
				Seq:     m.Seq,
				Payload: m.Contents,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	r.Tick() // the loop releases idle holds from here on (ring.Tick)
	// Carryover cannot overflow: the old ring's drained queue holds at
	// most MaxQueue entries and the new ring starts empty with the same
	// bound. The error is still checked so a future bound change cannot
	// silently drop messages.
	for _, p := range carryover {
		if err := r.Submit(p); err != nil {
			return nil, fmt.Errorf("carryover: %w", err)
		}
	}
	return r, nil
}

// Start launches the event loop and, on the designated starter, the token.
// Starting twice is a no-op.
func (s *Stack) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	if s.cur != nil {
		s.cur.Kickstart()
	}
	s.mu.Unlock()
	go s.loop()
}

// Stop terminates the event loop and waits for it to exit. Stopping a
// never-started or already-stopped stack is a no-op.
func (s *Stack) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
}

// Submit queues a payload for secure reliable totally ordered multicast.
// Safe from any goroutine. Returns an error if this processor has been
// excluded from the membership, or one wrapping ring.ErrOverloaded when
// the bounded submit queue is full (backpressure; retryable).
func (s *Stack) Submit(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return fmt.Errorf("smp %s: excluded from membership", s.cfg.Self)
	}
	if err := s.cur.Submit(payload); err != nil {
		return fmt.Errorf("smp %s: %w", s.cfg.Self, err)
	}
	if s.cur.Holding() {
		s.wakeLoop() // end the idle hold: the submission goes out on this visit
	}
	return nil
}

// wakeLoop asks the event loop to run every layer's Tick. Safe from any
// goroutine; never blocks.
func (s *Stack) wakeLoop() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// QueuedSubmissions reports how many submissions await origination on the
// current ring (0 when excluded). Safe from any goroutine.
func (s *Stack) QueuedSubmissions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return 0
	}
	return s.cur.QueuedSubmissions()
}

// Self returns this processor's identifier.
func (s *Stack) Self() ids.ProcessorID { return s.cfg.Self }

// View returns the currently installed membership.
func (s *Stack) View() membership.Install {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curInst
}

// Suspects returns the local fault detector's current output.
func (s *Stack) Suspects() []ids.ProcessorID { return s.det.Suspects() }

// ValueFaultSuspect forwards a Value Fault Suspect notification from the
// Replication Manager's value fault detector to the local Byzantine fault
// detector (paper §6.2). Safe from any goroutine.
func (s *Stack) ValueFaultSuspect(p ids.ProcessorID) {
	// Detector suspicion state is internally locked; event-loop-only
	// state is not touched here.
	s.det.ValueFaultSuspect(p)
}

// Knobs reports the tuning values in effect, defaults applied, as read
// back from the layer that consumes each: the current ring's (zero while
// excluded) and the detector's.
func (s *Stack) Knobs() (ring.Knobs, detector.Knobs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rk ring.Knobs
	if s.cur != nil {
		rk = s.cur.Knobs()
	}
	return rk, s.det.Knobs()
}

// Installs reports how many membership changes have been installed.
func (s *Stack) Installs() uint64 { return s.mem.Installs() }

// Leave announces this processor's voluntary departure from the
// membership (maintenance drain): the membership protocol multicasts a
// signed Leave so the survivors exclude it administratively, without
// fault-detector strikes. The request runs on the event goroutine; safe
// from any goroutine. The stack keeps running (re-advertising the
// departure) until Stop.
func (s *Stack) Leave() {
	s.leave.Store(true)
	s.wakeLoop()
}

// queueInstall records an install decided by the membership protocol; the
// event loop applies it (it may fire from within HandleMessage, which is
// already on the event goroutine, but deferring keeps ring swaps at a
// single point).
func (s *Stack) queueInstall(inst membership.Install) {
	s.pending = append(s.pending, inst)
}

// applyInstalls swaps ring configurations for queued installs.
func (s *Stack) applyInstalls() {
	for len(s.pending) > 0 {
		inst := s.pending[0]
		s.pending = s.pending[1:]
		s.cfg.Metrics.Installs.Inc()
		s.cfg.Metrics.Members.Set(int64(len(inst.Members)))

		var carryover [][]byte
		s.mu.Lock()
		if s.cur != nil {
			s.cur.Stop()
			carryover = s.cur.DrainQueue()
		}
		var r *ring.Ring // nil: excluded
		if slices.Contains(inst.Members, s.cfg.Self) {
			var err error
			if r, err = s.buildRing(inst, carryover); err != nil {
				r = nil // cannot happen for a validated install; treat as exclusion
			}
		}
		s.cur = r
		s.curInst = inst
		s.mu.Unlock()

		// An excluded processor adopts the view in the detector too: its
		// silence suspicions of the members are stale (it was the detached
		// one), and clearing them lets the readmission exchange proceed.
		s.det.SetView(inst.Members)
		if s.cfg.OnMembershipChange != nil {
			s.cfg.OnMembershipChange(inst)
		}
		if r != nil && inst.Members[0] == s.cfg.Self {
			r.Kickstart()
		}
	}
}

// maxBatch bounds how many frames one loop iteration drains, so timers
// still run under sustained load.
const maxBatch = 128

// loop is the stack's single event goroutine, and the only place the stack
// waits: drain a batch of frames, preverify any signed tokens in the batch
// in parallel, dispatch the batch serially, and run the layers' timed work
// when the earliest deadline they reported has passed or something
// happened that may need it now. With nothing left to do it sleeps until
// the earliest layer deadline, a frame, a wake (a control call among
// them), or stop.
func (s *Stack) loop() {
	defer close(s.done)
	notify := s.cfg.Endpoint.Notify()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var due time.Time // earliest layer deadline; zero: none
	kick := true      // run every layer's Tick on this iteration
	batch := make([]transport.Frame, 0, maxBatch)
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		batch = batch[:0]
		for len(batch) < maxBatch {
			f, ok := s.cfg.Endpoint.TryRecv()
			if !ok {
				break
			}
			batch = append(batch, f)
		}
		if len(batch) > 0 {
			s.preverify(batch)
			for _, f := range batch {
				kick = s.dispatch(f) || kick
			}
		}
		select {
		case <-s.wake:
			kick = true
		default:
		}
		if kick || (!due.IsZero() && !time.Now().Before(due)) {
			kick = false
			due = s.tick()
		}
		if len(batch) > 0 {
			continue
		}

		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		var fire <-chan time.Time // nil: no deadline
		if !due.IsZero() {
			timer.Reset(time.Until(due))
			fire = timer.C
		}
		select {
		case <-s.stop:
			return
		case <-fire:
		case _, ok := <-notify:
			if !ok {
				// Network closed: no more frames will ever arrive. A
				// closed channel is always readable, so selecting on it
				// again would spin; deadlines pace the loop from here.
				notify = nil
			}
		case <-s.wake:
			kick = true
		}
	}
}

// tick runs every layer's timed work, applies any install that decided,
// and returns the earliest deadline the layers reported (zero: none). An
// install brings a new ring and view, so the layers are ticked again.
func (s *Stack) tick() time.Time {
	if s.leave.Load() {
		s.mem.Leave() // idempotent
	}
	for {
		s.mu.Lock()
		cur := s.cur
		s.mu.Unlock()
		var due time.Time
		if cur != nil {
			due = cur.Tick()
		}
		// While a membership change is forming, the old ring is expected
		// to stall; running the liveness walk then would pile false
		// suspicions onto correct processors. The membership protocol's
		// own unresponsive-reporting covers that phase. An excluded
		// processor (no ring) observes no token activity at all, so the
		// walk would only poison its readmission exchange. A leaver's
		// liveness walk is equally meaningless: the survivors abandon its
		// ring the moment they install the view without it.
		if !s.mem.Forming() && !s.mem.Leaving() && cur != nil {
			due = earliest(due, s.det.Tick())
		}
		due = earliest(due, s.mem.Tick())
		if len(s.pending) == 0 {
			return due
		}
		s.applyInstalls()
	}
}

// earliest returns the earlier of two deadlines, where zero means none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// preverify warms the current ring's signature-verification cache for all
// token frames in a drained batch, fanning the RSA work across bounded
// workers, so the serial dispatch that follows finds every verdict
// memoized. A no-op below LevelSignatures or for fewer than two tokens.
func (s *Stack) preverify(batch []transport.Frame) {
	if s.cfg.Suite.Level < sec.LevelSignatures {
		return
	}
	var toks [][]byte
	for _, f := range batch {
		if k, err := wire.PeekKind(f.Payload); err == nil && k == wire.KindToken {
			toks = append(toks, f.Payload)
		}
	}
	if len(toks) < 2 {
		return
	}
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur != nil {
		cur.PreverifyTokens(toks)
	}
}

// dispatch routes one frame by wire kind and reports whether the layers
// must be ticked this iteration: a token this processor took starts a hold
// or a send, each with its own deadline; a membership frame (a join, a
// departure, a proposal) is acted on at once; and while a change forms,
// any delivery may open the flush barrier. Other frames only push the
// layers' deadlines later. A suspicion raised meanwhile wakes the loop.
func (s *Stack) dispatch(f transport.Frame) bool {
	kind, err := wire.PeekKind(f.Payload)
	if err != nil {
		return false
	}
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	switch kind {
	case wire.KindToken:
		if cur != nil && cur.HandleToken(f.Payload) {
			return true
		}
	case wire.KindRegular:
		if cur != nil {
			cur.HandleRegular(f.Payload)
		}
	case wire.KindMembership:
		s.mem.HandleMessage(f.Payload)
		s.applyInstalls()
		return true
	case wire.KindFlush:
		s.mem.HandleFlush(f.Payload)
	}
	return s.mem.Forming()
}

// sourceAdapter exposes the detector as the membership protocol's suspect
// source.
type sourceAdapter struct{ det *detector.Detector }

var _ membership.SuspectSource = sourceAdapter{}

func (a sourceAdapter) Suspects() []ids.ProcessorID      { return a.det.Suspects() }
func (a sourceAdapter) Suspected(p ids.ProcessorID) bool { return a.det.Suspected(p) }
func (a sourceAdapter) AdoptSuspicion(p ids.ProcessorID, _ string) {
	a.det.AdoptSuspicion(p, detector.ReasonCorroborated)
}
func (a sourceAdapter) Unresponsive(p ids.ProcessorID) { a.det.Unresponsive(p) }

// bridgeAdapter exposes the live ring to the membership protocol's flush
// exchange. All calls occur on the event goroutine.
type bridgeAdapter struct{ s *Stack }

var _ membership.RingBridge = bridgeAdapter{}

func (b bridgeAdapter) cur() *ring.Ring {
	b.s.mu.Lock()
	defer b.s.mu.Unlock()
	return b.s.cur
}

func (b bridgeAdapter) Delivered() uint64 {
	if r := b.cur(); r != nil {
		return r.Delivered()
	}
	return 0
}

func (b bridgeAdapter) RecoveryDigests(from uint64) []wire.DigestEntry {
	if r := b.cur(); r != nil {
		return r.RecoveryDigests(from)
	}
	return nil
}

func (b bridgeAdapter) RecoveryMessages(from uint64) [][]byte {
	if r := b.cur(); r != nil {
		return r.RecoveryMessages(from)
	}
	return nil
}

func (b bridgeAdapter) AdoptFlushDigests(entries []wire.DigestEntry, from ids.ProcessorID) {
	if r := b.cur(); r != nil {
		r.AdoptFlushDigests(entries, from)
	}
}

func (b bridgeAdapter) HandleRegular(raw []byte) {
	if r := b.cur(); r != nil {
		r.HandleRegular(raw)
	}
}
