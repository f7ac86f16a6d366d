// Package netsim simulates the communication substrate of the Immune
// system's model (paper §3): an asynchronous distributed system whose
// processors communicate via messages over a completely connected
// local-area network. Communication is unreliable — messages may be lost,
// corrupted, duplicated, or arbitrarily delayed — and channels are neither
// FIFO nor authenticated. The network does not partition.
//
// The simulator replaces the 100 Mbps Ethernet of the paper's testbed. It
// provides exactly the fault model the Secure Multicast Protocols are built
// against, plus deterministic, seeded fault injection so every Table 1
// fault class can be reproduced on demand in tests.
package netsim

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"immune/internal/ids"
	"immune/internal/transport"
)

// Broadcast is the reserved destination meaning "all attached processors
// except the sender" (physical multicast on the simulated LAN segment).
const Broadcast = transport.Broadcast

// Frame is one network-level datagram. It is the transport seam's frame
// type: netsim is one backend of the transport.Endpoint contract.
type Frame = transport.Frame

// Verdict is the per-frame decision of a fault plan.
type Verdict int

const (
	// Deliver passes the frame through unmodified.
	Deliver Verdict = iota + 1
	// Drop loses the frame (Table 1: message loss).
	Drop
	// Corrupt flips bits in the payload before delivery (Table 1:
	// message corruption in transit).
	Corrupt
	// Duplicate delivers the frame twice.
	Duplicate
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Duplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// FaultPlan decides the fate of each (frame, receiver) pair. It is
// consulted once per receiver, so a multicast frame can be lost at one
// processor and delivered at another — the failure mode that forces the
// retransmission machinery of the message delivery protocol. Additional
// delay (beyond base network latency) is returned separately so plans can
// model arbitrary delays. Implementations must be safe for concurrent use.
type FaultPlan interface {
	Judge(f Frame, receiver ids.ProcessorID) (Verdict, time.Duration)
}

// DeliverAll is the fault-free plan.
type DeliverAll struct{}

var _ FaultPlan = DeliverAll{}

// Judge always delivers immediately.
func (DeliverAll) Judge(Frame, ids.ProcessorID) (Verdict, time.Duration) { return Deliver, 0 }

// Config parameterizes a Network.
type Config struct {
	// Latency is the base one-way delivery delay. Zero means synchronous
	// handoff (fast unit tests). The asynchronous model is preserved
	// either way because delivery order across links is never guaranteed.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// Plan is consulted for every (frame, receiver) pair; nil means
	// DeliverAll.
	Plan FaultPlan
	// Seed drives the deterministic RNG used for jitter and corruption
	// byte selection.
	Seed uint64
	// Metrics are optional observability hooks; the zero value disables
	// them.
	Metrics Metrics
}

// Network is the simulated LAN segment. Create with New, attach endpoints
// with Attach, and Close when done. All methods are safe for concurrent
// use.
type Network struct {
	cfg Config

	mu        sync.Mutex
	endpoints map[ids.ProcessorID]*Endpoint
	detached  map[ids.ProcessorID]bool
	rng       *splitmix
	closed    bool
	// The delivery scheduler (sched.go): delayed copies in due order,
	// the send counter that breaks due-time ties, and whether the
	// goroutine that drains the heap is alive.
	flight     flightHeap
	sendSeq    uint64
	scheduling bool
}

// New creates a network with the given configuration.
func New(cfg Config) *Network {
	if cfg.Plan == nil {
		cfg.Plan = DeliverAll{}
	}
	return &Network{
		cfg:       cfg,
		endpoints: make(map[ids.ProcessorID]*Endpoint),
		detached:  make(map[ids.ProcessorID]bool),
		rng:       newSplitmix(cfg.Seed),
	}
}

// Attach connects a processor to the network and returns its endpoint.
// Attaching an already attached processor is an error.
func (n *Network) Attach(p ids.ProcessorID) (*Endpoint, error) {
	if p == Broadcast {
		return nil, fmt.Errorf("processor id %v is reserved for broadcast", p)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("attach %s: network closed", p)
	}
	if _, ok := n.endpoints[p]; ok {
		return nil, fmt.Errorf("processor %s already attached", p)
	}
	ep := &Endpoint{id: p, net: n, box: newMailbox()}
	n.endpoints[p] = ep
	return ep, nil
}

// Detach simulates a processor dropping off the network (a crash as seen by
// the LAN). Frames to or from a detached processor are silently lost. The
// endpoint's mailbox stays readable so a "crashed" process can still drain
// already-delivered frames in tests.
func (n *Network) Detach(p ids.ProcessorID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.detached[p] = true
}

// Reattach reverses Detach (processor repair/recovery).
func (n *Network) Reattach(p ids.ProcessorID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.detached, p)
}

// Detached reports whether a processor is currently detached.
func (n *Network) Detached(p ids.ProcessorID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.detached[p]
}

// Close shuts the network down: all mailboxes are closed and every copy
// still in flight is lost, however long its delay had left to run.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.cfg.Metrics.Dropped.Add(uint64(len(n.flight)))
	n.flight = nil
	eps := make([]*Endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()

	for _, ep := range eps {
		ep.box.close()
	}
}

// send routes one frame from an endpoint into the network.
func (n *Network) send(f Frame) {
	n.cfg.Metrics.Sent.Inc()
	n.cfg.Metrics.BytesSent.Add(uint64(len(f.Payload)))

	n.mu.Lock()
	if n.closed || n.detached[f.From] {
		n.mu.Unlock()
		n.cfg.Metrics.Dropped.Inc()
		return
	}
	var receivers []*Endpoint
	if f.To == Broadcast {
		receivers = make([]*Endpoint, 0, len(n.endpoints))
		for id, ep := range n.endpoints {
			if id == f.From || n.detached[id] {
				continue
			}
			receivers = append(receivers, ep)
		}
	} else if ep, ok := n.endpoints[f.To]; ok && !n.detached[f.To] {
		receivers = []*Endpoint{ep}
	}
	n.mu.Unlock()

	if len(receivers) == 0 {
		n.cfg.Metrics.Dropped.Inc()
		return
	}
	for _, ep := range receivers {
		n.deliverOne(f, ep)
	}
}

// deliverOne applies the fault plan and base latency for one receiver.
func (n *Network) deliverOne(f Frame, ep *Endpoint) {
	// The trust boundary: give this receiver its own private copy BEFORE
	// the fault plan runs. Judge and the corruption path may mutate the
	// payload, and the incoming backing array is shared with the sender's
	// retained buffers (ring retransmission stores, memoized encodings)
	// and with every other receiver of a broadcast. The zero-copy decoders
	// downstream alias the delivered bytes, so any sharing here would let
	// one receiver's corruption bleed into another's — or into the
	// sender's own retransmissions.
	f.Payload = append([]byte(nil), f.Payload...)

	verdict, extra := n.cfg.Plan.Judge(f, ep.id)
	copies := 1
	switch verdict {
	case Drop:
		n.cfg.Metrics.Dropped.Inc()
		return
	case Duplicate:
		copies = 2
		n.cfg.Metrics.Duplicated.Inc()
	case Corrupt:
		n.corrupt(f.Payload)
		n.cfg.Metrics.Corrupted.Inc()
	case Deliver:
	default:
		// Unknown verdicts deliver: a buggy plan must not wedge runs.
	}

	delay := n.cfg.Latency + extra
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.uint64n(uint64(n.cfg.Jitter)))
	}
	for i := 0; i < copies; i++ {
		frame := f
		if i > 0 {
			// The second copy of a Duplicate gets its own backing array:
			// both copies reach the same mailbox and the consumer may
			// still hold the first when it mutates (or aliases) the
			// second.
			frame.Payload = append([]byte(nil), f.Payload...)
		}
		if delay == 0 {
			n.deposit(frame, ep)
			continue
		}
		n.schedule(frame, ep, time.Now().Add(delay))
	}
}

// deposit places one frame copy in the receiver's mailbox, re-checking
// the network state at delivery time: a frame delayed in flight must not
// land (nor count as delivered) after the receiver detached or the
// network shut down.
func (n *Network) deposit(f Frame, ep *Endpoint) {
	n.mu.Lock()
	gone := n.closed || n.detached[ep.id]
	n.mu.Unlock()
	if gone || !ep.box.put(f) {
		n.cfg.Metrics.Dropped.Inc()
		return
	}
	n.cfg.Metrics.Delivered.Inc()
}

// corrupt flips a random byte of the payload in place (callers pass a
// payload already private to one receiver).
func (n *Network) corrupt(p []byte) {
	if len(p) > 0 {
		idx := int(n.rng.uint64n(uint64(len(p))))
		p[idx] ^= 0x5a
	}
}

// Endpoint is one processor's attachment to the network. It is the
// simulator's implementation of the transport seam; internal/smp consumes
// it through the transport.Endpoint interface.
type Endpoint struct {
	id  ids.ProcessorID
	net *Network
	box *mailbox
}

var _ transport.Endpoint = (*Endpoint)(nil)

// ID returns the processor this endpoint belongs to.
func (e *Endpoint) ID() ids.ProcessorID { return e.id }

// Send transmits a unicast frame. The payload is not retained.
func (e *Endpoint) Send(to ids.ProcessorID, payload []byte) {
	e.net.send(Frame{From: e.id, To: to, Payload: payload})
}

// Multicast transmits a frame to every other attached processor.
func (e *Endpoint) Multicast(payload []byte) {
	e.net.send(Frame{From: e.id, To: Broadcast, Payload: payload})
}

// Recv blocks for the next incoming frame. ok is false after the network
// is closed and the mailbox drained.
func (e *Endpoint) Recv() (f Frame, ok bool) { return e.box.get() }

// TryRecv returns the next frame if one is queued, without blocking.
func (e *Endpoint) TryRecv() (f Frame, ok bool) { return e.box.tryGet() }

// Notify returns a channel that becomes readable when a frame may have
// arrived and is closed when the network shuts down. It is an edge
// trigger, not a frame count: after receiving from it, drain with TryRecv
// until empty. It lets event loops sleep in a select instead of polling.
func (e *Endpoint) Notify() <-chan struct{} { return e.box.notify }

// Pending reports the number of queued incoming frames.
func (e *Endpoint) Pending() int { return e.box.len() }

// Close implements transport.Endpoint: the processor drops off the LAN
// (as Detach) and its mailbox shuts, waking any event loop parked on
// Notify. The Network as a whole stays up for the other endpoints.
func (e *Endpoint) Close() error {
	e.net.Detach(e.id)
	e.box.close()
	return nil
}

// splitmix is a tiny deterministic RNG (splitmix64).
type splitmix struct {
	mu    sync.Mutex
	state uint64
}

func newSplitmix(seed uint64) *splitmix { return &splitmix{state: seed} }

func (s *splitmix) next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uint64n returns an unbiased value in [0, n). n must be > 0. It uses
// Lemire's multiply-shift reduction with the rejection step: a plain
// next()%n overrepresents the low residues whenever n does not divide
// 2^64, which would skew fault-plan loss/delay draws against the
// probabilities the scenario configured.
func (s *splitmix) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(s.next(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.next(), n)
		}
	}
	return hi
}
