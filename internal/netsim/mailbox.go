package netsim

import "sync"

// mailbox is an unbounded FIFO queue of frames with blocking receive and
// close semantics. The network model is asynchronous — no bound on message
// delay (paper §3) — so a sender must never block on a slow receiver; an
// unbounded mailbox at each endpoint models the receive buffer of the
// simulated host.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Frame
	closed bool
	// notify is a capacity-1 edge trigger for select-based receivers: a
	// put makes it readable, so an event loop can sleep in a select
	// instead of polling tryGet. A received notification promises only
	// "the mailbox may be non-empty"; receivers must still drain via
	// tryGet. Closed together with the mailbox so selecting loops wake
	// for shutdown too.
	notify chan struct{}
}

func newMailbox() *mailbox {
	m := &mailbox{notify: make(chan struct{}, 1)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// put enqueues a frame and reports whether it was accepted. Frames put
// after close are discarded (returning false), which absorbs late
// scheduler deliveries during shutdown.
func (m *mailbox) put(f Frame) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.queue = append(m.queue, f)
	m.cond.Signal()
	select {
	case m.notify <- struct{}{}:
	default: // already signaled; one pending notification suffices
	}
	return true
}

// get blocks until a frame is available or the mailbox is closed. The
// second result is false once the mailbox is closed and drained.
func (m *mailbox) get() (Frame, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return Frame{}, false
	}
	f := m.queue[0]
	m.queue = m.queue[1:]
	return f, true
}

// tryGet returns a frame without blocking. The second result is false if
// the mailbox is empty or closed.
func (m *mailbox) tryGet() (Frame, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 {
		return Frame{}, false
	}
	f := m.queue[0]
	m.queue = m.queue[1:]
	return f, true
}

// close wakes all blocked receivers; subsequent puts are discarded and
// gets return false once drained.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.cond.Broadcast()
	close(m.notify)
}

// len reports the number of queued frames.
func (m *mailbox) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}
