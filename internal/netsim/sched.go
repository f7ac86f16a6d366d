package netsim

import (
	"container/heap"
	"time"
)

// inFlight is one delayed frame copy on its way to one receiver.
type inFlight struct {
	due time.Time
	seq uint64 // send order, the tie-break between equal due times
	f   Frame
	ep  *Endpoint
}

// flightHeap orders copies by (due, seq): copies with equal delay arrive
// in send order. The model still promises no FIFO — jitter and plan
// delays reorder on purpose — but the simulator itself adds no reordering.
type flightHeap []inFlight

func (h flightHeap) Len() int      { return len(h) }
func (h flightHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h flightHeap) Less(i, j int) bool {
	if !h[i].due.Equal(h[j].due) {
		return h[i].due.Before(h[j].due)
	}
	return h[i].seq < h[j].seq
}
func (h *flightHeap) Push(x any) { *h = append(*h, x.(inFlight)) }
func (h *flightHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1] = inFlight{} // release the payload
	*h = old[:len(old)-1]
	return c
}

// minNap bounds a scheduler nap on a zero-latency network whose fault
// plan adds delay, where Latency gives no bound of its own.
const minNap = 100 * time.Microsecond

// schedule puts one delayed copy in flight and starts the scheduler if
// nothing else was. A copy sent after Close is lost like any other send.
func (n *Network) schedule(f Frame, ep *Endpoint, due time.Time) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.cfg.Metrics.Dropped.Inc()
		return
	}
	n.sendSeq++
	heap.Push(&n.flight, inFlight{due: due, seq: n.sendSeq, f: f, ep: ep})
	start := !n.scheduling
	n.scheduling = true
	n.mu.Unlock()
	if start {
		go n.runScheduler()
	}
}

// runScheduler deposits every copy in flight once it is due, in heap
// order, and exits when nothing is left in flight (Close empties the
// heap). It never deposits early: nap may return at any time, only the
// due check releases a copy. It is never late for a newcomer either: a
// copy sent during a nap is due at least Latency after its send, and no
// nap is longer than that, so the heap is read again before the newcomer
// is due — no wake-up channel needed.
func (n *Network) runScheduler() {
	longest := max(n.cfg.Latency, minNap)
	for {
		n.mu.Lock()
		if len(n.flight) == 0 {
			n.scheduling = false
			n.mu.Unlock()
			return
		}
		late := time.Since(n.flight[0].due)
		if late < 0 {
			n.mu.Unlock()
			nap(min(-late, longest))
			continue
		}
		c := heap.Pop(&n.flight).(inFlight)
		n.mu.Unlock()
		n.cfg.Metrics.Late.Observe(late)
		n.deposit(c.f, c.ep)
	}
}
