package replication

import (
	"errors"
	"fmt"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/obs"
	"immune/internal/sec"
)

// submitRouted sends application traffic toward the total order that owns
// dest. Without a Route hook every group lives on this manager's own
// stack.
func (m *Manager) submitRouted(dest ids.ObjectGroupID, payload []byte) error {
	if m.cfg.Route != nil {
		return m.cfg.Route(dest, payload)
	}
	return m.stack.Submit(payload)
}

// dropWaiterLocked removes a two-way waiter (decision, timeout, failure)
// and releases its in-flight slot. Caller holds m.mu.
func (m *Manager) dropWaiterLocked(op ids.OperationID) (chan invokeResult, bool) {
	w, ok := m.waiters[op]
	if !ok {
		return nil, false
	}
	delete(m.waiters, op)
	if w.st.inflight > 0 {
		w.st.inflight--
		m.met.InFlight.Add(-1)
	}
	return w.ch, true
}

// Invoke performs a replicated two-way invocation: the marshaled IIOP
// Request is multicast to the target server group, and the call returns
// the majority-voted marshaled IIOP Reply. Every replica of the client
// object issues the same invocation; the invocation identifier (client
// group, operation sequence) is identical across replicas (Figure 3), so
// the server-side voter recognizes the copies. The manager's CallTimeout
// bounds the call.
func (h *Handle) Invoke(target ids.ObjectGroupID, iiopRequest []byte) ([]byte, error) {
	return h.InvokeDeadline(target, iiopRequest, time.Time{})
}

// InvokeDeadline is Invoke with an explicit per-call deadline (zero means
// now+CallTimeout). Within the deadline the invocation is re-sent up to
// the configured retry budget, with jittered exponential backoff between
// attempts; re-sends reuse the same operation identifier, so duplicate
// detection discards the extra copies and at-most-once execution is
// preserved. Re-sends are marked KindInvocationRetry, which additionally
// prompts server replicas that already executed the operation to re-send
// their retained reply — recovering calls whose response was lost in
// transit or shed by an unstable ring. Failures wrap ErrTimeout,
// ErrNotActive, ErrQuorumLost, or ErrGroupDegraded (match with errors.Is).
func (h *Handle) InvokeDeadline(target ids.ObjectGroupID, iiopRequest []byte, deadline time.Time) ([]byte, error) {
	if deadline.IsZero() {
		deadline = time.Now().Add(h.m.cfg.CallTimeout)
	}
	op, ch, msg, err := h.prepare(target, iiopRequest, true)
	if err != nil {
		return nil, err
	}
	var rawRetry []byte // lazily marshaled first time a re-send happens
	attempts := h.m.cfg.Retries + 1
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, h.m.timeoutError(op, target, deadline)
		}
		// Split the remaining window evenly over the attempts left, so
		// every retry gets a fair share of the deadline.
		window := remaining
		if left := attempts - attempt; left > 1 {
			window = remaining / time.Duration(left)
		}
		timer.Reset(window)
		select {
		case res := <-ch:
			timer.Stop()
			if res.err != nil {
				h.m.tracer.Abort(op)
				return nil, res.err
			}
			// Normally a no-op (the waiter delivery completed the trace);
			// it completes the cached-response path, where the reply was
			// queued before any waiter existed.
			h.m.tracer.Mark(op, obs.StageReplied)
			return res.payload, nil
		case <-timer.C:
		}
		if attempt+1 >= attempts {
			return nil, h.m.timeoutError(op, target, deadline)
		}
		// Jittered backoff, then re-multicast the invocation as a retry
		// (same operation id — voters discard copies of decided
		// operations, and executed replicas answer from reply retention).
		backoff := sec.JitteredBackoff(h.m.cfg.RetryBackoff, attempt, 250*time.Millisecond, h.m.cfg.Jitter)
		if wait := time.Until(deadline); backoff > wait {
			backoff = wait
		}
		if backoff > 0 {
			timer.Reset(backoff)
			select {
			case res := <-ch:
				timer.Stop()
				if res.err != nil {
					return nil, res.err
				}
				return res.payload, nil
			case <-timer.C:
			}
		}
		if rawRetry == nil {
			msg.Kind = group.KindInvocationRetry
			rawRetry = msg.Marshal()
		}
		if err := h.m.submitRouted(target, rawRetry); err != nil {
			if errors.Is(err, ErrOverloaded) {
				// The re-send was shed by the bounded submit queue, but the
				// original copy is already in the total order — keep waiting
				// for the voted response rather than failing the call.
				continue
			}
			return nil, h.m.timeoutError(op, target, deadline)
		}
		h.m.met.Retries.Inc()
	}
}

// timeoutError removes the waiter and classifies the failure by the state
// of the target group: no live replicas (or an excluded self) is a lost
// quorum; a live degree below ⌈(r+1)/2⌉ of the group's high-water degree
// is degradation; otherwise a plain timeout.
func (m *Manager) timeoutError(op ids.OperationID, target ids.ObjectGroupID, deadline time.Time) error {
	m.tracer.Abort(op)
	m.mu.Lock()
	m.dropWaiterLocked(op)
	size := m.dir.Size(target)
	hw := m.degreeHW[target]
	excluded := m.needSync
	m.mu.Unlock()
	switch {
	case excluded || size == 0:
		return fmt.Errorf("replication: %s to %s: %w", op, target, ErrQuorumLost)
	case size < group.Majority(hw):
		return fmt.Errorf("replication: %s to %s (%d/%d replicas live): %w",
			op, target, size, hw, ErrGroupDegraded)
	default:
		return fmt.Errorf("replication: %s to %s gave no voted response by %s: %w",
			op, target, deadline.Format("15:04:05.000"), ErrTimeout)
	}
}

// InvokeOneWay performs a replicated one-way invocation (no response; the
// packet-driver workload of §8).
func (h *Handle) InvokeOneWay(target ids.ObjectGroupID, iiopRequest []byte) error {
	_, _, _, err := h.prepare(target, iiopRequest, false)
	return err
}

// prepare assigns the operation identifier, registers a waiter for two-way
// calls, and multicasts the invocation. It returns the message so retries
// can re-marshal it with the retry kind.
func (h *Handle) prepare(target ids.ObjectGroupID, iiopRequest []byte, twoway bool) (ids.OperationID, chan invokeResult, *group.Message, error) {
	m := h.m
	m.mu.Lock()
	if !h.st.active {
		m.mu.Unlock()
		return ids.OperationID{}, nil, nil, fmt.Errorf("replication: replica %s: %w", h.st.id, ErrNotActive)
	}
	if twoway && m.cfg.MaxInFlight > 0 && h.st.inflight >= m.cfg.MaxInFlight {
		// Admission control: past the in-flight cap the call is shed
		// before any copy is multicast, so the caller can back off and
		// retry without risking duplicate execution.
		m.mu.Unlock()
		m.met.OverloadRejects.Inc()
		return ids.OperationID{}, nil, nil, fmt.Errorf("replication: replica %s: %d invocations in flight: %w",
			h.st.id, m.cfg.MaxInFlight, ErrOverloaded)
	}
	h.st.opSeq++
	op := ids.OperationID{ClientGroup: h.st.id.Group, Seq: h.st.opSeq}
	m.tracer.Mark(op, obs.StageIntercept)
	var ch chan invokeResult
	if twoway {
		ch = make(chan invokeResult, 1)
		if cached, ok := m.respCache.take(op); ok {
			// The vote already decided off our peers' copies; hand the
			// result straight back.
			ch <- invokeResult{payload: cached}
		} else {
			m.waiters[op] = &waiter{ch: ch, st: h.st}
			h.st.inflight++
			m.met.InFlight.Add(1)
		}
	}
	m.mu.Unlock()
	m.met.InvocationsSent.Inc()

	msg := &group.Message{
		Kind:    group.KindInvocation,
		Dest:    target,
		Op:      op,
		Sender:  h.st.id,
		Payload: iiopRequest,
	}
	if err := m.submitRouted(target, msg.Marshal()); err != nil {
		m.mu.Lock()
		if twoway {
			m.dropWaiterLocked(op)
		}
		if errors.Is(err, ErrOverloaded) {
			m.met.OverloadRejects.Inc()
		}
		m.mu.Unlock()
		m.tracer.Abort(op)
		return op, nil, nil, fmt.Errorf("replication: multicast invocation: %w", err)
	}
	m.tracer.Mark(op, obs.StageSubmit)
	if !twoway {
		// A one-way invocation's client-side lifecycle ends here; complete
		// the trace so its slot does not linger until the table caps out.
		m.tracer.Finish(op)
	}
	return op, ch, msg, nil
}
