package replication

import (
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/obs"
	"immune/internal/sec"
	"immune/internal/voting"
)

// HandleDelivery processes one totally ordered payload from the Secure
// Multicast Protocols. It must be called from the stack's delivery
// goroutine (deliveries arrive in total order).
func (m *Manager) HandleDelivery(payload []byte) {
	msg, err := group.Unmarshal(payload)
	if err != nil {
		return // not a group message (foreign traffic on the stack)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.needSync {
		m.bufferOrSyncLocked(msg)
		return
	}
	m.applyLocked(msg)
}

// applyLocked dispatches one delivered group message. Caller holds m.mu.
func (m *Manager) applyLocked(msg *group.Message) {
	switch msg.Kind {
	case group.KindJoin:
		// Base group traffic (§6.1). The payload flag distinguishes server
		// replicas (which carry state) from client-only ones (which do not).
		m.admitLocked(msg.Member, len(msg.Payload) > 0 && msg.Payload[0] == 1)
	case group.KindLeave:
		if m.departLocked(msg.Member, false) {
			m.recheckLocked()
		}
	case group.KindInvocation, group.KindInvocationRetry:
		m.handleInvocation(msg)
	case group.KindResponse:
		m.handleResponse(msg)
	case group.KindValueFaultVote:
		m.vfd.remoteVote(msg)
	case group.KindState:
		m.handleState(msg)
	case group.KindRejoin:
		m.handleRejoin(msg)
	case group.KindDirectorySync:
		// A rejoiner's dump; a synced manager has no use for it.
	}
}

// handleInvocation feeds an invocation copy to V_I if the destination
// group is hosted here (Figure 2: the RM filters messages based on their
// destination groups).
func (m *Manager) handleInvocation(msg *group.Message) {
	st, ok := m.hosted[msg.Dest]
	if !ok || !m.dir.Contains(msg.Sender) {
		// Not hosted here, or the sender is not a current member of its
		// claimed group.
		return
	}
	m.tracer.Mark(msg.Op, obs.StageOrdered)
	d := sec.Digest(msg.Payload)
	out := m.invVoter.OfferTo(msg.Dest, msg.Op, msg.Sender, msg.Payload, d)
	m.noteOutcome(msg, out, d)
	if !out.Decided {
		if msg.Kind == group.KindInvocationRetry && out.Duplicate {
			// The client is retrying an operation this replica already
			// executed: its response (or the original submit) was lost.
			// Re-send the retained reply instead of re-executing, so the
			// call completes without violating at-most-once semantics.
			m.resendReplyLocked(st, msg.Op)
		}
		return
	}
	m.met.InvocationsDecided.Inc()
	m.tracer.Mark(msg.Op, obs.StageVoted)
	m.deliverInvocationLocked(st, msg.Op, out.Payload)
}

// deliverInvocationLocked hands a voted invocation to the hosted replica:
// executed now, or held in the backlog until the replica activates.
// Caller holds m.mu.
func (m *Manager) deliverInvocationLocked(st *replicaState, op ids.OperationID, iiopRequest []byte) {
	if !st.active {
		m.pushBacklogLocked(st, op, iiopRequest)
		return
	}
	m.dispatchInvocation(st, op, iiopRequest)
}

// dispatchInvocation runs the voted invocation on the local servant and
// multicasts the response copy. Caller holds m.mu.
func (m *Manager) dispatchInvocation(st *replicaState, op ids.OperationID, iiopRequest []byte) {
	reply, err := st.adapter.HandleRequest(iiopRequest)
	if err != nil || reply == nil {
		return // undecodable request or one-way: nothing to send back
	}
	// Retain the reply before attempting to send it: if the submit fails
	// (the ring can refuse new traffic while a dead member blocks
	// stability) the operation must still be answerable from the cache
	// when the client retries.
	st.replies.put(op, reply)
	if err := m.submitRouted(op.ClientGroup, m.responseFor(st, op, reply)); err == nil {
		m.met.ResponsesSent.Inc()
		m.tracer.Mark(op, obs.StageExecuted)
	}
}

// responseFor marshals this replica's response copy for an executed
// operation.
func (m *Manager) responseFor(st *replicaState, op ids.OperationID, reply []byte) []byte {
	resp := &group.Message{
		Kind:    group.KindResponse,
		Dest:    op.ClientGroup,
		Op:      op,
		Sender:  st.id,
		Payload: reply,
	}
	return resp.Marshal()
}

// resendReplyLocked answers a retried invocation from the replica's
// retained-reply cache. A miss is harmless: either the operation was
// never executed here (it is still pending or backlogged and will answer
// through the normal path) or its entry aged out, in which case the
// other replicas' copies carry the vote. Caller holds m.mu.
func (m *Manager) resendReplyLocked(st *replicaState, op ids.OperationID) {
	reply, ok := st.replies.get(op)
	if !ok || !st.active {
		return
	}
	if err := m.submitRouted(op.ClientGroup, m.responseFor(st, op, reply)); err == nil {
		m.met.ResponsesResent.Inc()
	}
}

// handleResponse feeds a response copy to V_R if the destination client
// group is hosted here.
func (m *Manager) handleResponse(msg *group.Message) {
	if _, ok := m.hosted[msg.Dest]; !ok || !m.dir.Contains(msg.Sender) {
		return
	}
	d := sec.Digest(msg.Payload)
	out := m.respVoter.OfferDigest(msg.Op, msg.Sender, msg.Payload, d)
	m.noteOutcome(msg, out, d)
	if !out.Decided {
		return
	}
	m.met.ResponsesDecided.Inc()
	m.tracer.Mark(msg.Op, obs.StageRespVoted)
	m.deliverResponseLocked(msg.Op, out.Payload)
}

// deliverResponseLocked hands a decided response to its waiter, or caches
// it for a local client replica that has not asked yet. Caller holds m.mu.
func (m *Manager) deliverResponseLocked(op ids.OperationID, payload []byte) {
	if ch, ok := m.dropWaiterLocked(op); ok {
		ch <- invokeResult{payload: payload}
		m.tracer.Mark(op, obs.StageReplied)
		return
	}
	m.respCache.put(op, payload)
}

// noteOutcome records duplicate/deviant information from a voter outcome
// and runs the value-fault protocol of §6.2. d is the digest of
// msg.Payload, computed once by the caller and shared with the voter.
// Caller holds m.mu.
func (m *Manager) noteOutcome(msg *group.Message, out voting.Outcome, d [sec.DigestSize]byte) {
	if out.Duplicate {
		m.met.Duplicates.Inc()
	}
	deviants := out.Deviants
	if out.Deviant != nil {
		deviants = append(deviants, *out.Deviant)
	}
	if len(deviants) == 0 {
		return
	}
	m.met.ValueFaults.Add(uint64(len(deviants)))
	// Local observation, then a Value_Fault_Vote to the base group so
	// that every Replication Manager reaches the same verdict (§6.2).
	votes := make([]group.VoteEntry, 0, len(deviants))
	for _, dev := range deviants {
		m.vfd.record(m.self, dev)
		votes = append(votes, group.VoteEntry{Sender: dev, Digest: d})
	}
	vote := &group.Message{
		Kind:   group.KindValueFaultVote,
		Dest:   ids.BaseGroup,
		Op:     msg.Op,
		Sender: ids.ReplicaID{Group: msg.Dest, Processor: m.self},
		Target: msg.Dest,
		Votes:  votes,
	}
	_ = m.stack.Submit(vote.Marshal())
}

// recheckLocked drains decisions that became possible after a membership
// or degree change. Caller holds m.mu.
func (m *Manager) recheckLocked() {
	for _, dec := range m.invVoter.Recheck() {
		m.met.InvocationsDecided.Inc()
		if st, hosted := m.hosted[dec.Dest]; hosted {
			m.deliverInvocationLocked(st, dec.Op, dec.Payload)
		}
	}
	for _, dec := range m.respVoter.Recheck() {
		m.met.ResponsesDecided.Inc()
		m.deliverResponseLocked(dec.Op, dec.Payload)
	}
}

// pushBacklogLocked queues a voted invocation for a not-yet-active local
// replica: entries older than the TTL are expired and, past the cap, the
// oldest are shed first — a group that never activates must not retain
// ordered traffic forever. Caller holds m.mu.
func (m *Manager) pushBacklogLocked(st *replicaState, op ids.OperationID, payload []byte) {
	now := time.Now()
	bl := st.backlog
	if m.cfg.BacklogTTL > 0 {
		cut := 0
		for cut < len(bl) && now.Sub(bl[cut].at) > m.cfg.BacklogTTL {
			cut++
		}
		if cut > 0 {
			bl = append([]backlogEntry(nil), bl[cut:]...)
			m.met.BacklogShed.Add(uint64(cut))
		}
	}
	bl = append(bl, backlogEntry{op: op, payload: payload, at: now})
	if m.cfg.MaxBacklog > 0 && len(bl) > m.cfg.MaxBacklog {
		over := len(bl) - m.cfg.MaxBacklog
		bl = append([]backlogEntry(nil), bl[over:]...)
		m.met.BacklogShed.Add(uint64(over))
	}
	m.met.Backlog.Add(int64(len(bl) - len(st.backlog)))
	st.backlog = bl
}

// takeBacklogLocked empties a replica's backlog (activation replay or
// teardown), keeping the aggregate depth gauge consistent. Caller holds
// m.mu.
func (m *Manager) takeBacklogLocked(st *replicaState) []backlogEntry {
	bl := st.backlog
	st.backlog = nil
	m.met.Backlog.Add(-int64(len(bl)))
	return bl
}
