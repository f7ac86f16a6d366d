package replication

import (
	"encoding/binary"
	"errors"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/sec"
)

// stateWait tracks an in-progress state transfer for a joining server
// replica.
type stateWait struct {
	group     ids.ObjectGroupID
	marker    uint64
	providers map[ids.ReplicaID]bool
	need      int
	got       map[ids.ReplicaID]bool
	counts    map[[sec.DigestSize]byte]int
	pays      map[[sec.DigestSize]byte][]byte
}

// newStateWait opens a transfer toward the joiner admitted to g with the
// given join marker: a majority of providers must deliver matching
// snapshots.
func newStateWait(g ids.ObjectGroupID, marker uint64, providers []ids.ReplicaID) *stateWait {
	w := &stateWait{
		group:     g,
		marker:    marker,
		providers: make(map[ids.ReplicaID]bool, len(providers)),
		need:      group.Majority(len(providers)),
		got:       make(map[ids.ReplicaID]bool),
		counts:    make(map[[sec.DigestSize]byte]int),
		pays:      make(map[[sec.DigestSize]byte][]byte),
	}
	for _, p := range providers {
		w.providers[p] = true
	}
	return w
}

// submitSnapshotLocked multicasts a local provider's contribution to the
// transfer opened at join marker `marker`: captured exactly at the join's
// total-order position, so all providers snapshot identical state (§3.1
// reallocation). Caller holds m.mu.
func (m *Manager) submitSnapshotLocked(st *replicaState, marker uint64) {
	state := &group.Message{
		Kind:    group.KindState,
		Dest:    st.id.Group,
		Target:  st.id.Group,
		Op:      ids.OperationID{Seq: marker},
		Sender:  st.id,
		Payload: encodeStatePayload(st.servant.Snapshot(), &st.replies),
	}
	_ = m.stack.Submit(state.Marshal())
}

// handleState applies a state snapshot toward a joining replica's
// majority-voted state transfer. Every manager tallies (so that activation
// stays globally consistent); only the local joiner actually restores.
func (m *Manager) handleState(msg *group.Message) {
	// Locate the wait this snapshot serves.
	var joiner ids.ReplicaID
	var wait *stateWait
	for r, w := range m.pending {
		if w.group == msg.Target && w.marker == msg.Op.Seq {
			joiner, wait = r, w
			break
		}
	}
	if wait == nil {
		return
	}
	if !wait.providers[msg.Sender] || wait.got[msg.Sender] {
		return // not a designated provider, or a duplicate snapshot
	}
	wait.got[msg.Sender] = true
	d := sec.Digest(msg.Payload)
	wait.counts[d]++
	if _, have := wait.pays[d]; !have {
		wait.pays[d] = append([]byte(nil), msg.Payload...)
	}
	m.settleTransferLocked(joiner, wait, d)
}

// settleTransferLocked activates the joiner with snapshot d, restoring it
// here if the joiner is local, once d has the need threshold of matching
// copies. The tally and threshold move only at total-order positions
// (handleState, departLocked), so it activates there everywhere. Caller
// holds m.mu.
func (m *Manager) settleTransferLocked(joiner ids.ReplicaID, wait *stateWait, d [sec.DigestSize]byte) {
	if wait.counts[d] < wait.need {
		return
	}
	delete(m.pending, joiner)
	if mi := m.members[joiner]; mi != nil {
		mi.active = true
	}
	st, ok := m.hosted[joiner.Group]
	if !ok || joiner.Processor != m.self {
		m.notifyChangeLocked()
		return
	}
	snap, replies, err := decodeStatePayload(wait.pays[d])
	if err != nil {
		return // unusable snapshot; replica stays inactive locally
	}
	if err := st.servant.Restore(snap); err != nil {
		return // unusable snapshot; replica stays inactive locally
	}
	// Adopt the providers' retained-reply cache: the snapshot already
	// reflects these operations' effects, and without their replies this
	// replica could never answer a retry for them — after enough
	// re-hostings the response vote would lose its quorum for good.
	st.replies = replies
	m.met.StateTransfers.Inc()
	// activateLocked replays the backlog accumulated during the transfer.
	m.activateLocked(st)
}

// encodeStatePayload frames a provider's state-transfer payload: the
// servant snapshot followed by the replica's retained-reply cache in
// retention order. The cache is part of the group's replicated state —
// every provider holds an identical copy (entries accrue in total
// order), so the framed payloads still digest-match across providers.
func encodeStatePayload(snap []byte, replies *opStore) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(snap)))
	b = append(b, snap...)
	b = binary.LittleEndian.AppendUint32(b, uint32(replies.len()))
	replies.each(func(op ids.OperationID, r []byte) {
		b = binary.LittleEndian.AppendUint32(b, uint32(op.ClientGroup))
		b = binary.LittleEndian.AppendUint64(b, op.Seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
	})
	return b
}

// decodeStatePayload is the inverse of encodeStatePayload. Any framing
// that runs past the payload, or stops short of its end, is an error.
func decodeStatePayload(payload []byte) (snap []byte, replies opStore, err error) {
	bad := errors.New("replication: truncated state payload")
	take := func(n uint64) []byte { // next n bytes; nil and err once exhausted
		if err != nil || uint64(len(payload)) < n {
			err = bad
			return nil
		}
		b := payload[:n]
		payload = payload[n:]
		return b
	}
	u32 := func() uint32 {
		if b := take(4); b != nil {
			return binary.LittleEndian.Uint32(b)
		}
		return 0
	}
	snap = append([]byte(nil), take(uint64(u32()))...)
	for i, count := uint32(0), u32(); i < count && err == nil; i++ {
		op := ids.OperationID{ClientGroup: ids.ObjectGroupID(u32())}
		if b := take(8); b != nil {
			op.Seq = binary.LittleEndian.Uint64(b)
		}
		replies.put(op, append([]byte(nil), take(uint64(u32()))...))
	}
	if err != nil || len(payload) != 0 {
		return nil, opStore{}, bad
	}
	return snap, replies, nil
}
