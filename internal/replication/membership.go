package replication

import (
	"fmt"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/orb"
)

// announce multicasts a membership change for replica r to the base group
// and, once the stack has accepted it, reflects it to the routing layer's
// Mirror hook so other rings' directories follow. A rejoin is not
// mirrored: it rebuilds a server replica's state on its home ring, and
// foreign rings hold only client-flagged entries with no state to rebuild.
func (m *Manager) announce(kind group.Kind, r ids.ReplicaID, payload []byte) error {
	msg := &group.Message{
		Kind:    kind,
		Dest:    ids.BaseGroup,
		Member:  r,
		Target:  r.Group,
		Payload: payload,
	}
	if err := m.stack.Submit(msg.Marshal()); err != nil {
		return err
	}
	if m.cfg.Mirror != nil && kind != group.KindRejoin {
		m.cfg.Mirror(msg)
	}
	return nil
}

// HostReplica announces a local replica of an object group. servant may be
// nil for a client-only object (a pure invoker). key is the CORBA object
// key the replica's skeleton answers to. The replica activates when its
// Join message is delivered in total order (and, for non-first replicas,
// after majority-voted state transfer).
func (m *Manager) HostReplica(g ids.ObjectGroupID, key string, servant orb.Servant) (*Handle, error) {
	if g == ids.BaseGroup {
		return nil, fmt.Errorf("replication: group id %v is reserved", g)
	}
	m.mu.Lock()
	if m.needSync {
		m.mu.Unlock()
		return nil, fmt.Errorf("replication: processor %s awaiting directory resync", m.self)
	}
	if _, ok := m.hosted[g]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("replication: already hosting a replica of %s", g)
	}
	st := &replicaState{
		id:        ids.ReplicaID{Group: g, Processor: m.self},
		adapter:   orb.NewAdapter(),
		servant:   servant,
		activated: make(chan struct{}),
	}
	if servant != nil {
		if err := st.adapter.Register(key, servant); err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	m.hosted[g] = st
	m.mu.Unlock()

	serverFlag := byte(0)
	if servant != nil {
		serverFlag = 1
	}
	if err := m.announce(group.KindJoin, st.id, []byte{serverFlag}); err != nil {
		m.mu.Lock()
		delete(m.hosted, g)
		m.mu.Unlock()
		return nil, fmt.Errorf("replication: announce join: %w", err)
	}
	return &Handle{m: m, st: st}, nil
}

// Leave withdraws the replica from its object group: a Leave message is
// multicast and, once it reaches its total-order position, every
// Replication Manager removes the replica from the group membership and
// this handle deactivates.
func (h *Handle) Leave() error {
	if err := h.m.announce(group.KindLeave, h.st.id, nil); err != nil {
		return fmt.Errorf("replication: announce leave: %w", err)
	}
	return nil
}

// EvictReplica multicasts a Leave on behalf of a replica that cannot
// speak for itself (its processor withdrew or its activation never
// completed). Every Replication Manager removes it at the Leave's
// total-order position, exactly as a voluntary departure.
func (m *Manager) EvictReplica(r ids.ReplicaID) error {
	if err := m.announce(group.KindLeave, r, nil); err != nil {
		return fmt.Errorf("replication: evict %s: %w", r, err)
	}
	return nil
}

// handleRejoin re-admits a server replica whose processor fell behind the
// old ring before a membership install: at this total-order position the
// replica leaves the group's active membership and immediately rejoins as
// a fresh joiner, taking a majority-voted state transfer from the
// remaining active replicas. The hosting manager keeps its local replica
// (inactive) across the transition, so handles stay valid and the
// restored state lands in place. With no peer left holding trusted state
// the rejoiner becomes the group's first replica again, keeping whatever
// state it has — there is no better copy to restore from.
func (m *Manager) handleRejoin(msg *group.Message) {
	r := msg.Member
	if !m.dir.Contains(r) {
		return // unknown or already departed
	}
	if mi := m.members[r]; mi != nil && !mi.server {
		return // client replicas carry no state; nothing to rebuild
	}
	m.departLocked(r, true)
	m.admitLocked(r, true)
}

// admitLocked is the one join transition: replica r enters its group at
// this total-order position, as a server replica (carrying state) or a
// client-only one. Every manager runs it on the same ordered history, so
// membership, join markers and activation stay globally consistent.
// Caller holds m.mu.
func (m *Manager) admitLocked(r ids.ReplicaID, server bool) {
	// Determine the active server replicas BEFORE the join: they are the
	// state providers for the joiner. Every manager computes the same
	// set from the same ordered history.
	var providers []ids.ReplicaID
	for _, p := range m.dir.Members(r.Group) {
		if mi := m.members[p]; mi != nil && mi.server && mi.active {
			providers = append(providers, p)
		}
	}
	if !m.dir.Join(r) {
		return // duplicate join
	}
	if size := m.dir.Size(r.Group); size > m.degreeHW[r.Group] {
		m.degreeHW[r.Group] = size
	}
	m.joinSeq[r.Group]++
	marker := m.joinSeq[r.Group]
	m.members[r] = &memberInfo{server: server}

	st, local := m.hosted[r.Group]
	localJoiner := local && r.Processor == m.self

	if !server || len(providers) == 0 {
		// Client-only replica, or the group's first server replica: no
		// state to transfer; the replica activates at its join position.
		m.activateMemberLocked(r)
		m.recheckLocked()
		return
	}

	// State transfer required: record the wait (all managers track it so
	// that activation stays globally consistent), and any locally hosted
	// active provider contributes its snapshot.
	m.pending[r] = newStateWait(r.Group, marker, providers)
	if localJoiner {
		// Invocations decided between hosting the replica and this join's
		// delivery are already reflected in the providers' snapshots
		// (captured exactly at this total-order position); replaying them
		// after Restore would double-apply them. The backlog restarts
		// empty here, so activation replays only what providers applied
		// after the snapshot point.
		m.takeBacklogLocked(st)
	}
	if local && st.active && st.servant != nil && !localJoiner {
		m.submitSnapshotLocked(st, marker)
	}
	m.recheckLocked()
	m.notifyChangeLocked() // the directory lists the joiner
}

// departLocked is the one leave transition: replica r is taken out of the
// directory and of all voting and state-transfer machinery, and reports
// whether it was a member. keepHosted is the rejoin case: a locally hosted
// r goes inactive but stays registered (backlog included), awaiting
// re-admission. The caller rechecks the voters. Caller holds m.mu.
func (m *Manager) departLocked(r ids.ReplicaID, keepHosted bool) bool {
	if !m.dir.Leave(r) {
		return false
	}
	delete(m.members, r)
	delete(m.pending, r)
	if st, ok := m.hosted[r.Group]; ok && r.Processor == m.self {
		st.active = false
		if !keepHosted {
			m.takeBacklogLocked(st)
			delete(m.hosted, r.Group)
		}
	}
	m.invVoter.DropSender(r)
	m.respVoter.DropSender(r)
	// A departed provider shrinks outstanding state transfers: the need
	// threshold drops, so a crash cannot wedge a join. Snapshots in hand
	// decide now only if all came from survivors: a departed provider's
	// stays counted (the directory dump has no per-provider digest), and
	// an excluded value-faulty provider must not decide the transfer.
	for joiner, w := range m.pending {
		if !w.providers[r] {
			continue
		}
		delete(w.providers, r)
		delete(w.got, r)
		w.need = group.Majority(len(w.providers))
		if len(w.providers) == 0 {
			// No providers left: the joiner becomes the group's first
			// (state-free) replica.
			delete(m.pending, joiner)
			m.activateMemberLocked(joiner)
			continue
		}
		tallied := 0 // got lists only current providers
		for _, n := range w.counts {
			tallied += n
		}
		if tallied == len(w.got) { // a survivors' majority backs one digest at most
			for d := range w.counts {
				m.settleTransferLocked(joiner, w, d)
			}
		}
	}
	m.notifyChangeLocked()
	return true
}

// activateMemberLocked marks replica r active in the global view and, if
// it is hosted here, activates the local replica. Caller holds m.mu.
func (m *Manager) activateMemberLocked(r ids.ReplicaID) {
	if mi := m.members[r]; mi != nil {
		mi.active = true
	}
	if st, ok := m.hosted[r.Group]; ok && r.Processor == m.self {
		m.activateLocked(st)
	} else {
		m.notifyChangeLocked()
	}
}

// notifyChangeLocked fires the OnChange hook after activation, departure,
// resync, or membership changes. Caller holds m.mu; the hook must not block.
func (m *Manager) notifyChangeLocked() {
	if m.cfg.OnChange != nil {
		m.cfg.OnChange()
	}
}

// activateLocked marks a local replica active, wakes WaitActive blockers,
// and replays any voted invocations backlogged while it was joining.
// Caller holds m.mu.
func (m *Manager) activateLocked(st *replicaState) {
	if st.active {
		return
	}
	st.active = true
	select {
	case <-st.activated:
	default:
		close(st.activated)
	}
	if st.servant != nil {
		for _, b := range m.takeBacklogLocked(st) {
			m.dispatchInvocation(st, b.op, b.payload)
		}
	}
	m.notifyChangeLocked()
}

// OnMembershipInstall applies a processor membership install (§3.1): all
// replicas hosted by excluded processors are removed from all object
// groups, their pending copies are dropped, and the voters are rechecked
// (lower degrees may unblock majorities).
//
// If the local processor itself is excluded, the manager resets: the
// directory is discarded, in-flight invocations fail with ErrQuorumLost,
// and the manager refuses to host replicas until it rejoins and resyncs.
// On the install that readmits it, the manager buffers deliveries until a
// continuing member's directory dump for that install arrives, applies
// the dump, and replays the buffer — reconstructing exactly the state the
// continuing members hold. Continuing synced members multicast such a
// dump at every install (installID != 0).
// behind reports that the local processor installed this membership while
// still lagging the old ring's delivered tail (membership.Install.Behind):
// deliveries other members applied are lost to it, so its directory and
// every hosted server replica's state are suspect. The manager then
// resyncs the directory from a continuing member's dump and re-admits its
// server replicas via KindRejoin, rebuilding their state by a
// majority-voted transfer instead of continuing silently divergent.
func (m *Manager) OnMembershipInstall(installID uint64, members []ids.ProcessorID, behind bool) {
	alive := make(map[ids.ProcessorID]bool, len(members))
	for _, p := range members {
		alive[p] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vfd.setProcessors(len(members))
	if !alive[m.self] {
		m.resetLocked()
		return
	}
	if m.needSync {
		// Readmitted (or a further install arrived while still resyncing):
		// restart the buffer at this install and await its dump.
		m.syncID = installID
		m.syncBuf = nil
		return
	}
	if behind && installID != 0 {
		m.desyncLocked(installID)
		return
	}
	// Continuing synced member: drop the excluded processors' replicas,
	// deterministically.
	for _, g := range m.dir.Groups() {
		for _, r := range m.dir.Members(g) {
			if !alive[r.Processor] {
				m.departLocked(r, false)
			}
		}
	}
	m.recheckLocked()
	if installID != 0 {
		m.emitSyncLocked(installID)
	}
	m.notifyChangeLocked()
}

// resetLocked discards all group state after the local processor's
// exclusion from the membership. In-flight two-way invocations fail with
// ErrQuorumLost (no vote involving this processor can decide), hosted
// replicas deactivate, and needSync blocks hosting until a directory dump
// restores a consistent view. Caller holds m.mu.
func (m *Manager) resetLocked() {
	err := fmt.Errorf("replication: processor %s excluded from membership: %w", m.self, ErrQuorumLost)
	for op := range m.waiters {
		if ch, ok := m.dropWaiterLocked(op); ok {
			ch <- invokeResult{err: err}
		}
	}
	for _, st := range m.hosted {
		st.active = false
		m.takeBacklogLocked(st)
	}
	m.hosted = make(map[ids.ObjectGroupID]*replicaState)
	m.groupState = m.newGroupState()
	m.respCache = opStore{}
	m.needSync = true
	m.syncID = 0
	m.syncBuf = nil
	m.notifyChangeLocked()
}

// desyncLocked handles a membership install that the local processor
// applied while behind on the old ring's delivered tail. Unlike an
// exclusion (resetLocked), the processor remains a member: client
// replicas stay hosted (they carry no servant state) and in-flight
// two-way invocations keep their waiters — the client-side retry path
// re-multicasts them and executed replicas answer from reply retention —
// but the directory is rebuilt from a continuing member's dump and every
// active server replica is deactivated for re-admission behind a fresh
// state transfer (KindRejoin), because it may have silently missed
// decided operations that its peers executed. Caller holds m.mu.
func (m *Manager) desyncLocked(installID uint64) {
	m.met.Desyncs.Inc()
	m.needSync = true
	m.syncID = installID
	m.syncBuf = nil
	for _, st := range m.hosted {
		if st.servant == nil || !st.active {
			continue
		}
		st.active = false
		m.takeBacklogLocked(st)
		st.rejoin = true
	}
	m.notifyChangeLocked()
}

// submitRejoinsLocked multicasts a KindRejoin for every server replica
// flagged by a desync, once the directory resync has completed. Caller
// holds m.mu.
func (m *Manager) submitRejoinsLocked() {
	for _, st := range m.hosted {
		if !st.rejoin {
			continue
		}
		st.rejoin = false
		_ = m.announce(group.KindRejoin, st.id, []byte{1})
	}
}

// bufferOrSyncLocked handles one delivery while the manager awaits a
// directory dump. A matching dump is applied and the buffered tail
// replayed; any other delivery is buffered. Caller holds m.mu.
func (m *Manager) bufferOrSyncLocked(msg *group.Message) {
	if msg.Kind == group.KindDirectorySync && m.syncID != 0 {
		st, err := group.UnmarshalSyncState(msg.Payload)
		if err != nil || st.InstallID != m.syncID {
			return // malformed, or a dump for a different install
		}
		m.applySyncLocked(st)
		m.needSync = false
		m.syncID = 0
		buf := m.syncBuf
		m.syncBuf = nil
		for _, b := range buf {
			m.applyLocked(b)
		}
		m.submitRejoinsLocked()
		m.notifyChangeLocked()
		return
	}
	if m.syncID == 0 {
		return // excluded, not yet readmitted: nothing to resync against
	}
	if len(m.syncBuf) >= syncBufLimit {
		// Buffer exhausted without a dump: abandon this resync attempt.
		// The manager stays unsynced (and refuses to host replicas) until
		// a later install restarts it.
		m.syncID = 0
		m.syncBuf = nil
		return
	}
	m.syncBuf = append(m.syncBuf, msg)
}

// emitSyncLocked multicasts this manager's directory state, captured at
// the given membership install. The dump is captured inside the
// membership-change notification — after the old ring's deliveries and
// before any new-ring delivery — so every continuing member dumps
// identical state at the same total-order position. Caller holds m.mu.
func (m *Manager) emitSyncLocked(installID uint64) {
	state := &group.SyncState{InstallID: installID}
	seen := make(map[ids.ObjectGroupID]bool)
	addGroup := func(g ids.ObjectGroupID) {
		if seen[g] {
			return
		}
		seen[g] = true
		sg := group.SyncGroup{
			ID:       g,
			JoinSeq:  m.joinSeq[g],
			DegreeHW: uint32(m.degreeHW[g]),
		}
		for _, r := range m.dir.Members(g) {
			sm := group.SyncMember{Replica: r}
			if mi := m.members[r]; mi != nil {
				sm.Server, sm.Active = mi.server, mi.active
			}
			sg.Members = append(sg.Members, sm)
		}
		state.Groups = append(state.Groups, sg)
	}
	for _, g := range m.dir.Groups() {
		addGroup(g)
	}
	// Groups that emptied out still carry monotone counters.
	for g := range m.joinSeq {
		addGroup(g)
	}
	for g := range m.degreeHW {
		addGroup(g)
	}
	for joiner, w := range m.pending {
		p := group.SyncPending{Joiner: joiner, Group: w.group, Marker: w.marker}
		for r := range w.providers {
			p.Providers = append(p.Providers, r)
		}
		for r := range w.got {
			p.Got = append(p.Got, r)
		}
		for d, c := range w.counts {
			p.Snaps = append(p.Snaps, group.SyncSnap{Digest: d, Count: uint32(c), Payload: w.pays[d]})
		}
		state.Pending = append(state.Pending, p)
	}
	msg := &group.Message{
		Kind:    group.KindDirectorySync,
		Dest:    ids.BaseGroup,
		Sender:  ids.ReplicaID{Group: ids.BaseGroup, Processor: m.self},
		Payload: state.Marshal(),
	}
	_ = m.stack.Submit(msg.Marshal())
}

// applySyncLocked installs a directory dump, replacing all group state.
// Caller holds m.mu.
func (m *Manager) applySyncLocked(state *group.SyncState) {
	m.groupState = m.newGroupState()
	for _, g := range state.Groups {
		m.joinSeq[g.ID] = g.JoinSeq
		m.degreeHW[g.ID] = int(g.DegreeHW)
		for _, mem := range g.Members {
			m.dir.Join(mem.Replica)
			m.members[mem.Replica] = &memberInfo{server: mem.Server, active: mem.Active}
		}
	}
	for _, p := range state.Pending {
		w := newStateWait(p.Group, p.Marker, p.Providers)
		for _, r := range p.Got {
			w.got[r] = true
		}
		for _, sn := range p.Snaps {
			w.counts[sn.Digest] = int(sn.Count)
			w.pays[sn.Digest] = sn.Payload
		}
		m.pending[p.Joiner] = w
	}
}
