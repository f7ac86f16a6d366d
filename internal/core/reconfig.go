package core

// Live reconfiguration: grow, drain, and re-weight a running system
// without stopping client invocations. The paper's Immune System
// survives faults it did not choose; this file covers the changes an
// operator *did* choose — capacity adds (AddProcessor), maintenance
// drains (DrainProcessor, Drain), and replication-degree changes
// (ResizeGroup) — reusing the same protocol machinery that heals
// failures: the membership protocol admits and excises processors, the
// majority-voted state transfer populates new replicas, and the
// recovery manager's placement policy picks hosts.
//
// All operations serialize on reconfigMu. That serialization is part of
// the safety argument, not just tidiness: every quorum fence below is
// evaluated against a topology that no concurrent reconfiguration is
// mutating, so two racing drains cannot both pass a fence that only one
// of them satisfies.

import (
	"fmt"
	"slices"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/transport"
)

// DefaultReconfigTimeout bounds a reconfiguration operation whose caller
// passes no explicit budget.
const DefaultReconfigTimeout = 30 * time.Second

func (s *System) requireStarted() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return fmt.Errorf("core: reconfiguration requires a started system")
	}
	return nil
}

// insertID adds id to a sorted processor list (no-op if present).
func insertID(list []ids.ProcessorID, id ids.ProcessorID) []ids.ProcessorID {
	if i, found := slices.BinarySearch(list, id); !found {
		list = slices.Insert(list, i, id)
	}
	return list
}

// AddProcessor adds a processor to the running system: it derives the
// identifier's keypair from the shared seed, builds per-ring stacks that
// start outside every membership, and waits until the live members admit
// it on every ring (membership propose/commit) and its Replication
// Managers have caught up from a continuing member's directory dump. A
// previously drained processor is re-admitted in place, reusing its
// original network attachments.
//
// In a multi-process deployment peers can verify the new processor's
// signatures only if its identifier is within the original 1..Processors
// range (every process pre-derives those keys from the shared seed); an
// identifier beyond it joins only in single-process systems.
//
// On timeout the half-joined processor is withdrawn (stacks stopped,
// endpoints retained), so a later retry can re-add it in place.
func (s *System) AddProcessor(id ids.ProcessorID, timeout time.Duration) error {
	if id <= 0 {
		return fmt.Errorf("core: invalid processor id %s", id)
	}
	if timeout <= 0 {
		timeout = DefaultReconfigTimeout
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.requireStarted(); err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(timeout)

	s.topoMu.RLock()
	old := s.procs[id]
	present := old != nil && !s.drained[id]
	s.topoMu.RUnlock()
	if present {
		return fmt.Errorf("core: processor %s already present", id)
	}
	if s.cfg.Level >= sec.LevelSignatures {
		if err := s.deriveKey(id); err != nil {
			return err
		}
	}
	var reuse []transport.Endpoint
	if old != nil {
		reuse = old.eps
	}
	proc, err := s.buildProcessor(id, true, reuse)
	if err != nil {
		return err
	}

	s.topoMu.Lock()
	s.procs[id] = proc
	s.order = insertID(s.order, id)
	s.members = insertID(s.members, id)
	delete(s.draining, id)
	delete(s.drained, id)
	s.topoMu.Unlock()
	s.notifyActivity() // the topology changed: reference() may pick anew

	for _, st := range proc.stacks {
		st.Start()
	}

	if !s.await(deadline, func() bool { return s.admitted(proc) }) {
		s.retireProcessor(id, proc)
		return fmt.Errorf("core: processor %s not admitted within %v", id, timeout)
	}
	s.joinsDone.Inc()
	s.joinLatency.Observe(time.Since(start))
	return nil
}

// admitted reports whether the joining processor holds an installed view
// containing itself on every ring, its directories have resynced, and
// the authoritative (survivor-side) view agrees.
func (s *System) admitted(proc *Processor) bool {
	for r := 0; r < s.rings; r++ {
		inst := proc.stacks[r].View()
		if inst.ID == 0 || !slices.Contains(inst.Members, proc.id) {
			return false
		}
		if !proc.mgrs[r].Synced() {
			return false
		}
	}
	for r := 0; r < s.rings; r++ {
		ref := s.reference(r)
		if ref == nil || !slices.Contains(ref.stacks[r].View().Members, proc.id) {
			return false
		}
	}
	return true
}

// retireProcessor stops a processor's stacks and records it as drained:
// out of the membership list, not a placement target, endpoints retained
// so AddProcessor can re-admit it in place.
func (s *System) retireProcessor(id ids.ProcessorID, proc *Processor) {
	for _, st := range proc.stacks {
		st.Stop()
	}
	s.topoMu.Lock()
	s.draining[id] = true
	s.drained[id] = true
	s.members = slices.DeleteFunc(s.members, func(p ids.ProcessorID) bool { return p == id })
	s.topoMu.Unlock()
	s.notifyActivity()
}

// DrainProcessor withdraws a processor for maintenance without tripping
// the fault detectors: it stops being a placement target, every group
// replica it hosts is migrated away (spec'd groups add-before-remove via
// a majority-voted state transfer; spec-less replicas are excised behind
// a quorum fence), the processor then leaves each ring's membership
// voluntarily (a signed Leave, excluded at the next install without
// suspicion strikes), and finally its stacks stop. The drained processor
// stays visible in Processors() but inert; AddProcessor re-admits it.
//
// The drain aborts — and the processor reverts to normal service — if a
// hosted replica can neither be migrated nor safely excised.
func (s *System) DrainProcessor(id ids.ProcessorID, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = DefaultReconfigTimeout
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.requireStarted(); err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(timeout)

	s.topoMu.Lock()
	proc := s.procs[id]
	if proc == nil {
		s.topoMu.Unlock()
		return fmt.Errorf("core: no processor %s", id)
	}
	if s.draining[id] {
		s.topoMu.Unlock()
		return fmt.Errorf("core: processor %s already draining", id)
	}
	survivors := 0
	for _, o := range s.order {
		if o != id && !s.draining[o] {
			survivors++
		}
	}
	if survivors == 0 {
		s.topoMu.Unlock()
		return fmt.Errorf("core: cannot drain %s: no processor would remain", id)
	}
	s.draining[id] = true
	s.topoMu.Unlock()
	s.notifyActivity()
	undo := func() {
		s.topoMu.Lock()
		delete(s.draining, id)
		s.topoMu.Unlock()
		s.notifyActivity()
	}

	// Phase 1: move or excise every replica the processor hosts, one
	// group at a time, each ring's groups from its home-ring directory.
	for r := 0; r < s.rings; r++ {
		ref := s.reference(r)
		if ref == nil {
			undo()
			return fmt.Errorf("core: drain %s: no synced survivor on ring %d", id, r)
		}
		for _, g := range ref.mgrs[r].Directory().Groups() {
			if RingOf(g, s.rings) != r {
				continue // mirrored entry; its home ring handles it
			}
			if !ref.mgrs[r].Directory().Contains(ids.ReplicaID{Group: g, Processor: id}) {
				continue
			}
			if err := s.migrateOff(g, id, deadline); err != nil {
				undo()
				return fmt.Errorf("core: drain %s: group %s: %w", id, g, err)
			}
		}
	}

	// Phase 2: voluntary departure from every ring's membership. The
	// survivors exclude the leaver at their next install without
	// charging fault-detector strikes.
	for _, st := range proc.stacks {
		st.Leave()
	}
	excised := s.waitExcised(id, deadline)

	// Phase 3: stop the stacks and retire the processor (endpoints
	// retained for a later re-add).
	s.retireProcessor(id, proc)
	s.drainsDone.Inc()
	s.drainLatency.Observe(time.Since(start))
	if !excised {
		return fmt.Errorf("core: drained %s, but survivors did not exclude it within %v (excision falls back to suspicion)", id, timeout)
	}
	return nil
}

// migrateOff removes group g's replica from processor `from`. Groups
// hosted through HostGroup (registered for recovery) migrate
// add-before-remove: a replacement is placed first by the recovery
// manager's placement step and populated by the majority-voted state
// transfer, so the group's voting strength never dips. Other replicas
// (client-role replicas, directly hosted servers) cannot be re-created
// here, so they are excised — fenced so the survivors keep a voting quorum
// against the group's high-water degree.
func (s *System) migrateOff(g ids.ObjectGroupID, from ids.ProcessorID, deadline time.Time) error {
	r := s.RingOf(g)
	rep := ids.ReplicaID{Group: g, Processor: from}
	ref := s.reference(r)
	if ref == nil {
		return fmt.Errorf("no synced survivor on ring %d", r)
	}
	mgr := ref.mgrs[r]
	degree := s.rec.Degree(g)
	if degree == 0 {
		live := mgr.Directory().Size(g)
		hw := mgr.GroupDegreeHW(g)
		if hw < live {
			hw = live
		}
		if live-1 < group.Majority(hw) {
			return fmt.Errorf("evicting %s would leave %d replicas, below the quorum floor %d of degree %d",
				rep, live-1, group.Majority(hw), hw)
		}
		if err := mgr.EvictReplica(rep); err != nil {
			return err
		}
		return s.waitEvicted(rep, deadline)
	}
	if err := s.placeReplica(g, deadline); err != nil {
		return fmt.Errorf("replacement: %w", err)
	}
	if err := mgr.EvictReplica(rep); err != nil {
		return err
	}
	if err := s.waitEvicted(rep, deadline); err != nil {
		return err
	}
	// The transient degree+1 during the handover raised every manager's
	// high-water mark; restore it so error classification and the
	// recovery bootstrap guard keep their baselines.
	s.setDegreeHW(g, degree)
	return nil
}

// placeReplica adds one replica of g through the recovery manager's
// placement step — the one policy every placement follows — and waits
// until the replica is active and the authoritative directory lists it.
func (s *System) placeReplica(g ids.ObjectGroupID, deadline time.Time) error {
	target, pl, err := s.rec.Place(g)
	if err != nil {
		return err
	}
	if !s.await(deadline, func() bool {
		hosts, _ := clusterAdapter{s: s}.Group(g)
		return pl.Active() && slices.Contains(hosts, target)
	}) {
		return fmt.Errorf("replica on %s not active by the deadline", target)
	}
	return nil
}

// waitEvicted blocks until the authoritative directory no longer lists
// the replica (its eviction delivered in total order).
func (s *System) waitEvicted(rep ids.ReplicaID, deadline time.Time) error {
	r := s.RingOf(rep.Group)
	if !s.await(deadline, func() bool {
		ref := s.reference(r)
		return ref != nil && !ref.mgrs[r].Directory().Contains(rep)
	}) {
		return fmt.Errorf("replica %s still in the directory at the deadline", rep)
	}
	return nil
}

// waitExcised reports whether every ring's authoritative view dropped
// the departed processor before the deadline.
func (s *System) waitExcised(id ids.ProcessorID, deadline time.Time) bool {
	return s.await(deadline, func() bool {
		for r := 0; r < s.rings; r++ {
			ref := s.reference(r)
			if ref == nil || slices.Contains(ref.stacks[r].View().Members, id) {
				return false
			}
		}
		return true
	})
}

// pickVictim selects which replica a shrink excises next: a draining
// host first (it is leaving anyway), otherwise the highest identifier.
func (s *System) pickVictim(g ids.ObjectGroupID) ids.ProcessorID {
	r := s.RingOf(g)
	ref := s.reference(r)
	if ref == nil {
		return 0
	}
	members := ref.mgrs[r].Directory().Members(g)
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	var victim ids.ProcessorID
	victimDraining := false
	for _, m := range members {
		d := s.draining[m.Processor]
		if (d && !victimDraining) || (d == victimDraining && m.Processor > victim) {
			victim, victimDraining = m.Processor, d
		}
	}
	return victim
}

// setDegreeHW re-baselines a group's high-water degree on every local
// manager that tracks it (a deliberate degree change must move the
// degradation and quorum baselines, or a shrink would read as permanent
// degradation and a grow's transient surplus would linger).
func (s *System) setDegreeHW(g ids.ObjectGroupID, degree int) {
	for _, proc := range s.localProcs() {
		for _, mgr := range proc.mgrs {
			if mgr.GroupDegreeHW(g) != 0 {
				mgr.SetGroupDegreeHW(g, degree)
			}
		}
	}
}

// ResizeGroup changes the replication degree of a group hosted through
// HostGroup while invocations keep flowing. Growth places replicas one at
// a time by the recovery manager's placement step, each populated by the
// majority-voted state transfer. A shrink is fenced: the new degree must
// keep the current live replicas' voting quorum (at least ⌈(live+1)/2⌉),
// and a degraded group (live below its high-water degree) must recover
// before it may shrink; replicas are then excised one at a time, draining
// hosts first, highest identifier otherwise.
func (s *System) ResizeGroup(g ids.ObjectGroupID, degree int, timeout time.Duration) error {
	if degree <= 0 {
		return fmt.Errorf("core: invalid degree %d", degree)
	}
	if timeout <= 0 {
		timeout = DefaultReconfigTimeout
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.requireStarted(); err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(timeout)

	if s.rec.Degree(g) == 0 {
		return fmt.Errorf("core: group %s not hosted through HostGroup; only spec'd groups can be re-weighted", g)
	}
	r := s.RingOf(g)
	ref := s.reference(r)
	if ref == nil {
		return fmt.Errorf("core: resize %s: no synced processor on ring %d", g, r)
	}
	mgr := ref.mgrs[r]
	live := mgr.Directory().Size(g)
	switch {
	case degree > live:
		for ; live < degree; live++ {
			if err := s.placeReplica(g, deadline); err != nil {
				return fmt.Errorf("core: resize %s: replica %d: %w", g, live+1, err)
			}
		}
	case degree < live:
		if degree < group.Majority(live) {
			return fmt.Errorf("core: resize %s: degree %d below the quorum floor %d of the %d live replicas",
				g, degree, group.Majority(live), live)
		}
		if hw := mgr.GroupDegreeHW(g); live < hw {
			return fmt.Errorf("core: resize %s: group degraded (%d live of %d); recover before shrinking", g, live, hw)
		}
	}
	// After a grow's placements, before a shrink's evictions: recovery
	// must not re-host what the shrink removes.
	if err := s.rec.Register(g, degree); err != nil {
		return fmt.Errorf("core: resize %s: %w", g, err)
	}
	for ; live > degree; live-- {
		victim := s.pickVictim(g)
		if victim == 0 {
			return fmt.Errorf("core: resize %s: no replica left to excise at %d live", g, live)
		}
		rep := ids.ReplicaID{Group: g, Processor: victim}
		if err := mgr.EvictReplica(rep); err != nil {
			return fmt.Errorf("core: resize %s: %w", g, err)
		}
		if err := s.waitEvicted(rep, deadline); err != nil {
			return fmt.Errorf("core: resize %s: %w", g, err)
		}
	}
	s.setDegreeHW(g, degree)
	s.resizesDone.Inc()
	s.resizeLatency.Observe(time.Since(start))
	return nil
}

// Drain gracefully withdraws every locally hosted processor of a
// multi-process deployment (the counterpart of DrainProcessor there):
// local replicas are excised (peer processes re-host spec'd groups
// through their own recovery managers — this process cannot place onto
// processors it does not run), and every local stack then leaves its
// ring's membership voluntarily, so peers excise this process without
// suspicion strikes. The caller Stops the system afterwards;
// cmd/immune-node uses this for its SIGTERM drain.
func (s *System) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = DefaultReconfigTimeout
	}
	s.reconfigMu.Lock()
	defer s.reconfigMu.Unlock()
	if err := s.requireStarted(); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	procs := s.localProcs()
	for _, p := range procs {
		for _, mgr := range p.mgrs {
			for _, rep := range mgr.HostedReplicas() {
				_ = mgr.EvictReplica(rep)
			}
		}
	}
	// Wait for the evictions to deliver (the hosted set empties) or the
	// deadline to pass — a drain is best-effort once the process is on
	// its way out.
	s.await(deadline, func() bool {
		for _, p := range procs {
			for _, mgr := range p.mgrs {
				if len(mgr.HostedReplicas()) > 0 {
					return false
				}
			}
		}
		return true
	})
	for _, p := range procs {
		for _, st := range p.stacks {
			st.Leave()
		}
	}
	// Let the departure circulate before the caller stops the stacks.
	grace := time.Until(deadline)
	if grace > 500*time.Millisecond {
		grace = 500 * time.Millisecond
	}
	if grace > 0 {
		time.Sleep(grace)
	}
	s.drainsDone.Inc()
	return nil
}
