package replication

import (
	"sync"

	"immune/internal/group"
	"immune/internal/ids"
)

// valueFaultDetector is the value fault detector module of the Replication
// Manager (paper §6.2, Figure 2). Voters report deviant replicas; reports
// from other Replication Managers arrive as Value_Fault_Vote messages on
// the base group. When more than ⌊(n−1)/3⌋ distinct processors (so at
// least one correct one, given k ≤ ⌊(n−1)/3⌋ faulty) report the same
// replica, the detector confirms the fault and emits a Value_Fault_Suspect
// notification to the local Byzantine fault detector — the special message
// that "is not intended to be transmitted over the network" (§6.2).
type valueFaultDetector struct {
	mu         sync.Mutex
	processors int
	reports    map[ids.ReplicaID]map[ids.ProcessorID]bool
	confirmed  map[ids.ReplicaID]bool
	onConfirm  func(ids.ReplicaID)
}

func newValueFaultDetector(processors int, onConfirm func(ids.ReplicaID)) *valueFaultDetector {
	if processors <= 0 {
		processors = 1
	}
	return &valueFaultDetector{
		processors: processors,
		reports:    make(map[ids.ReplicaID]map[ids.ProcessorID]bool),
		confirmed:  make(map[ids.ReplicaID]bool),
		onConfirm:  onConfirm,
	}
}

// setProcessors updates the corroboration threshold after a processor
// membership change.
func (v *valueFaultDetector) setProcessors(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if n > 0 {
		v.processors = n
	}
}

// remoteVote ingests a Value_Fault_Vote message from another RM.
func (v *valueFaultDetector) remoteVote(msg *group.Message) {
	for _, entry := range msg.Votes {
		v.record(msg.Sender.Processor, entry.Sender)
	}
}

// record tallies one (reporter, culprit) pair — the local voter's own
// deviance verdict or an entry of a remote vote — and confirms on quorum.
func (v *valueFaultDetector) record(reporter ids.ProcessorID, culprit ids.ReplicaID) {
	if reporter == culprit.Processor {
		return // a processor cannot testify about itself
	}
	v.mu.Lock()
	if v.confirmed[culprit] {
		v.mu.Unlock()
		return
	}
	set := v.reports[culprit]
	if set == nil {
		set = make(map[ids.ProcessorID]bool)
		v.reports[culprit] = set
	}
	set[reporter] = true
	threshold := (v.processors-1)/3 + 1
	if len(set) < threshold {
		v.mu.Unlock()
		return
	}
	v.confirmed[culprit] = true
	delete(v.reports, culprit)
	cb := v.onConfirm
	v.mu.Unlock()
	if cb != nil {
		cb(culprit)
	}
}

// isConfirmed reports whether a replica has been confirmed corrupt.
func (v *valueFaultDetector) isConfirmed(r ids.ReplicaID) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.confirmed[r]
}
