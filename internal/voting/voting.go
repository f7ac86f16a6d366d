// Package voting implements the Immune system's majority voting machinery
// (paper §5.1, §6): the voters V_I (on invocations, at server replicas)
// and V_R (on responses, at client replicas), duplicate detection via
// operation identifiers, suppression of copies after a result is produced,
// and value-fault detection when a replica's copy deviates from the
// majority value.
//
// The voting algorithm is deterministic: because every Replication Manager
// receives the same copies in the same total order (courtesy of the Secure
// Multicast Protocols) and the thresholds are functions of the same group
// membership view, every voter produces the same result for each operation
// at every replica (paper §6.1).
package voting

import (
	"sort"
	"time"

	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/sec"
)

// Outcome reports the voter's decision state after offering a copy.
type Outcome struct {
	// Decided is true the single time the voter produces its result.
	Decided bool
	// Payload is the majority value (set only when Decided).
	Payload []byte
	// Deviants lists replicas whose copies differed from the majority
	// value (value faults, §6.2). Populated when Decided and extended on
	// late deviant arrivals via the Deviant field.
	Deviants []ids.ReplicaID
	// Duplicate is true if the copy repeats a sender's earlier copy or
	// arrives after the decision with the majority value.
	Duplicate bool
	// Deviant is set (non-zero processor) when a single late or repeat
	// copy deviates from the decided value or from the sender's own
	// earlier copy.
	Deviant *ids.ReplicaID
}

// copyRec records one replica's copy of an operation.
type copyRec struct {
	sender ids.ReplicaID
	digest [sec.DigestSize]byte
}

// tally accumulates the vote for one distinct value.
type tally struct {
	digest  [sec.DigestSize]byte
	payload []byte
	count   int
}

// entry is the per-operation voting state. Replication degrees are small
// (3-7), so copies and tallies live in linear slices backed by inline
// arrays: creating an entry costs one allocation, and lookups are cheap
// scans rather than map probes.
type entry struct {
	copies  []copyRec
	tallies []tally
	dest    ids.ObjectGroupID // group the first copy was addressed to (OfferTo)
	firstAt time.Time         // first copy's arrival (set only when metrics are on)

	copiesBuf  [4]copyRec
	talliesBuf [2]tally
}

// newEntry returns an entry whose slices alias the inline buffers; append
// spills to the heap only beyond 4 copies / 2 distinct values.
func newEntry() *entry {
	e := &entry{}
	e.copies = e.copiesBuf[:0]
	e.tallies = e.talliesBuf[:0]
	return e
}

// copyOf returns the digest previously recorded for sender.
func (e *entry) copyOf(sender ids.ReplicaID) ([sec.DigestSize]byte, bool) {
	for i := range e.copies {
		if e.copies[i].sender == sender {
			return e.copies[i].digest, true
		}
	}
	return [sec.DigestSize]byte{}, false
}

// tallyOf returns the tally for digest d, or nil.
func (e *entry) tallyOf(d [sec.DigestSize]byte) *tally {
	for i := range e.tallies {
		if e.tallies[i].digest == d {
			return &e.tallies[i]
		}
	}
	return nil
}

// Voter runs majority voting on invocations (V_I) or on responses (V_R),
// Figure 2. A Replication Manager shares one of each across every object
// group it hosts: operation identifiers are unique system-wide, and OfferTo
// keeps each vote's target group with it. Not safe for concurrent use; the
// Replication Manager drives it from its delivery goroutine.
type Voter struct {
	// degree returns the current replication degree of the sender group
	// (r_c for invocations, r_s for responses), from the base group's
	// membership information.
	degree func(sender ids.ObjectGroupID) int

	ops     map[ids.OperationID]*entry
	decided map[ids.OperationID][sec.DigestSize]byte // op -> winning digest
	// hiOp is the highest decided sequence number per client group. The
	// decided set keeps the decidedWindow sequence numbers below it;
	// everything under that low-water mark (loOf) is forgotten and any
	// copy of it is a duplicate.
	hiOp map[ids.ObjectGroupID]uint64

	m Metrics
}

// decidedWindow is how far below a client group's highest decided sequence
// number the voter still remembers decisions. Operation sequence numbers
// are monotone per client group, so older copies can only be stragglers.
const decidedWindow = 8192

// NewVoter creates a voter. degree must return the sender group's current
// replication degree (0 if unknown — voting waits until it is known).
func NewVoter(degree func(ids.ObjectGroupID) int) *Voter {
	return &Voter{
		degree:  degree,
		ops:     make(map[ids.OperationID]*entry),
		decided: make(map[ids.OperationID][sec.DigestSize]byte),
		hiOp:    make(map[ids.ObjectGroupID]uint64),
	}
}

// SetMetrics installs observability hooks. The zero value disables them.
func (v *Voter) SetMetrics(m Metrics) { v.m = m }

// Pending returns the number of undecided operations being voted on.
func (v *Voter) Pending() int { return len(v.ops) }

// Offer feeds one copy to the voter and reports the resulting state
// transition.
func (v *Voter) Offer(op ids.OperationID, sender ids.ReplicaID, payload []byte) Outcome {
	return v.OfferDigest(op, sender, payload, sec.Digest(payload))
}

// OfferDigest is Offer with the payload digest already computed. The
// Replication Manager digests each delivered payload once and reuses it
// for voting and for fault attribution, instead of redigesting per
// consumer. d must be sec.Digest(payload).
func (v *Voter) OfferDigest(op ids.OperationID, sender ids.ReplicaID, payload []byte, d [sec.DigestSize]byte) Outcome {
	return v.OfferTo(0, op, sender, payload, d)
}

// OfferTo is OfferDigest for a voter shared across target groups: dest, the
// group the copy is addressed to, is recorded with the vote when its first
// copy arrives and handed back in DecidedOp.Dest if a later Recheck decides
// it, so the caller keeps no operation-keyed record of its own.
func (v *Voter) OfferTo(dest ids.ObjectGroupID, op ids.OperationID, sender ids.ReplicaID, payload []byte, d [sec.DigestSize]byte) Outcome {
	if winner, done := v.decided[op]; done {
		// Post-decision copy: discarded per §6.1, but a copy deviating
		// from the decided value is still attributable evidence of a
		// value fault (§6.2).
		return v.duplicate(sender, d != winner)
	}
	if op.Seq < loOf(v.hiOp[op.ClientGroup]) {
		// Below the decided window: the operation was decided and then
		// forgotten. Opening a fresh vote would deliver it a second time
		// (at-most-once execution), so a straggler this old is only ever a
		// duplicate; its value can no longer be checked.
		return v.duplicate(sender, false)
	}
	e := v.ops[op]
	if e == nil {
		e = newEntry()
		e.dest = dest
		if v.m.MajorityLatency != nil {
			e.firstAt = time.Now()
		}
		v.ops[op] = e
	}
	if prev, ok := e.copyOf(sender); ok {
		// The same replica sending two different values for one operation
		// is unambiguously faulty (mutant invocation/response). Do not let
		// the second value influence the vote.
		return v.duplicate(sender, prev != d)
	}
	e.copies = append(e.copies, copyRec{sender: sender, digest: d})
	v.m.VotesCast.Inc()
	t := e.tallyOf(d)
	if t == nil {
		e.tallies = append(e.tallies, tally{
			digest:  d,
			payload: append([]byte(nil), payload...),
		})
		t = &e.tallies[len(e.tallies)-1]
	}
	t.count++

	// The threshold follows the sender group: the client group for
	// invocation copies, the server group for response copies.
	if r := v.degree(sender.Group); r <= 0 || t.count < group.Majority(r) {
		return Outcome{}
	}
	dec := v.decide(op, e, t)
	return Outcome{Decided: true, Payload: dec.Payload, Deviants: dec.Deviants}
}

// duplicate reports a suppressed copy; one that deviates from the value
// it repeats names its sender as a value fault.
func (v *Voter) duplicate(sender ids.ReplicaID, deviates bool) Outcome {
	v.m.Duplicates.Inc()
	if !deviates {
		return Outcome{Duplicate: true}
	}
	v.m.ValueFaults.Inc()
	return Outcome{Duplicate: true, Deviant: &sender}
}

// decide closes the vote on op with t as its majority value: the winner
// is remembered for duplicate suppression, every copy that differs is a
// deviant (sorted, so all managers report them alike), and the pending
// entry is released.
func (v *Voter) decide(op ids.OperationID, e *entry, t *tally) DecidedOp {
	v.remember(op, t.digest)
	v.m.Decided.Inc()
	if v.m.MajorityLatency != nil && !e.firstAt.IsZero() {
		v.m.MajorityLatency.Observe(time.Since(e.firstAt))
	}
	dec := DecidedOp{Op: op, Dest: e.dest, Payload: t.payload}
	for i := range e.copies {
		if e.copies[i].digest != t.digest {
			dec.Deviants = append(dec.Deviants, e.copies[i].sender)
		}
	}
	sort.Slice(dec.Deviants, func(i, j int) bool {
		if dec.Deviants[i].Group != dec.Deviants[j].Group {
			return dec.Deviants[i].Group < dec.Deviants[j].Group
		}
		return dec.Deviants[i].Processor < dec.Deviants[j].Processor
	})
	v.m.ValueFaults.Add(uint64(len(dec.Deviants)))
	delete(v.ops, op)
	return dec
}

// Recheck re-evaluates all pending operations after a membership change
// lowered a group's degree (a crashed replica can no longer block
// majorities). It returns the newly decidable outcomes in deterministic
// (client group, seq) order.
func (v *Voter) Recheck() []DecidedOp {
	var pend []ids.OperationID
	for op := range v.ops {
		pend = append(pend, op)
	}
	sort.Slice(pend, func(i, j int) bool {
		if pend[i].ClientGroup != pend[j].ClientGroup {
			return pend[i].ClientGroup < pend[j].ClientGroup
		}
		return pend[i].Seq < pend[j].Seq
	})
	var out []DecidedOp
	for _, op := range pend {
		e := v.ops[op] // never without a copy: DropSender deletes those
		r := v.degree(e.copies[0].sender.Group)
		if r <= 0 {
			continue
		}
		for i := range e.tallies {
			if t := &e.tallies[i]; t.count >= group.Majority(r) {
				out = append(out, v.decide(op, e, t))
				break
			}
		}
	}
	return out
}

// DecidedOp is a deferred decision produced by Recheck.
type DecidedOp struct {
	Op       ids.OperationID
	Dest     ids.ObjectGroupID // as given to OfferTo with the first copy
	Payload  []byte
	Deviants []ids.ReplicaID
}

// DropSender removes a replica's pending copies (used when a processor is
// excluded and its replicas are removed from all groups, §3.1).
func (v *Voter) DropSender(r ids.ReplicaID) {
	for op, e := range v.ops {
		for i := range e.copies {
			if e.copies[i].sender == r {
				// Every copy has its tally; one left at zero votes can
				// never reach a majority and revives if the value returns.
				e.tallyOf(e.copies[i].digest).count--
				e.copies = append(e.copies[:i], e.copies[i+1:]...)
				break
			}
		}
		if len(e.copies) == 0 {
			delete(v.ops, op)
		}
	}
}

// loOf returns the low-water mark of a client group whose highest decided
// sequence number is hi: decisions below it have been forgotten.
func loOf(hi uint64) uint64 {
	if hi < decidedWindow {
		return 0
	}
	return hi - decidedWindow
}

// remember records op's winning digest and slides its client group's
// window: as the highest decided sequence number advances, the entries the
// low-water mark passes are deleted one by one. Nothing is recorded above
// the old high mark, so the walk stops there and a jump in sequence
// numbers costs at most one window, never the size of the jump.
func (v *Voter) remember(op ids.OperationID, winner [sec.DigestSize]byte) {
	hi := v.hiOp[op.ClientGroup]
	if op.Seq < loOf(hi) {
		return // decided late, already under the mark that answers for it
	}
	v.decided[op] = winner
	if op.Seq <= hi {
		return
	}
	v.hiOp[op.ClientGroup] = op.Seq
	for lo, cut := loOf(hi), loOf(op.Seq); lo < cut && lo <= hi; lo++ {
		delete(v.decided, ids.OperationID{ClientGroup: op.ClientGroup, Seq: lo})
	}
}
