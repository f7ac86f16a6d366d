// Package detector implements the Byzantine fault detector of the Secure
// Multicast Protocols (paper §7.3, Table 5). The detector monitors the
// messages sent by the message delivery and processor membership
// protocols, uses timeouts to detect crashed or silent processors, checks
// tokens for proper form and mutant versions, and accepts Value Fault
// Suspect notifications from the Replication Manager's value fault
// detector. Its output is the list of processors currently suspected by
// this (local) module; the membership protocol consumes that list.
//
// Target properties (Table 5):
//   - Eventual Strong Byzantine Completeness: every processor that has
//     exhibited a fault is eventually permanently suspected by every
//     correct processor (completed across processors by the membership
//     protocol's corroborated suspicion gossip).
//   - Eventual Strong Accuracy: every correct processor is eventually
//     never suspected by any correct processor (timeout-based suspicions
//     are cleared by renewed token activity; behavioural suspicions only
//     arise from misbehaviour).
//
// Concurrency: all methods must be called from the owning processor's
// event goroutine, except Suspects, which may be called from any
// goroutine.
package detector

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"immune/internal/ids"
	"immune/internal/ring"
)

// Reason classifies why a processor is suspected (Table 1 fault classes).
type Reason int

const (
	// ReasonSilent: the processor failed to forward the token or
	// otherwise stalled the rotation (processor crash, failure to send,
	// repeated failure to acknowledge).
	ReasonSilent Reason = iota + 1
	// ReasonMutantToken: the processor signed two different tokens for
	// the same visit, or broke the previous-token digest chain.
	ReasonMutantToken
	// ReasonMalformedToken: the processor sent a token that is not
	// properly formed.
	ReasonMalformedToken
	// ReasonMutantMessage: messages attributed to the processor
	// repeatedly failed digest screening.
	ReasonMutantMessage
	// ReasonValueFault: the Replication Manager's value fault detector
	// identified the processor as hosting a replica that sent an
	// incorrect value (paper §6.2, Value Fault Suspect).
	ReasonValueFault
	// ReasonUnresponsive: the processor failed to answer the membership
	// protocol's proposals.
	ReasonUnresponsive
	// ReasonCorroborated: enough distinct members reported the processor
	// that at least one reporter must be correct; the suspicion was
	// adopted from the membership protocol's exchange.
	ReasonCorroborated
)

// String returns the reason name.
func (r Reason) String() string {
	switch r {
	case ReasonSilent:
		return "silent"
	case ReasonMutantToken:
		return "mutant-token"
	case ReasonMalformedToken:
		return "malformed-token"
	case ReasonMutantMessage:
		return "mutant-message"
	case ReasonValueFault:
		return "value-fault"
	case ReasonUnresponsive:
		return "unresponsive"
	case ReasonCorroborated:
		return "corroborated"
	default:
		return fmt.Sprintf("Reason(%d)", int(r))
	}
}

// sticky reports whether a suspicion with this reason is permanent.
// Locally verified behavioural evidence is permanent; timeout-based
// suspicion can be cleared by renewed activity (that is what makes
// Eventual Strong Accuracy achievable in an asynchronous system with
// conservative timeouts). A corroborated suspicion is also cleared on
// view installation: the gossip carries no fault class, so it may relay
// mere silence — enough to exclude the processor from the next view, but
// a repaired processor must remain readmittable (Eventual Inclusion,
// Table 4). A truly Byzantine processor re-offends and is re-excluded on
// local evidence.
func (r Reason) sticky() bool {
	return r != ReasonSilent && r != ReasonUnresponsive && r != ReasonCorroborated
}

// Knobs are the detector's tuning values: the part of Config a deployment
// may set. The layers above (smp, the public immune.Config) carry this
// struct whole instead of re-declaring its fields, and New is the one
// place the defaults are applied.
type Knobs struct {
	// SuspectTimeout is how long the token rotation may stall before the
	// processor expected to act is suspected; 0 means 50ms.
	SuspectTimeout time.Duration
	// StrikeThreshold is how many weakly attributable offenses (invalid
	// tokens, mutant messages) a processor may accumulate before being
	// suspected; 0 means 3. Strongly attributable offenses (signed
	// mutant tokens, value-fault verdicts) suspect immediately.
	// Deployments on lossy links raise it so sustained wire corruption —
	// a link property — is not mistaken for processor misbehaviour.
	StrikeThreshold int
}

// Config parameterizes a detector.
type Config struct {
	Self ids.ProcessorID
	Knobs
	// OnSuspect is invoked (from the event goroutine) whenever a
	// processor becomes suspected. Optional.
	OnSuspect func(p ids.ProcessorID, r Reason)
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

// Detector is one processor's local Byzantine fault detector module.
type Detector struct {
	cfg Config
	now func() time.Time

	members      []ids.ProcessorID
	lastHolder   ids.ProcessorID
	lastActivity time.Time
	haveActivity bool

	strikes map[ids.ProcessorID]int

	mu       sync.Mutex
	suspects map[ids.ProcessorID]Reason
}

var _ ring.Observer = (*Detector)(nil)

// New creates a detector.
func New(cfg Config) *Detector {
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 50 * time.Millisecond
	}
	if cfg.StrikeThreshold <= 0 {
		cfg.StrikeThreshold = 3
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Detector{
		cfg:      cfg,
		now:      cfg.Now,
		strikes:  make(map[ids.ProcessorID]int),
		suspects: make(map[ids.ProcessorID]Reason),
	}
}

// Knobs returns the tuning values in effect, defaults applied.
func (d *Detector) Knobs() Knobs { return d.cfg.Knobs }

// SetView informs the detector of the currently installed processor
// membership (sorted). Non-sticky suspicions of processors no longer in
// the view are dropped; the liveness timer restarts.
func (d *Detector) SetView(members []ids.ProcessorID) {
	d.members = append([]ids.ProcessorID(nil), members...)
	d.lastActivity = d.now()
	d.haveActivity = false
	d.lastHolder = 0
	d.mu.Lock()
	defer d.mu.Unlock()
	for p, r := range d.suspects {
		if !r.sticky() {
			delete(d.suspects, p)
		}
	}
}

// TokenActivity implements ring.Observer: the rotation is alive. A
// liveness suspicion against the processor that just acted is withdrawn
// (Eventual Strong Accuracy).
func (d *Detector) TokenActivity(holder ids.ProcessorID, _ uint64) {
	d.lastHolder = holder
	d.lastActivity = d.now()
	d.haveActivity = true
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.suspects[holder]; ok && !r.sticky() {
		delete(d.suspects, holder)
	}
}

// TokenInvalid implements ring.Observer. The claimed sender accrues a
// strike: an invalid signature may be a third party's forgery, so a single
// occurrence is not proof against the claimed sender.
func (d *Detector) TokenInvalid(claimed ids.ProcessorID, _ string) {
	d.strike(claimed, ReasonMalformedToken)
}

// MutantToken implements ring.Observer. Two different signed tokens for
// one visit are strongly attributable: suspect immediately.
func (d *Detector) MutantToken(claimed ids.ProcessorID, _ uint64) {
	d.suspect(claimed, ReasonMutantToken)
}

// MutantMessage implements ring.Observer. A digest mismatch may be wire
// corruption, so the claimed sender accrues a strike rather than an
// immediate suspicion.
func (d *Detector) MutantMessage(claimed ids.ProcessorID, _ uint64) {
	d.strike(claimed, ReasonMutantMessage)
}

// ValueFaultSuspect accepts a Value Fault Suspect notification from the
// local Replication Manager (paper §6.2): the named processor hosts a
// replica that sent an incorrect value of an invocation or response. The
// notification is authoritative (it results from deterministic voting on
// an agreed set), so the processor is suspected immediately.
func (d *Detector) ValueFaultSuspect(p ids.ProcessorID) {
	d.suspect(p, ReasonValueFault)
}

// Unresponsive records that a processor failed to participate in the
// membership protocol's exchange.
func (d *Detector) Unresponsive(p ids.ProcessorID) {
	d.suspect(p, ReasonUnresponsive)
}

// AdoptSuspicion records a corroborated suspicion relayed by the
// membership protocol (enough distinct members reported it that at least
// one reporter is correct). This is the cross-processor half of Eventual
// Strong Byzantine Completeness.
func (d *Detector) AdoptSuspicion(p ids.ProcessorID, r Reason) {
	d.suspect(p, r)
}

// Tick checks the rotation liveness timeout. If the rotation has stalled,
// the processor whose turn it is — the successor of the last active
// holder — is suspected of being silent, and the timeout rearms. It
// returns when the timeout next expires, lastActivity+SuspectTimeout (the
// zero time with no view).
func (d *Detector) Tick() time.Time {
	if len(d.members) == 0 {
		return time.Time{}
	}
	now := d.now()
	if now.Sub(d.lastActivity) < d.cfg.SuspectTimeout {
		return d.lastActivity.Add(d.cfg.SuspectTimeout)
	}
	var culprit ids.ProcessorID
	if d.haveActivity {
		culprit = d.successorOf(d.lastHolder)
	} else {
		// No token ever seen in this view: the designated starter (the
		// lowest member) failed to kick the ring off.
		culprit = d.members[0]
	}
	// Skip over already-suspected processors: if the successor was
	// already suspected, the stall implicates the next one along.
	for i := 0; i < len(d.members); i++ {
		if culprit != d.cfg.Self && !d.Suspected(culprit) {
			break
		}
		culprit = d.successorOf(culprit)
	}
	// Rearm so each stall yields one suspicion step. When the walk ends at
	// ourselves (everyone else is suspected already) there is no one left
	// to suspect — we never self-suspect, others judge us — and only
	// activity or a new view, both of which rearm too, can change that.
	d.lastActivity = now
	if culprit != d.cfg.Self {
		d.suspect(culprit, ReasonSilent)
	}
	return d.lastActivity.Add(d.cfg.SuspectTimeout)
}

// Suspects returns the current suspects list (sorted), the module's output
// to the membership protocol (§7.3).
func (d *Detector) Suspects() []ids.ProcessorID {
	d.mu.Lock()
	out := make([]ids.ProcessorID, 0, len(d.suspects))
	for p := range d.suspects {
		out = append(out, p)
	}
	d.mu.Unlock()
	slices.Sort(out)
	return out
}

// Suspected reports whether p is currently suspected.
func (d *Detector) Suspected(p ids.ProcessorID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.suspects[p]
	return ok
}

// Reasons returns a copy of the suspect set with reasons.
func (d *Detector) Reasons() map[ids.ProcessorID]Reason {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[ids.ProcessorID]Reason, len(d.suspects))
	for p, r := range d.suspects {
		out[p] = r
	}
	return out
}

func (d *Detector) strike(p ids.ProcessorID, r Reason) {
	if p == d.cfg.Self {
		return
	}
	d.strikes[p]++
	if d.strikes[p] >= d.cfg.StrikeThreshold {
		d.suspect(p, r)
	}
}

func (d *Detector) suspect(p ids.ProcessorID, r Reason) {
	if p == d.cfg.Self {
		return
	}
	d.mu.Lock()
	prev, had := d.suspects[p]
	// Sticky reasons are never downgraded to non-sticky ones.
	if !had || (!prev.sticky() && r.sticky()) {
		d.suspects[p] = r
	}
	d.mu.Unlock()
	if !had && d.cfg.OnSuspect != nil {
		d.cfg.OnSuspect(p, r)
	}
}

func (d *Detector) successorOf(p ids.ProcessorID) ids.ProcessorID {
	for i, m := range d.members {
		if m == p {
			return d.members[(i+1)%len(d.members)]
		}
	}
	return d.members[0]
}
