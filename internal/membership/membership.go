// Package membership implements the processor membership protocol of the
// Secure Multicast Protocols (paper §7.2, Table 4). The protocol
// reconfigures the system when processors exhibit faulty behavior: it
// exchanges information via special signed Membership messages, reaches
// agreement on a new membership consisting of apparently correct
// processors that can communicate with each other, and installs it.
// Installation tears down the old ring configuration and starts a new one
// with a fresh ring identifier.
//
// Target properties (Table 4): Uniqueness, Self-Inclusion, Total Order of
// installs, Eventual Exclusion of faulty processors, and Eventual
// Inclusion of correct ones. Termination rests on the Byzantine fault
// detector's properties (§7.2).
//
// Protocol sketch (a deliberately simplified SecureRing-style exchange;
// the original is a full Byzantine agreement, see DESIGN.md):
//
//  1. When the local fault detector's suspect list makes the current view
//     untenable — or a valid Propose for the next install arrives — the
//     processor multicasts Propose{install i+1, members = view − suspects}.
//  2. Proposals are re-multicast periodically until installation; each
//     carries the sender's suspect list. A suspicion corroborated by more
//     than ⌊(n−1)/3⌋ distinct members must include a correct reporter and
//     is adopted (cross-processor Byzantine completeness).
//  3. While forming, members exchange old-ring Flush traffic so lagging
//     members deliver the old ring's tail (cross-configuration Reliable
//     Delivery).
//  4. When the latest proposals from every member of my proposal agree
//     exactly with mine and the flush barrier is met (or timed out), the
//     processor multicasts Commit and installs. A Commit for install i+1
//     from an unsuspected member with a matching-quorum proposal is
//     adopted by members still forming, which makes installs contagious
//     and keeps correct processors in step.
package membership

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/wire"
)

// Install describes one installed processor membership.
type Install struct {
	ID      ids.MembershipID
	Ring    ids.RingID
	Members []ids.ProcessorID // sorted
	// Behind is a local-only flag: true when this processor installed the
	// membership knowing it had not delivered the old ring's full tail
	// (the flush barrier expired before it caught up). Messages other
	// members delivered are lost to it, so any application state built
	// from the delivery stream may have silently missed updates and must
	// be rebuilt, not trusted. Behind is never true for a processor
	// outside Members — exclusion already forces a full resync.
	Behind bool
}

// RingBridge is the membership protocol's handle on the current ring
// configuration, used for the flush exchange during formation. The SMP
// layer provides an adapter that always points at the live ring instance.
type RingBridge interface {
	// Delivered returns the all-delivered-up-to of the current ring.
	Delivered() uint64
	// RecoveryDigests returns digest vouchers above from.
	RecoveryDigests(from uint64) []wire.DigestEntry
	// RecoveryMessages returns held message encodings above from.
	RecoveryMessages(from uint64) [][]byte
	// AdoptFlushDigests installs vouchers received from a peer flush.
	AdoptFlushDigests(entries []wire.DigestEntry, from ids.ProcessorID)
	// HandleRegular feeds a re-multicast old-ring message to the ring.
	HandleRegular(raw []byte)
}

// Transport multicasts membership traffic on the underlying network.
type Transport interface {
	Multicast(payload []byte)
}

// SuspectSource exposes the local fault detector's current output.
type SuspectSource interface {
	Suspects() []ids.ProcessorID
	Suspected(p ids.ProcessorID) bool
	// AdoptSuspicion records a corroborated remote suspicion.
	AdoptSuspicion(p ids.ProcessorID, reason string)
	// Unresponsive reports a member that ignored the exchange.
	Unresponsive(p ids.ProcessorID)
}

// Config parameterizes the membership module of one processor.
type Config struct {
	Self  ids.ProcessorID
	Suite *sec.Suite
	Trans Transport
	// Initial is the first installed membership (install 1, ring 1).
	// Ignored when Joining is set.
	Initial []ids.ProcessorID
	// Joining starts the processor outside any membership (live
	// reconfiguration: a processor added to a running system). The
	// initial view is empty; the processor waits for a member's Announce,
	// adopts the advertised view, and requests admission exactly like a
	// repaired processor (Eventual Inclusion, Table 4).
	Joining bool
	// Source is the local Byzantine fault detector.
	Source SuspectSource
	// Bridge reaches the live ring for the flush exchange.
	Bridge RingBridge
	// OnInstall fires when a new membership is installed. Required.
	OnInstall func(Install)
	// ProposeInterval is the re-multicast period while forming; 0 means
	// 5ms.
	ProposeInterval time.Duration
	// FormTimeout is how long to wait for a member's proposal before
	// reporting it unresponsive; 0 means 100ms.
	FormTimeout time.Duration
	// FlushTimeout bounds the flush barrier wait; 0 means 250ms. The
	// barrier only delays installs while some member still lags the old
	// ring's delivered tail, so a generous bound costs nothing on the
	// common path and gives slow-but-correct members time to catch up —
	// a member that installs still lagging loses the tail for good and
	// must rebuild its replicas (Install.Behind).
	FlushTimeout time.Duration
	// AnnounceInterval is how often the lowest member of an installed
	// view advertises it to processors outside it (Eventual Inclusion,
	// Table 4); 0 means 50ms.
	AnnounceInterval time.Duration
	// RejoinInterval is how often an excluded processor re-requests
	// readmission into the view it adopted; 0 means 25ms.
	RejoinInterval time.Duration
	// Now is the clock; nil means time.Now.
	Now func() time.Time
}

// Membership runs the processor membership protocol for one processor.
// All methods must be called from the owning processor's event goroutine.
type Membership struct {
	cfg Config
	now func() time.Time

	current   Install
	joined    map[ids.ProcessorID]bool // non-members asking to join
	departed  map[ids.ProcessorID]bool // members that announced a voluntary leave
	leaving   bool                     // this processor announced its own leave
	lastLeave time.Time

	forming      bool
	attempt      uint64
	myProposal   []ids.ProcessorID
	proposals    map[ids.ProcessorID]*wire.Membership // latest per sender
	suspectVotes map[ids.ProcessorID]map[ids.ProcessorID]bool
	formStarted  time.Time
	flushStarted time.Time // barrier epoch: set once per formation, never rearmed
	lastPropose  time.Time
	lastFlush    time.Time
	lastAnnounce time.Time
	lastRejoin   time.Time

	installs atomic.Uint64 // installs beyond the initial one (cross-goroutine reads)
}

// New validates the configuration and installs the initial membership.
func New(cfg Config) (*Membership, error) {
	if len(cfg.Initial) == 0 && !cfg.Joining {
		return nil, fmt.Errorf("membership: empty initial membership")
	}
	if cfg.OnInstall == nil {
		return nil, fmt.Errorf("membership: OnInstall required")
	}
	if cfg.Trans == nil || cfg.Source == nil || cfg.Bridge == nil || cfg.Suite == nil {
		return nil, fmt.Errorf("membership: transport, source, bridge and suite required")
	}
	if cfg.ProposeInterval <= 0 {
		cfg.ProposeInterval = 5 * time.Millisecond
	}
	if cfg.FormTimeout <= 0 {
		cfg.FormTimeout = 100 * time.Millisecond
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = 250 * time.Millisecond
	}
	if cfg.AnnounceInterval <= 0 {
		cfg.AnnounceInterval = 50 * time.Millisecond
	}
	if cfg.RejoinInterval <= 0 {
		cfg.RejoinInterval = 25 * time.Millisecond
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	m := &Membership{
		cfg:          cfg,
		now:          cfg.Now,
		joined:       make(map[ids.ProcessorID]bool),
		departed:     make(map[ids.ProcessorID]bool),
		proposals:    make(map[ids.ProcessorID]*wire.Membership),
		suspectVotes: make(map[ids.ProcessorID]map[ids.ProcessorID]bool),
	}
	if cfg.Joining {
		// Outside any membership: install 0 is a sentinel no real view
		// ever uses, so the first adopted Announce always supersedes it.
		m.current = Install{}
		return m, nil
	}
	initial := wire.SortProcessors(append([]ids.ProcessorID(nil), cfg.Initial...))
	if !slices.Contains(initial, cfg.Self) {
		return nil, fmt.Errorf("membership: self %s not in initial membership", cfg.Self)
	}
	m.current = Install{ID: 1, Ring: 1, Members: initial}
	return m, nil
}

// Current returns the installed membership.
func (m *Membership) Current() Install {
	return Install{
		ID:      m.current.ID,
		Ring:    m.current.Ring,
		Members: append([]ids.ProcessorID(nil), m.current.Members...),
		Behind:  m.current.Behind,
	}
}

// Installs returns how many memberships have been installed beyond the
// initial one.
func (m *Membership) Installs() uint64 { return m.installs.Load() }

// Forming reports whether a membership change is in progress.
func (m *Membership) Forming() bool { return m.forming }

// Quorate reports whether a membership of size n can tolerate its current
// suspect load: at least ceil((2n+1)/3) of n processors must be correct
// (paper §3.1, §7.1).
func Quorate(n, faulty int) bool {
	return faulty <= (n-1)/3
}

// MinCorrect returns ceil((2n+1)/3), the minimum number of correct
// processors required in a membership of size n.
func MinCorrect(n int) int { return (2*n + 1 + 2) / 3 }

// Tick drives formation: starting a change when suspects appear, periodic
// proposal re-multicast, flush exchange, unresponsive detection, and the
// install decision. It returns when it next has timed work (see deadline).
func (m *Membership) Tick() time.Time {
	now := m.now()
	switch {
	case m.leaving:
		// A leaver neither proposes nor adopts: it re-advertises its
		// departure until the survivors install a view without it (the
		// upper layer then stops this stack).
		if !now.Before(m.deadline()) {
			m.sendLeave()
		}
	case !m.forming && m.needChange():
		m.beginForming()
	case !m.forming:
		if d := m.deadline(); !d.IsZero() && !now.Before(d) {
			m.maintain()
		}
	default:
		if now.Sub(m.lastPropose) >= m.cfg.ProposeInterval {
			m.multicastProposal()
		}
		m.flush()
		if now.Sub(m.formStarted) >= m.cfg.FormTimeout {
			m.reportUnresponsive()
			m.formStarted = now // rearm
			m.recomputeProposal()
		}
		m.tryInstall()
	}
	return m.deadline()
}

// deadline reports when Tick next has timed work; the zero time means
// none until a frame arrives or a suspicion is raised (which the caller
// must answer with a Tick). A leaver re-sends its Leave. While forming:
// the next proposal or flush, the unresponsive check and, while it is
// open, the end of the flush barrier. In an installed view the lowest
// member announces it, and an excluded processor that adopted a view
// re-requests admission (one joining from scratch waits for an Announce).
func (m *Membership) deadline() time.Time {
	switch {
	case m.leaving:
		return m.lastLeave.Add(m.cfg.RejoinInterval)
	case m.forming:
		last := m.lastPropose
		if m.lastFlush.Before(last) {
			last = m.lastFlush
		}
		next := last.Add(m.cfg.ProposeInterval)
		if t := m.formStarted.Add(m.cfg.FormTimeout); t.Before(next) {
			next = t
		}
		if t := m.flushStarted.Add(m.cfg.FlushTimeout); t.Before(next) && m.now().Before(t) {
			next = t
		}
		return next
	case m.isMember(m.cfg.Self):
		if m.current.Members[0] == m.cfg.Self {
			return m.lastAnnounce.Add(m.cfg.AnnounceInterval)
		}
	case m.current.ID != 0:
		return m.lastRejoin.Add(m.cfg.RejoinInterval)
	}
	return time.Time{}
}

// maintain runs the steady-state duty of an installed view once deadline
// says it is due: the lowest member periodically announces the view to
// processors outside it, and an excluded processor periodically requests
// readmission into the view it adopted. Together these implement Eventual
// Inclusion (Table 4) for repaired processors.
func (m *Membership) maintain() {
	if m.isMember(m.cfg.Self) {
		m.lastAnnounce = m.now()
		msg := &wire.Membership{
			Sender:    m.cfg.Self,
			Kind:      wire.MembershipAnnounce,
			InstallID: m.current.ID,
			NewRing:   m.current.Ring,
			Members:   m.current.Members,
		}
		if err := m.sign(msg); err == nil {
			m.cfg.Trans.Multicast(msg.Marshal())
		}
		return
	}
	m.lastRejoin = m.now()
	m.RequestJoin(m.current)
}

// Leave announces this processor's voluntary departure (maintenance
// drain). The leave message is re-multicast from Tick until the upper
// layer stops the stack; survivors exclude the processor administratively,
// with no fault-detector strikes. Irreversible for this instance — a
// drained processor rejoins with a fresh stack.
func (m *Membership) Leave() {
	if m.leaving {
		return
	}
	m.leaving = true
	m.forming = false
	m.myProposal = nil
	m.sendLeave()
}

// Leaving reports whether this processor has announced its departure.
func (m *Membership) Leaving() bool { return m.leaving }

// sendLeave signs and multicasts the departure announcement.
func (m *Membership) sendLeave() {
	m.lastLeave = m.now()
	msg := &wire.Membership{
		Sender:    m.cfg.Self,
		Kind:      wire.MembershipLeave,
		InstallID: m.current.ID,
		NewRing:   m.current.Ring,
	}
	if err := m.sign(msg); err != nil {
		return
	}
	m.cfg.Trans.Multicast(msg.Marshal())
}

// needChange reports whether the installed view conflicts with the
// detector's suspicions or pending joins.
func (m *Membership) needChange() bool {
	for _, p := range m.current.Members {
		if p != m.cfg.Self && (m.cfg.Source.Suspected(p) || m.departed[p]) {
			return true
		}
	}
	for p := range m.joined {
		if !m.cfg.Source.Suspected(p) {
			return true
		}
	}
	return false
}

// beginForming opens a membership change for install current+1.
func (m *Membership) beginForming() {
	m.forming = true
	m.formStarted = m.now()
	m.flushStarted = m.formStarted
	m.proposals = make(map[ids.ProcessorID]*wire.Membership)
	m.suspectVotes = make(map[ids.ProcessorID]map[ids.ProcessorID]bool)
	m.recomputeProposal()
}

// recomputeProposal derives my proposal from the current view, pending
// joins, and the detector's suspect set, then multicasts it.
func (m *Membership) recomputeProposal() {
	set := make(map[ids.ProcessorID]bool, len(m.current.Members)+len(m.joined))
	for _, p := range m.current.Members {
		set[p] = true
	}
	for p := range m.joined {
		set[p] = true
	}
	for _, s := range m.cfg.Source.Suspects() {
		delete(set, s)
	}
	for p := range m.departed {
		delete(set, p)
	}
	set[m.cfg.Self] = true // Self-Inclusion (Table 4)
	proposal := make([]ids.ProcessorID, 0, len(set))
	for p := range set {
		proposal = append(proposal, p)
	}
	wire.SortProcessors(proposal)
	if !wire.SameMembers(proposal, m.myProposal) {
		m.myProposal = proposal
		m.attempt++
	}
	m.multicastProposal()
}

// multicastProposal signs and sends the current proposal.
func (m *Membership) multicastProposal() {
	msg := &wire.Membership{
		Sender:    m.cfg.Self,
		Kind:      wire.MembershipPropose,
		Attempt:   m.attempt,
		InstallID: m.current.ID + 1,
		NewRing:   m.current.Ring + 1,
		Delivered: m.cfg.Bridge.Delivered(),
		Members:   m.myProposal,
		Suspects:  m.cfg.Source.Suspects(),
	}
	m.lastPropose = m.now() // even unsigned: the next attempt waits its interval
	if err := m.sign(msg); err != nil {
		return
	}
	m.cfg.Trans.Multicast(msg.Marshal())
	// Record our own proposal so tryInstall sees it uniformly.
	m.proposals[m.cfg.Self] = msg
}

func (m *Membership) sign(msg *wire.Membership) error {
	sig, err := m.cfg.Suite.SignToken(msg.SignedPortion())
	if err != nil {
		return err
	}
	msg.Signature = sig
	return nil
}

// HandleMessage processes a received Membership protocol payload.
func (m *Membership) HandleMessage(raw []byte) {
	msg, err := wire.UnmarshalMembership(raw)
	if err != nil {
		return
	}
	if msg.Sender == m.cfg.Self {
		return
	}
	if !m.cfg.Suite.VerifyToken(msg.Sender, msg.SignedPortion(), msg.Signature) {
		return
	}
	if m.leaving {
		return // a leaver neither adopts nor participates in formations
	}
	if msg.Kind == wire.MembershipLeave {
		// A voluntary departure, authenticated by the sender's own
		// signature: exclude it administratively on the next install, with
		// no detector strikes. Handled before the install-id gate — the
		// leaver's view may lag ours.
		if m.isMember(msg.Sender) {
			m.departed[msg.Sender] = true
		}
		return
	}
	if msg.Kind == wire.MembershipAnnounce {
		// Handled before the install-id and suspicion gates: an excluded
		// processor's view lags the announcer's, and its detector may hold
		// stale silence suspicions against every survivor.
		m.handleAnnounce(msg)
		return
	}
	if msg.InstallID != m.current.ID+1 {
		if msg.Kind == wire.MembershipPropose && !m.isMember(m.cfg.Self) &&
			msg.InstallID > m.current.ID+1 && msg.NewRing > 0 &&
			m.isMember(msg.Sender) {
			// A rejoining processor cannot observe the members' commits, so
			// its notion of the install sequence falls behind while the
			// members keep reconfiguring (each readmission attempt that
			// times out installs a fresh view). Fast-forward to the
			// formation in progress — the adopted view names the sender as
			// a member and the signature binds the claim — and process the
			// proposal at the new position, so the rejoiner can answer it
			// before the formation timeout marks it unresponsive again.
			m.current.ID = msg.InstallID - 1
			m.current.Ring = msg.NewRing - 1
			m.forming = false
			m.myProposal = nil
			m.proposals = make(map[ids.ProcessorID]*wire.Membership)
			m.suspectVotes = make(map[ids.ProcessorID]map[ids.ProcessorID]bool)
		} else {
			return // stale or far-future install
		}
	}
	if m.cfg.Source.Suspected(msg.Sender) {
		return // no standing
	}

	member := m.isMember(msg.Sender)
	switch msg.Kind {
	case wire.MembershipPropose:
		if !member {
			// A join request: a correct processor asking to be included
			// (Eventual Inclusion, Table 4). Faulty processors were
			// filtered by the suspicion check above; once excluded for
			// a sticky reason they can never rejoin. If the joiner is
			// already in our proposal, its message also counts as its
			// proposal for the agreement check below. A fresh join request
			// clears any earlier voluntary departure: the drained
			// processor is asking back in.
			m.joined[msg.Sender] = true
			delete(m.departed, msg.Sender)
			if !slices.Contains(m.myProposal, msg.Sender) {
				return
			}
		}
		if prev, ok := m.proposals[msg.Sender]; ok && prev.Attempt >= msg.Attempt {
			return // older than what we have
		}
		if !m.forming {
			m.beginForming()
		}
		m.proposals[msg.Sender] = msg
		m.recordSuspectVotes(msg)
		// A proposal revealing a laggard triggers an eager flush so the
		// install barrier can clear without waiting for the next Tick.
		if msg.Delivered < m.cfg.Bridge.Delivered() {
			m.flush()
		}
		m.tryInstall()
	case wire.MembershipCommit:
		if !member || !m.forming {
			return
		}
		// Adopt a commit whose membership we could plausibly have
		// proposed: sender included, self included, and no member we
		// hold a sticky suspicion against.
		if !m.plausible(msg.Members, msg.Sender) {
			return
		}
		// The old-ring tail for the Behind check: the committer's claim,
		// plus anything higher claimed by a continuing member's proposal.
		tail := msg.Delivered
		for _, p := range msg.Members {
			if prop, ok := m.proposals[p]; ok && prop.Delivered > tail {
				tail = prop.Delivered
			}
		}
		m.install(msg.Members, msg.InstallID, msg.NewRing, tail)
	}
}

// handleAnnounce considers adopting an advertised installed view. Only a
// processor outside the announced membership adopts (members follow their
// own installs); the announcer must itself be a member; and the announced
// view must supersede ours. For a processor still inside its own
// installed view, supersede means a strictly larger membership at any
// install — a higher install identifier alone is not enough, since any
// single signer can mint an arbitrarily high InstallID, and a processor
// holding an intact view should only abandon it for a view that a larger
// population agreed on. This prevents the survivors of a crash from
// adopting the detached processor's singleton view while letting the
// detached processor (whose view has shrunk to itself) adopt theirs. A
// processor already outside its own adopted view keeps the permissive
// rule — any later install, or the same install with a strictly larger
// membership — so its rejoin requests track the survivors' reconfigurations.
// Adoption installs the view (excluding self), which tears down any stale
// ring and clears non-sticky suspicions, and schedules an immediate
// readmission request.
//
// A Byzantine announcer can still sign a fabricated strictly-larger view
// and force a correct excluded processor to chase it; see DESIGN.md for
// this residual gap (the original protocol closes it with Byzantine
// agreement).
func (m *Membership) handleAnnounce(msg *wire.Membership) {
	for _, p := range msg.Members {
		if !m.cfg.Suite.Known(p) {
			// A fabricated view padded with nonexistent processors could
			// otherwise satisfy the strictly-larger rule below.
			return
		}
	}
	if slices.Contains(msg.Members, m.cfg.Self) || !slices.Contains(msg.Members, msg.Sender) {
		return
	}
	if msg.InstallID < m.current.ID {
		return
	}
	if msg.InstallID == m.current.ID &&
		wire.SameMembers(msg.Members, m.current.Members) {
		return
	}
	if len(msg.Members) <= len(m.current.Members) &&
		(msg.InstallID == m.current.ID || m.isMember(m.cfg.Self)) {
		return
	}
	m.install(msg.Members, msg.InstallID, msg.NewRing, 0)
	m.lastRejoin = time.Time{} // request readmission on the next Tick
}

// recordSuspectVotes tallies who proposes to exclude whom; adopting a
// suspicion only when more than ⌊(n−1)/3⌋ distinct members corroborate it
// guarantees at least one correct reporter, so a Byzantine clique cannot
// frame a correct processor.
func (m *Membership) recordSuspectVotes(msg *wire.Membership) {
	n := len(m.current.Members)
	for _, s := range msg.Suspects {
		if s == m.cfg.Self {
			continue
		}
		votes := m.suspectVotes[s]
		if votes == nil {
			votes = make(map[ids.ProcessorID]bool)
			m.suspectVotes[s] = votes
		}
		votes[msg.Sender] = true
		if len(votes) > (n-1)/3 && !m.cfg.Source.Suspected(s) {
			m.cfg.Source.AdoptSuspicion(s, "corroborated by membership proposals")
			m.recomputeProposal()
		}
	}
}

// HandleFlush processes an old-ring Flush message.
func (m *Membership) HandleFlush(raw []byte) {
	f, err := wire.UnmarshalFlush(raw)
	if err != nil {
		return
	}
	if f.Ring != m.current.Ring || !m.isMember(f.Sender) {
		return
	}
	if !m.cfg.Suite.VerifyToken(f.Sender, f.SignedPortion(), f.Signature) {
		return
	}
	m.cfg.Bridge.AdoptFlushDigests(f.Digests, f.Sender)
}

// flush multicasts recovery data for members behind the maximum delivered
// point we have seen in proposals. Rate-limited to one flush per
// ProposeInterval.
func (m *Membership) flush() {
	if m.now().Sub(m.lastFlush) < m.cfg.ProposeInterval {
		return
	}
	m.lastFlush = m.now()
	myDelivered := m.cfg.Bridge.Delivered()
	minBehind := myDelivered
	behind := false
	for _, p := range m.proposals {
		if p.Delivered < myDelivered {
			behind = true
			if p.Delivered < minBehind {
				minBehind = p.Delivered
			}
		}
	}
	if !behind {
		return
	}
	f := &wire.Flush{
		Sender:    m.cfg.Self,
		Ring:      m.current.Ring,
		Delivered: myDelivered,
		Digests:   m.cfg.Bridge.RecoveryDigests(minBehind),
	}
	sig, err := m.cfg.Suite.SignToken(f.SignedPortion())
	if err != nil {
		return
	}
	f.Signature = sig
	m.cfg.Trans.Multicast(f.Marshal())
	for _, raw := range m.cfg.Bridge.RecoveryMessages(minBehind) {
		m.cfg.Trans.Multicast(raw)
	}
}

// reportUnresponsive tells the detector about proposal members that have
// not answered within the formation timeout.
func (m *Membership) reportUnresponsive() {
	for _, p := range m.myProposal {
		if p == m.cfg.Self {
			continue
		}
		if _, ok := m.proposals[p]; !ok {
			m.cfg.Source.Unresponsive(p)
		}
	}
}

// tryInstall installs when every member of my proposal has a latest
// proposal identical to mine and the flush barrier is met or expired.
func (m *Membership) tryInstall() {
	if !m.forming || len(m.myProposal) == 0 {
		return
	}
	maxDelivered := m.cfg.Bridge.Delivered()
	minDelivered := maxDelivered
	for _, p := range m.myProposal {
		prop, ok := m.proposals[p]
		if !ok || !wire.SameMembers(prop.Members, m.myProposal) {
			return
		}
		if p == m.cfg.Self {
			continue // our live delivered counts, not the stale snapshot
		}
		if prop.Delivered > maxDelivered {
			maxDelivered = prop.Delivered
		}
		if prop.Delivered < minDelivered {
			minDelivered = prop.Delivered
		}
	}
	// Flush barrier: hold the install until every agreeing member has
	// delivered the old ring's tail (their re-multicast proposals carry
	// rising Delivered values as the flush lands), unless the barrier
	// times out — a Byzantine member could otherwise stall installs with
	// an inflated claim or a frozen one.
	// The barrier runs on its own epoch: formStarted rearms with every
	// unresponsive-detection round, and a barrier tied to it could never
	// expire once FlushTimeout exceeds FormTimeout.
	if minDelivered < maxDelivered &&
		m.now().Sub(m.flushStarted) < m.cfg.FlushTimeout {
		m.flush()
		return
	}
	commit := &wire.Membership{
		Sender:    m.cfg.Self,
		Kind:      wire.MembershipCommit,
		Attempt:   m.attempt,
		InstallID: m.current.ID + 1,
		NewRing:   m.current.Ring + 1,
		Delivered: m.cfg.Bridge.Delivered(),
		Members:   m.myProposal,
	}
	if err := m.sign(commit); err != nil {
		return
	}
	m.cfg.Trans.Multicast(commit.Marshal())
	m.install(m.myProposal, m.current.ID+1, m.current.Ring+1, maxDelivered)
}

// plausible checks whether a commit's membership could have been agreed by
// correct processors from this processor's standpoint.
func (m *Membership) plausible(members []ids.ProcessorID, sender ids.ProcessorID) bool {
	for _, p := range members {
		if m.cfg.Source.Suspected(p) || !m.cfg.Suite.Known(p) {
			return false
		}
	}
	return slices.Contains(members, m.cfg.Self) && slices.Contains(members, sender)
}

// install commits a new membership locally. tail is the highest old-ring
// delivered point claimed by any continuing member (0 when unknown): a
// member installing below it marks the install Behind, so upper layers
// can rebuild rather than silently diverge from peers that delivered the
// messages this processor lost with the old ring.
func (m *Membership) install(members []ids.ProcessorID, id ids.MembershipID, ring ids.RingID, tail uint64) {
	m.forming = false
	m.attempt = 0
	m.myProposal = nil
	m.proposals = make(map[ids.ProcessorID]*wire.Membership)
	m.suspectVotes = make(map[ids.ProcessorID]map[ids.ProcessorID]bool)
	sorted := wire.SortProcessors(append([]ids.ProcessorID(nil), members...))
	behind := m.cfg.Bridge.Delivered() < tail && slices.Contains(sorted, m.cfg.Self)
	m.current = Install{ID: id, Ring: ring, Members: sorted, Behind: behind}
	for _, p := range sorted {
		delete(m.joined, p)
		// A member of an agreed view is not departed: either it never
		// left, or it has since rejoined.
		delete(m.departed, p)
	}
	m.installs.Add(1)
	m.cfg.OnInstall(m.Current())
}

// RequestJoin multicasts a join request: a proposal for the next install
// that includes this processor. Used by a processor that is not (or no
// longer) a member. Current members treat it as a join request and start a
// membership change that includes the requester, provided their detectors
// hold nothing against it.
func (m *Membership) RequestJoin(view Install) {
	m.current = view // adopt the view we are joining into
	msg := &wire.Membership{
		Sender:    m.cfg.Self,
		Kind:      wire.MembershipPropose,
		Attempt:   m.attempt + 1,
		InstallID: view.ID + 1,
		NewRing:   view.Ring + 1,
		Members:   []ids.ProcessorID{m.cfg.Self},
	}
	m.attempt++
	if err := m.sign(msg); err != nil {
		return
	}
	m.cfg.Trans.Multicast(msg.Marshal())
}

func (m *Membership) isMember(p ids.ProcessorID) bool { return slices.Contains(m.current.Members, p) }
