// Package ring implements the message delivery protocol of the Secure
// Multicast Protocols (paper §7.1): secure reliable totally ordered
// delivery of messages multicast by processors on a logical ring, imposed
// on the communication medium, with a token that controls multicasting.
//
// To originate a regular message a processor must hold the token. The
// token carries the fields of Table 3: sender_id, ring_id, seq, aru and
// the retransmission request list for benign faults; the message digest
// list for message corruption; and the signature, previous token digest
// and retransmission guarantee list for malicious faults. One ring
// instance serves one ring configuration (one installed processor
// membership); the membership protocol tears the ring down and builds a
// new one when the membership changes.
//
// Concurrency contract: HandleToken, HandleRegular, Tick, and Kickstart
// must be called from a single goroutine (the owning processor's event
// loop). Submit and Holding may be called from any goroutine. The ring
// never blocks that goroutine: its timed work (token resend, the end of an
// idle hold) runs from Tick, which reports when it is next due. A ring
// whose owner has never called Tick is stepped by frames alone, so nothing
// would release a held token: it passes every token at once.
package ring

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/wire"
)

// ErrOverloaded is returned by Submit when the bounded submit queue is
// full: the caller is producing faster than the token rotation can
// originate, and must shed or retry. Upper layers (smp, replication, the
// public Object API) wrap this sentinel; match with errors.Is.
var ErrOverloaded = errors.New("overloaded: submit queue full")

// DefaultMaxPerVisit is the number j of messages a token holder may
// originate per visit. The paper's measurements use up to six multicast
// messages per token visit (§8), amortizing one token signature over all
// of them.
const DefaultMaxPerVisit = 6

// DefaultMaxQueue is the default bound on the submit queue (pending
// origination). At six messages per visit this is several hundred full
// token rotations of headroom — overload, not a burst.
const DefaultMaxQueue = 4096

// DefaultMaxUnstable is the default bound on how far origination may run
// ahead of the stable aru. Every originated message must be retained for
// retransmission until it stabilizes, so this window is also the bound on
// the retransmission buffer a saturating sender can accumulate.
const DefaultMaxUnstable = 1024

// DefaultTokenTimeout is the default token retransmission timeout.
const DefaultTokenTimeout = 2 * time.Millisecond

// DefaultIdleDelay is the default hold of an idle token (Knobs.IdleDelay).
const DefaultIdleDelay = 500 * time.Microsecond

// maxRtrList bounds the retransmission request list carried in the token.
const maxRtrList = 64

// maxSeqAhead bounds how far beyond the highest token-assigned sequence
// number a received message may claim to be. Legitimate messages precede
// their token by at most one visit's worth of messages; anything far ahead
// is a faulty originator trying to inflate state.
const maxSeqAhead = 1024

// maxDigestList bounds the digest list carried in each token.
const maxDigestList = 512

// Transport sends frames on the underlying network.
type Transport interface {
	// Multicast sends payload to every other processor.
	Multicast(payload []byte)
}

// CryptoSuite is the slice of the cryptographic suite the ring depends
// on. *sec.Suite implements it; tests substitute counting or faulting
// stubs to pin down exactly how often the RSA machinery runs.
type CryptoSuite interface {
	// SecurityLevel returns the security level in force.
	SecurityLevel() sec.Level
	// SignToken signs the given token bytes (nil signature below
	// sec.LevelSignatures).
	SignToken(tokenBytes []byte) ([]byte, error)
	// VerifyToken checks a token signature against the claimed sender's
	// public key (always true below sec.LevelSignatures).
	VerifyToken(sender ids.ProcessorID, tokenBytes, sig []byte) bool
}

// BatchVerifier is the optional batch extension of CryptoSuite: verify
// many independent signatures with bounded parallelism, results in item
// order. *sec.Suite implements it; PreverifyTokens falls back to serial
// verification when the suite does not.
type BatchVerifier interface {
	VerifyTokenBatch(items []sec.TokenVerification) []bool
}

// Observer receives protocol events of interest to the Byzantine fault
// detector (§7.3). All methods are invoked from the ring's event goroutine
// and must not block. A nil Observer is permitted on Config.
type Observer interface {
	// TokenActivity fires whenever a token for the current ring
	// configuration is accepted; the detector uses it to monitor
	// liveness of the rotation.
	TokenActivity(holder ids.ProcessorID, visit uint64)
	// TokenInvalid fires when a token from the claimed sender fails
	// signature verification or structural checks (mutant or improperly
	// formed tokens, Table 1).
	TokenInvalid(claimed ids.ProcessorID, reason string)
	// MutantToken fires when two different tokens with the same visit
	// number are observed (§7.1: mutant token detection via the previous
	// token digest and signature).
	MutantToken(claimed ids.ProcessorID, visit uint64)
	// MutantMessage fires when a message's digest does not match the
	// digest the token holder placed in the signed token — either
	// corruption in transit or a mutant message from a faulty sender.
	MutantMessage(claimed ids.ProcessorID, seq uint64)
}

// nopObserver is the default observer.
type nopObserver struct{}

func (nopObserver) TokenActivity(ids.ProcessorID, uint64) {}
func (nopObserver) TokenInvalid(ids.ProcessorID, string)  {}
func (nopObserver) MutantToken(ids.ProcessorID, uint64)   {}
func (nopObserver) MutantMessage(ids.ProcessorID, uint64) {}

var _ Observer = nopObserver{}

// Knobs are the ring's tuning values: the part of Config a deployment may
// set. The layers above (smp, the public immune.Config) carry this struct
// whole instead of re-declaring its fields, and New is the one place the
// defaults are applied.
type Knobs struct {
	// MaxPerVisit is j, the per-visit origination bound; 0 means
	// DefaultMaxPerVisit.
	MaxPerVisit int
	// TokenTimeout is how long the last token sender waits for evidence
	// of progress before retransmitting its token; 0 means
	// DefaultTokenTimeout.
	TokenTimeout time.Duration
	// IdleDelay paces an idle ring: a holder that observes no sequence
	// progress since its own previous visit, and that has nothing to
	// originate or retransmit, holds the token this long before passing
	// it, so an idle ring does not spin — an idle six-member ring then
	// costs ~2000 signed token visits/s, which matters when many systems
	// share a machine (tests). A busy ring (any member originating)
	// passes the token at full speed, and a local Submit cuts the hold
	// short. Tick releases the hold, so only a ring that has been ticked
	// paces. 0 means DefaultIdleDelay; negative disables pacing.
	IdleDelay time.Duration
	// MaxQueue bounds the submit queue: Submit returns ErrOverloaded
	// once this many payloads await origination. 0 means
	// DefaultMaxQueue; negative means unbounded (tests only).
	MaxQueue int
	// MaxUnstable bounds how far token-assigned sequence numbers may run
	// ahead of the stable aru: a holder originates nothing while
	// seq - stableAru would exceed it, which caps the retransmission
	// buffer (msgs/digestBook) instead of letting a saturating sender
	// grow it without limit. 0 means DefaultMaxUnstable; negative means
	// unbounded (tests only).
	MaxUnstable int
}

// Config parameterizes one ring participant.
type Config struct {
	Self    ids.ProcessorID
	Members []ids.ProcessorID // the installed processor membership, sorted
	Ring    ids.RingID
	Suite   CryptoSuite
	Trans   Transport
	// Deliver receives messages in total order. Required.
	Deliver func(*wire.Regular)
	// Obs receives fault-detector events; nil for none.
	Obs Observer
	Knobs
	// Now is the clock; nil means time.Now (injected in tests).
	Now func() time.Time
	// Metrics are optional observability hooks; the zero value disables
	// them all at no cost to the hot path.
	Metrics Metrics
}

// Ring is one processor's participation in one ring configuration.
type Ring struct {
	cfg       Config
	successor ids.ProcessorID
	obs       Observer
	now       func() time.Time
	level     sec.Level // cfg.Suite.SecurityLevel(), read once
	vcache    *verifyCache

	qmu       sync.Mutex
	sendQ     [][]byte
	held      *wire.Token // an idle hold's token, passed on from Tick; written under qmu
	submitted bool        // a Submit since the last hold, which the next idle visit skips (qmu)

	// Protocol state: single event-goroutine access.
	visit        uint64 // highest token visit accepted
	seq          uint64 // highest message seq known assigned
	stable       uint64 // highest stability threshold observed (stableAru)
	lastHeldSeq  uint64 // ring seq as of this processor's previous token hold
	delivered    uint64 // highest contiguous seq delivered
	released     uint64 // msgs and digestBook hold nothing at or below this seq
	seenFrom     uint64 // tokensSeen holds nothing below this visit
	msgs         map[uint64]*wire.Regular
	digestBook   map[uint64][sec.DigestSize]byte // seq -> digest from tokens
	tokensSeen   map[uint64][sec.DigestSize]byte // visit -> token digest (mutant detect)
	lastSentRaw  []byte                          // last token this processor multicast
	lastSentAt   time.Time
	lastSentVis  uint64
	lastAccepted [sec.DigestSize]byte // digest of last accepted token (chain check)
	aruWindow    []uint64             // arus of the last n+1 accepted tokens
	lastHoldAt   time.Time            // this processor's previous token hold
	holdUntil    time.Time            // when the idle hold ends at the latest
	ticked       bool                 // Tick has run, so it will release a hold
	m            Metrics
	stopped      bool
}

// New validates the configuration and creates a ring participant.
func New(cfg Config) (*Ring, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("ring %s: empty membership", cfg.Ring)
	}
	if cfg.Deliver == nil {
		return nil, fmt.Errorf("ring %s: Deliver callback required", cfg.Ring)
	}
	if cfg.Trans == nil {
		return nil, fmt.Errorf("ring %s: transport required", cfg.Ring)
	}
	if cfg.Suite == nil {
		return nil, fmt.Errorf("ring %s: security suite required", cfg.Ring)
	}
	idx := -1
	for i, m := range cfg.Members {
		if i > 0 && cfg.Members[i-1] >= m {
			return nil, fmt.Errorf("ring %s: members not sorted/unique", cfg.Ring)
		}
		if m == cfg.Self {
			idx = i
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("ring %s: self %s not in membership", cfg.Ring, cfg.Self)
	}
	if cfg.MaxPerVisit <= 0 {
		cfg.MaxPerVisit = DefaultMaxPerVisit
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.MaxUnstable == 0 {
		cfg.MaxUnstable = DefaultMaxUnstable
	}
	if cfg.TokenTimeout <= 0 {
		cfg.TokenTimeout = DefaultTokenTimeout
	}
	if cfg.IdleDelay == 0 {
		cfg.IdleDelay = DefaultIdleDelay
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	obs := cfg.Obs
	if obs == nil {
		obs = nopObserver{}
	}
	return &Ring{
		cfg:        cfg,
		successor:  cfg.Members[(idx+1)%len(cfg.Members)],
		obs:        obs,
		now:        cfg.Now,
		level:      cfg.Suite.SecurityLevel(),
		m:          cfg.Metrics,
		vcache:     newVerifyCache(),
		msgs:       make(map[uint64]*wire.Regular),
		digestBook: make(map[uint64][sec.DigestSize]byte),
		tokensSeen: make(map[uint64][sec.DigestSize]byte),
	}, nil
}

// Successor returns the next processor in ring order after this one.
func (r *Ring) Successor() ids.ProcessorID { return r.successor }

// Knobs returns the tuning values in effect, defaults applied.
func (r *Ring) Knobs() Knobs { return r.cfg.Knobs }

// Delivered returns the highest contiguously delivered sequence number.
func (r *Ring) Delivered() uint64 { return r.delivered }

// Stop makes all further events no-ops; used during membership changes.
// A token held by an idle hold is dropped; DrainQueue carries the queue.
func (r *Ring) Stop() {
	r.stopped = true
	r.endHold()
}

// Submit queues contents for origination on a future token visit. Safe
// from any goroutine. The contents are not retained by reference. When
// the bounded queue (Config.MaxQueue) is full the submission is shed and
// ErrOverloaded returned — the backpressure signal for the layers above.
func (r *Ring) Submit(contents []byte) error {
	r.qmu.Lock()
	if r.cfg.MaxQueue > 0 && len(r.sendQ) >= r.cfg.MaxQueue {
		r.qmu.Unlock()
		r.m.SubmitShed.Inc()
		return fmt.Errorf("ring %s: %d queued: %w", r.cfg.Ring, r.cfg.MaxQueue, ErrOverloaded)
	}
	r.sendQ = append(r.sendQ, append([]byte(nil), contents...))
	r.submitted = true
	depth := len(r.sendQ)
	r.qmu.Unlock()
	r.m.SendQueue.Set(int64(depth))
	return nil
}

// Holding reports whether an idle hold is in progress. Safe from any
// goroutine: a caller that has just submitted and sees true wakes the
// event loop, whose Tick then ends the hold and originates the
// submission on this visit instead of after the full idle delay.
func (r *Ring) Holding() bool {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return r.held != nil
}

// QueuedSubmissions reports how many submissions await origination.
func (r *Ring) QueuedSubmissions() int {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	return len(r.sendQ)
}

// Kickstart creates the initial token. Exactly one member — by convention
// the lowest processor id in the membership — calls it once, acting as if
// it had just received a visit-0 token from its predecessor.
func (r *Ring) Kickstart() {
	if r.stopped || r.cfg.Self != r.cfg.Members[0] {
		return
	}
	seed := &wire.Token{Sender: r.predecessor(), Ring: r.cfg.Ring, Visit: 0}
	r.holdToken(seed)
}

func (r *Ring) predecessor() ids.ProcessorID {
	for i, m := range r.cfg.Members {
		if m == r.cfg.Self {
			return r.cfg.Members[(i+len(r.cfg.Members)-1)%len(r.cfg.Members)]
		}
	}
	return r.cfg.Self // unreachable; Self validated in New
}

// HandleToken processes a received token payload and reports whether this
// processor took the token: it now holds it or has passed it on, and
// either sets a deadline for Tick.
func (r *Ring) HandleToken(raw []byte) bool {
	if r.stopped {
		return false
	}
	tok, err := wire.UnmarshalToken(raw)
	if err != nil {
		// Undecodable token: corruption in transit or malformed from a
		// faulty sender. Sender unknown, so no attribution.
		r.rejectToken()
		return false
	}
	if tok.Ring != r.cfg.Ring {
		return false // stale configuration
	}
	if !r.memberOf(tok.Sender) {
		// Not attributable: an outsider naming itself (or anyone) in a
		// token is just noise; suspecting non-members would let forgers
		// block legitimate future joins.
		r.rejectToken()
		return false
	}
	d := sec.Digest(raw) // for the mutant check, the verify cache and the chain
	if tok.Visit <= r.visit {
		// Duplicate or stale token. If its contents differ from the
		// token we accepted for that visit AND its signature verifies,
		// the claimed sender really signed two different tokens for one
		// visit — a mutant token. Without a verified signature the
		// conflict is not attributable (anyone can forge garbage naming
		// a correct processor), so it is dropped silently.
		if seen, ok := r.tokensSeen[tok.Visit]; ok && seen != d {
			if r.verifyOnce(tok, d) {
				r.obs.MutantToken(tok.Sender, tok.Visit)
			}
		}
		return false
	}
	// Verify the signature BEFORE attributing anything to the claimed
	// sender: an invalid signature proves only that a forgery exists,
	// never that the named processor misbehaved. verifyOnce memoizes the
	// verdict, so a token seen on both this path and the stale/mutant
	// path above — or retransmitted — costs exactly one RSA operation.
	if !r.verifyOnce(tok, d) {
		r.rejectToken()
		return false
	}
	if err := tok.WellFormed(); err != nil {
		// The sender provably signed a malformed token: attributable.
		r.rejectToken()
		r.obs.TokenInvalid(tok.Sender, "malformed token: "+err.Error())
		return false
	}
	// Previous-token digest chaining: if we saw the token of the previous
	// visit, the new token must reference it (§7.1 mutant token
	// detection). After token loss we may lack the previous token; the
	// check is skipped then, which is safe because the signature still
	// binds the claimed contents to the claimed sender.
	if r.level >= sec.LevelSignatures {
		if prevDigest, ok := r.tokensSeen[tok.Visit-1]; ok && tok.PrevTokenDigest != prevDigest {
			r.rejectToken()
			r.obs.MutantToken(tok.Sender, tok.Visit)
			return false
		}
	}

	return r.acceptToken(tok, d)
}

// rejectToken counts a discarded token; rejectMessage a message discarded
// for digest mismatch. Both also feed the combined Rejects counter.
func (r *Ring) rejectToken() {
	r.m.TokenRejects.Inc()
	r.m.Rejects.Inc()
}

func (r *Ring) rejectMessage() {
	r.m.DigestRejects.Inc()
	r.m.Rejects.Inc()
}

// verifyOnce checks a token signature through the bounded verify cache:
// each distinct (sender, raw token) pair reaches the RSA machinery at
// most once per processor. d is the digest of the raw token. Below
// LevelSignatures tokens are unsigned and every check is vacuously true,
// so the cache is bypassed entirely.
func (r *Ring) verifyOnce(tok *wire.Token, d [sec.DigestSize]byte) bool {
	if r.level < sec.LevelSignatures {
		return r.cfg.Suite.VerifyToken(tok.Sender, tok.SignedPortion(), tok.Signature)
	}
	k := verifyKey{sender: tok.Sender, raw: d}
	if v, ok := r.vcache.lookup(k); ok {
		r.m.VerifyCacheHits.Inc()
		return v
	}
	v := r.cfg.Suite.VerifyToken(tok.Sender, tok.SignedPortion(), tok.Signature)
	r.m.TokensVerified.Inc()
	r.vcache.store(k, v)
	return v
}

// PreverifyTokens warms the verify cache for a drained batch of token
// payloads, fanning the RSA verifications out across bounded workers when
// the suite supports batch verification (deterministic result order —
// verdicts are stored by key, and dispatch stays serial). The event loop
// calls it before dispatching the batch so that HandleToken's serial path
// finds every verdict already memoized. Undecodable payloads are skipped
// here and rejected by HandleToken as usual.
func (r *Ring) PreverifyTokens(raws [][]byte) {
	if r.stopped || r.level < sec.LevelSignatures || len(raws) < 2 {
		return
	}
	var toks []*wire.Token
	var keys []verifyKey
	for _, raw := range raws {
		tok, err := wire.UnmarshalToken(raw)
		if err != nil || tok.Ring != r.cfg.Ring || !r.memberOf(tok.Sender) {
			continue
		}
		k := verifyKey{sender: tok.Sender, raw: sec.Digest(raw)}
		if _, ok := r.vcache.lookup(k); ok {
			continue
		}
		toks = append(toks, tok)
		keys = append(keys, k)
	}
	if len(toks) == 0 {
		return
	}
	if bv, ok := r.cfg.Suite.(BatchVerifier); ok {
		items := make([]sec.TokenVerification, len(toks))
		for i, tok := range toks {
			items[i] = sec.TokenVerification{
				Sender: tok.Sender,
				Signed: tok.SignedPortion(),
				Sig:    tok.Signature,
			}
		}
		for i, v := range bv.VerifyTokenBatch(items) {
			r.vcache.store(keys[i], v)
		}
		r.m.TokensVerified.Add(uint64(len(toks)))
		return
	}
	for i, tok := range toks {
		r.vcache.store(keys[i], r.cfg.Suite.VerifyToken(tok.Sender, tok.SignedPortion(), tok.Signature))
	}
	r.m.TokensVerified.Add(uint64(len(toks)))
}

// acceptToken records an accepted token with raw digest d and, if this
// processor is the successor of the token's sender, takes the holder role.
func (r *Ring) acceptToken(tok *wire.Token, d [sec.DigestSize]byte) bool {
	prevVisit := r.visit
	r.visit = tok.Visit
	r.tokensSeen[tok.Visit] = d
	r.lastAccepted = d
	r.endHold() // a later token supersedes any token still held
	if tok.Seq > r.seq {
		r.seq = tok.Seq
	}
	// Tokens carry digests cumulatively (every digest known for seqs above
	// the aru), so a processor that missed one token frame recovers the
	// digests from later tokens.
	r.adoptDigests(tok.DigestList, tok.Sender, "conflicting digest in token")
	r.m.TokenVisits.Inc()
	r.obs.TokenActivity(tok.Sender, tok.Visit)
	r.tryDeliver()
	st := r.stableAru(tok.Aru)
	if st > r.stable {
		r.stable = st
	}
	r.gc(st, prevVisit)

	if r.successorOf(tok.Sender) != r.cfg.Self {
		return false
	}
	r.holdToken(tok)
	return true
}

// holdToken starts one token visit. An idle visit is held (idle pacing)
// and completed later by Tick; any other visit completes at once.
func (r *Ring) holdToken(prev *wire.Token) {
	if r.m.Rotation != nil {
		// Token rotation time: the interval between this processor's
		// consecutive holds, i.e. one full traversal of the ring (§8).
		t := r.now()
		if !r.lastHoldAt.IsZero() {
			r.m.Rotation.Observe(t.Sub(r.lastHoldAt))
		}
		r.lastHoldAt = t
	}
	if r.ticked && r.cfg.IdleDelay > 0 && len(prev.RtrList) == 0 && prev.Seq <= r.lastHeldSeq {
		// Idle pacing: the ring made no sequence progress over the whole
		// rotation since our previous hold, so unless we have something to
		// add, hold the token briefly to keep an idle ring from spinning. A
		// busy ring (prev.Seq advanced) skips this entirely — pacing on a
		// loaded ring would charge every rotation the full delay at each
		// non-originating member. A local Submit since our previous hold
		// skips the hold once: this processor has just been active, so
		// its clients are likely to follow up. The hold is state, not a
		// wait: Tick passes the token at holdUntil, or as soon as a Submit
		// queues something. The queue is checked under the lock Holding
		// takes, so a Submit either lands before the check or sees the
		// hold.
		r.qmu.Lock()
		if len(r.sendQ) == 0 {
			if !r.submitted {
				r.held, r.holdUntil = prev, r.now().Add(r.cfg.IdleDelay)
			}
			r.submitted = false
		}
		r.qmu.Unlock()
		if r.held != nil {
			return
		}
	}
	r.visitToken(prev)
}

// endHold forgets the held token, if any, and the Submit that ended it.
func (r *Ring) endHold() {
	if r.held != nil {
		r.qmu.Lock()
		r.held, r.submitted = nil, false
		r.qmu.Unlock()
	}
}

// visitToken completes one token visit: retransmit requested messages,
// originate new ones, update seq/aru/rtr, and pass the token on.
func (r *Ring) visitToken(prev *wire.Token) {
	// 1. Retransmit messages from the incoming retransmission request
	// list that we hold (§7.1: "requesting retransmission of messages").
	var stillMissing []uint64
	var rtg []wire.RtgEntry
	for _, s := range prev.RtrList {
		if m, ok := r.msgs[s]; ok {
			r.cfg.Trans.Multicast(m.Marshal())
			r.m.Retransmissions.Inc()
			rtg = append(rtg, wire.RtgEntry{Seq: s, Retransmitter: r.cfg.Self})
		} else {
			stillMissing = append(stillMissing, s)
		}
	}

	// 2. Originate up to j new messages, assigning consecutive sequence
	// numbers and recording their digests in the token (Figure 6). The
	// aru window throttles origination first: every originated message
	// is retained until the stable aru passes it, so a holder that is
	// already MaxUnstable messages ahead of stability adds nothing this
	// visit. The queue keeps the overflow (bounded by MaxQueue) and the
	// rtr/aru machinery drags the stable aru forward, so a throttled
	// ring degrades to the retransmission-limited rate instead of
	// growing its buffers without bound.
	allowed := r.cfg.MaxPerVisit
	if r.cfg.MaxUnstable > 0 {
		ahead := r.seq - r.stable
		switch {
		case ahead >= uint64(r.cfg.MaxUnstable):
			allowed = 0
		case uint64(allowed) > uint64(r.cfg.MaxUnstable)-ahead:
			allowed = int(uint64(r.cfg.MaxUnstable) - ahead)
		}
		if allowed == 0 && r.QueuedSubmissions() > 0 {
			r.m.Throttled.Inc()
		}
	}
	batch := r.takeBatch(allowed)
	var digests []wire.DigestEntry
	seq := prev.Seq
	for _, contents := range batch {
		seq++
		m := &wire.Regular{Sender: r.cfg.Self, Ring: r.cfg.Ring, Seq: seq, Contents: contents}
		raw := m.Marshal()
		if r.level >= sec.LevelDigests {
			d := m.Digest()
			digests = append(digests, wire.DigestEntry{Seq: seq, Digest: d})
			if seq > r.released {
				r.digestBook[seq] = d
			}
		}
		if seq > r.released {
			// The originator retains its own message for retransmission. A
			// seq at or below the release mark can only come from a faulty
			// predecessor's rewound token; gc will not pass it again.
			r.msgs[seq] = m
		}
		r.cfg.Trans.Multicast(raw)
		r.m.Originated.Inc()
	}
	r.seq = seq
	assignedLastHold := r.lastHeldSeq
	r.lastHeldSeq = seq
	r.tryDeliver()

	// 2b. Carry known digests for still-unstable older messages so that
	// processors that missed earlier tokens can verify and deliver.
	if r.level >= sec.LevelDigests {
		for s := prev.Aru + 1; s <= prev.Seq && len(digests) < maxDigestList; s++ {
			if d, ok := r.digestBook[s]; ok {
				digests = append(digests, wire.DigestEntry{Seq: s, Digest: d})
			}
		}
	}

	// 3. Merge our own missing sequence numbers into the request list.
	rtr := r.mergeMissing(stillMissing, assignedLastHold)

	// 4. Update the aru: lower it to our all-received-up-to if we are
	// behind; if we set it previously, raise it to our current level.
	aru, aruSetter := prev.Aru, prev.AruSetter
	myAru := r.delivered
	switch {
	case myAru < aru:
		aru, aruSetter = myAru, r.cfg.Self
	case aruSetter == r.cfg.Self || aru == prev.Seq:
		aru, aruSetter = myAru, r.cfg.Self
	}
	if aru > r.seq {
		aru = r.seq
	}

	next := &wire.Token{
		Sender:          r.cfg.Self,
		Ring:            r.cfg.Ring,
		Visit:           prev.Visit + 1,
		Seq:             r.seq,
		Aru:             aru,
		AruSetter:       aruSetter,
		RtrList:         rtr,
		DigestList:      digests,
		PrevTokenDigest: r.lastAccepted,
		RtgList:         rtg,
	}
	sig, err := r.cfg.Suite.SignToken(next.SignedPortion())
	if err != nil {
		// A processor that cannot sign cannot participate; dropping the
		// token here triggers the fault detector's liveness timeout at
		// the other members, which is the correct failure semantics.
		return
	}
	next.Signature = sig
	r.m.TokensSigned.Inc()

	raw := next.Marshal()
	r.visit = next.Visit
	r.lastAccepted = sec.Digest(raw)
	r.tokensSeen[next.Visit] = r.lastAccepted
	r.lastSentRaw = raw
	r.lastSentVis = next.Visit
	r.lastSentAt = r.now()
	r.obs.TokenActivity(r.cfg.Self, next.Visit)
	r.cfg.Trans.Multicast(raw)
}

// takeBatch removes up to max pending submissions (max ≤ MaxPerVisit,
// possibly lowered further by the aru window).
func (r *Ring) takeBatch(max int) [][]byte {
	if max <= 0 {
		return nil
	}
	r.qmu.Lock()
	n := len(r.sendQ)
	if n > max {
		n = max
	}
	batch := r.sendQ[:n]
	r.sendQ = r.sendQ[n:]
	depth := len(r.sendQ)
	r.qmu.Unlock()
	r.m.SendQueue.Set(int64(depth))
	return batch
}

// mergeMissing builds the outgoing rtr list: sequence numbers nobody
// retransmitted this visit plus our own gaps, sorted, capped. A gap is
// requested only up to upTo, the ring seq at our previous hold: §7.1's
// retransmission is for lost messages, and a message assigned since then
// may merely be late — a token travels on its own and, over a real
// transport, overtakes the regulars multicast just before it. One rotation
// later it is either here or lost.
func (r *Ring) mergeMissing(carry []uint64, upTo uint64) []uint64 {
	want := make(map[uint64]bool, len(carry))
	for _, s := range carry {
		want[s] = true
	}
	for s := r.delivered + 1; s <= upTo && len(want) < maxRtrList; s++ {
		if _, ok := r.msgs[s]; !ok {
			want[s] = true
		}
	}
	if len(want) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(want))
	for s := range want {
		out = append(out, s)
	}
	slices.Sort(out)
	if len(out) > maxRtrList {
		out = out[:maxRtrList]
	}
	return out
}

// HandleRegular processes a received regular message payload.
func (r *Ring) HandleRegular(raw []byte) {
	if r.stopped {
		return
	}
	m, err := wire.UnmarshalRegular(raw)
	if err != nil {
		return // corrupted beyond parsing; rtr machinery will recover it
	}
	if m.Ring != r.cfg.Ring {
		return
	}
	if !r.memberOf(m.Sender) {
		return
	}
	if m.Seq == 0 {
		return // seq 0 is never assigned
	}
	if m.Seq <= r.delivered {
		return // duplicate of an already delivered message
	}
	if m.Seq > r.seq+maxSeqAhead {
		return // absurdly far ahead: faulty originator
	}
	if existing, ok := r.msgs[m.Seq]; ok {
		// Second copy for a seq we already hold. Identical copies are
		// routine retransmissions; different copies mean a mutant.
		if existing.Digest() != m.Digest() {
			r.obs.MutantMessage(m.Sender, m.Seq)
		}
		return
	}
	if m.Seq > r.seq {
		r.seq = m.Seq
	}
	// Digest screening (§7.1): at LevelDigests and above, a message is
	// delivered only if it matches the digest in the corresponding token.
	// If the token has not arrived yet the message is held; if it
	// mismatches a known digest it is discarded and will be recovered by
	// retransmission of the genuine message.
	if r.level >= sec.LevelDigests {
		if d, ok := r.digestBook[m.Seq]; ok && d != m.Digest() {
			r.rejectMessage()
			r.obs.MutantMessage(m.Sender, m.Seq)
			return
		}
	}
	r.msgs[m.Seq] = m
	r.tryDeliver()
}

// tryDeliver delivers messages in total sequence order: each message is
// delivered exactly once, only when contiguous, and (at LevelDigests and
// above) only when its digest is vouched for by a token.
func (r *Ring) tryDeliver() {
	for {
		m, ok := r.msgs[r.delivered+1]
		if !ok {
			return
		}
		if r.level >= sec.LevelDigests {
			d, have := r.digestBook[m.Seq]
			if !have {
				return // wait for the token bearing the digest
			}
			if d != m.Digest() {
				// Held copy turns out mutant now that the digest
				// arrived: discard and await retransmission.
				delete(r.msgs, m.Seq)
				r.rejectMessage()
				r.obs.MutantMessage(m.Sender, m.Seq)
				return
			}
		}
		r.delivered++
		r.m.Delivered.Inc()
		r.cfg.Deliver(m)
	}
}

// stableAru folds a newly observed token aru into the rotation window and
// returns the stability threshold. The instantaneous token aru can be
// transiently too high: the aru-setter raise rule lets the setter lift the
// aru above the true global minimum for part of a rotation, and releasing
// messages at that value would discard copies a lagging processor still
// needs. The minimum over the last n+1 accepted tokens always includes a
// hold by every processor — in particular the most lagging one, which
// lowers the aru to its own level — so it never exceeds the true minimum
// all-received-up-to, making it a safe release point.
func (r *Ring) stableAru(aru uint64) uint64 {
	r.aruWindow = append(r.aruWindow, aru)
	if want := len(r.cfg.Members) + 1; len(r.aruWindow) > want {
		r.aruWindow = r.aruWindow[len(r.aruWindow)-want:]
	} else if len(r.aruWindow) < want {
		return 0 // not enough history for a full rotation yet
	}
	min := r.aruWindow[0]
	for _, a := range r.aruWindow[1:] {
		if a < min {
			min = a
		}
	}
	return min
}

// tokenWindow is how many visits back tokens are remembered for mutant
// detection.
const tokenWindow = 2048

// gc releases messages every processor is known to have received (all
// sequence numbers at or below the stability threshold from stableAru) and
// slides the mutant-detection window. All three books are keyed by a
// monotone counter, so each keeps a mark and deletes as the mark advances;
// adoptDigests and holdToken refuse to write behind the release mark.
// prevVisit is the visit held before the token just accepted: nothing is
// recorded above it but that token, so a (signed, faulty) jump in visit
// numbers costs one window, never the size of the jump.
func (r *Ring) gc(aru, prevVisit uint64) {
	if aru > r.delivered {
		aru = r.delivered
	}
	for r.released < aru {
		r.released++
		delete(r.msgs, r.released)
		delete(r.digestBook, r.released)
	}
	if r.visit > tokenWindow {
		cut := r.visit - tokenWindow
		for v := r.seenFrom; v < cut && v <= prevVisit; v++ {
			delete(r.tokensSeen, v)
		}
		r.seenFrom = cut
	}
}

// RecoveryDigests returns the digest vouchers this processor holds for
// delivered sequence numbers above from, for inclusion in a Flush message
// during a membership change.
func (r *Ring) RecoveryDigests(from uint64) []wire.DigestEntry {
	if r.level < sec.LevelDigests {
		return nil
	}
	var out []wire.DigestEntry
	for s := from + 1; s <= r.delivered; s++ {
		if d, ok := r.digestBook[s]; ok {
			out = append(out, wire.DigestEntry{Seq: s, Digest: d})
		}
	}
	return out
}

// RecoveryMessages returns the marshaled regular messages this processor
// still holds for sequence numbers above from, for re-multicast during a
// membership change so lagging members can catch up on the old ring.
func (r *Ring) RecoveryMessages(from uint64) [][]byte {
	var out [][]byte
	for s := from + 1; s <= r.delivered; s++ {
		if m, ok := r.msgs[s]; ok {
			out = append(out, m.Marshal())
		}
	}
	return out
}

// AdoptFlushDigests installs digest vouchers received in a Flush message
// and attempts delivery.
func (r *Ring) AdoptFlushDigests(entries []wire.DigestEntry, from ids.ProcessorID) {
	if r.stopped {
		return
	}
	r.adoptDigests(entries, from, "conflicting digest in flush")
	r.tryDeliver()
}

// adoptDigests records digest vouchers first-write-wins. A later signed
// voucher contradicting a recorded digest is attributable evidence that
// its signer is faulty. Vouchers for released sequence numbers are
// refused: their messages are delivered and gone, and gc, which only
// moves forward, would never pass them again.
func (r *Ring) adoptDigests(entries []wire.DigestEntry, from ids.ProcessorID, conflict string) {
	for _, e := range entries {
		if e.Seq <= r.released {
			continue
		}
		if d, ok := r.digestBook[e.Seq]; ok {
			if d != e.Digest {
				r.obs.TokenInvalid(from, conflict)
			}
			continue
		}
		r.digestBook[e.Seq] = e.Digest
	}
}

// DrainQueue removes and returns all pending submissions; the membership
// layer carries them over to the ring of the next installed configuration.
func (r *Ring) DrainQueue() [][]byte {
	r.qmu.Lock()
	q := r.sendQ
	r.sendQ = nil
	r.qmu.Unlock()
	r.m.SendQueue.Set(0)
	return q
}

// Tick runs the ring's timed work and returns when it is next due (the
// zero time: nothing is due until a frame arrives). An idle hold ends
// once holdUntil has passed or a submission is queued, and the token is
// passed on; while it lasts, Tick returns holdUntil. Then token-loss
// recovery: if this processor multicast the token last and has seen no
// later token within the timeout, it retransmits its token (§7.1 message
// retransmission applies to the token too); while that can still happen,
// Tick returns lastSentAt+TokenTimeout. The first call enables idle
// pacing (see IdleDelay).
func (r *Ring) Tick() time.Time {
	r.ticked = true
	if r.stopped {
		return time.Time{}
	}
	if r.held != nil {
		if r.now().Before(r.holdUntil) && r.QueuedSubmissions() == 0 {
			return r.holdUntil
		}
		prev := r.held
		r.endHold()
		r.visitToken(prev)
	}
	if r.lastSentRaw == nil || r.visit > r.lastSentVis {
		return time.Time{} // nothing sent, or the rotation moved on
	}
	if now := r.now(); now.Sub(r.lastSentAt) >= r.cfg.TokenTimeout {
		r.cfg.Trans.Multicast(r.lastSentRaw)
		r.m.TokenResends.Inc()
		r.lastSentAt = now
	}
	return r.lastSentAt.Add(r.cfg.TokenTimeout)
}

func (r *Ring) memberOf(p ids.ProcessorID) bool { return slices.Contains(r.cfg.Members, p) }

// successorOf returns the member following p in ring order.
func (r *Ring) successorOf(p ids.ProcessorID) ids.ProcessorID {
	for i, m := range r.cfg.Members {
		if m == p {
			return r.cfg.Members[(i+1)%len(r.cfg.Members)]
		}
	}
	return p
}
