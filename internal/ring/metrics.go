package ring

import "immune/internal/obs"

// Metrics are the ring's optional observability hooks. The zero value is
// fully disabled: every field is a nil obs handle whose methods are no-ops,
// so an uninstrumented ring pays nothing on the token hot path (see the
// allocs/op budget test).
type Metrics struct {
	// TokensSigned counts tokens this processor passed on — one per token
	// hold, at every level (only LevelSignatures actually signs).
	TokensSigned *obs.Counter
	// TokensVerified counts signature verifications that reached the
	// crypto suite (cache misses and preverified batches).
	TokensVerified *obs.Counter
	// VerifyCacheHits counts verifications answered by the verify cache.
	VerifyCacheHits *obs.Counter
	// Rotation observes the time between this processor's consecutive
	// token holds — the paper's token rotation time (§8, Table 2).
	Rotation *obs.Histogram
	// TokenVisits counts tokens accepted, from any holder.
	TokenVisits *obs.Counter
	// Delivered counts messages delivered in total order.
	Delivered *obs.Counter
	// Originated counts messages originated by this processor.
	Originated *obs.Counter
	// Retransmissions counts message retransmissions performed.
	Retransmissions *obs.Counter
	// TokenResends counts token retransmissions after timeout.
	TokenResends *obs.Counter
	// Rejects counts discarded tokens and digest-mismatched messages:
	// the sum of TokenRejects (signature, form, stale or outsider) and
	// DigestRejects (message contents contradicting the token's digest).
	Rejects       *obs.Counter
	TokenRejects  *obs.Counter
	DigestRejects *obs.Counter
	// SendQueue gauges the submit queue depth (pending origination).
	// Bounded by Config.MaxQueue; a plateau at that bound under
	// saturating load is the backpressure working as designed.
	SendQueue *obs.Gauge
	// SubmitShed counts submissions rejected with ErrOverloaded by the
	// bounded submit queue.
	SubmitShed *obs.Counter
	// Throttled counts token visits on which the aru window withheld
	// origination while submissions were queued (flow control engaged).
	Throttled *obs.Counter
}

// MetricsFrom registers the ring metric family in reg under
// "<prefix>ring.*". A nil registry yields the disabled zero value. The
// names are shared by every ring incarnation on a processor, so counters
// survive membership changes. A sharded deployment labels each ring's
// instance with a distinct prefix (e.g. "r2.") so per-ring traffic stays
// attributable; a single ring uses the empty prefix.
func MetricsFrom(reg *obs.Registry, prefix string) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		TokensSigned:    reg.Counter(prefix + "ring.tokens_signed"),
		TokensVerified:  reg.Counter(prefix + "ring.tokens_verified"),
		VerifyCacheHits: reg.Counter(prefix + "ring.verify_cache_hits"),
		Rotation:        reg.Histogram(prefix + "ring.rotation"),
		TokenVisits:     reg.Counter(prefix + "ring.token_visits"),
		Delivered:       reg.Counter(prefix + "ring.delivered"),
		Originated:      reg.Counter(prefix + "ring.originated"),
		Retransmissions: reg.Counter(prefix + "ring.retransmissions"),
		TokenResends:    reg.Counter(prefix + "ring.token_resends"),
		Rejects:         reg.Counter(prefix + "ring.rejects"),
		TokenRejects:    reg.Counter(prefix + "ring.token_rejects"),
		DigestRejects:   reg.Counter(prefix + "ring.digest_rejects"),
		SendQueue:       reg.Gauge(prefix + "ring.send_queue"),
		SubmitShed:      reg.Counter(prefix + "ring.submit_shed"),
		Throttled:       reg.Counter(prefix + "ring.throttled"),
	}
}
