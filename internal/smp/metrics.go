package smp

import (
	"immune/internal/obs"
	"immune/internal/ring"
)

// Metrics are the protocol stack's optional observability hooks. The zero
// value is fully disabled (nil obs handles are no-ops). Ring is passed
// through to every ring incarnation the stack builds, so ring counters
// accumulate across membership changes.
type Metrics struct {
	// Installs counts processor membership changes installed (§3.1).
	Installs *obs.Counter
	// Suspicions counts fault-detector suspicions raised against
	// processors (liveness timeouts, attributable misbehavior,
	// corroborated value faults).
	Suspicions *obs.Counter
	// SuspectReason, if set, records the reason of every suspicion as a
	// per-reason counter — the first question when diagnosing an
	// unexpected exclusion is always "suspected for what?".
	SuspectReason func(reason string)
	// Members gauges the size of the installed processor membership.
	Members *obs.Gauge
	// Ring instruments the token-ring hot path.
	Ring ring.Metrics
}

// MetricsFrom registers the stack metric family in reg under
// "<prefix>smp.*" (and "<prefix>ring.*" for the token hot path). A nil
// registry yields the disabled zero value. Sharded deployments give each
// ring's stack its own prefix; a single ring uses the empty prefix.
func MetricsFrom(reg *obs.Registry, prefix string) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		Installs:   reg.Counter(prefix + "smp.installs"),
		Suspicions: reg.Counter(prefix + "smp.suspicions"),
		Members:    reg.Gauge(prefix + "smp.members"),
		Ring:       ring.MetricsFrom(reg, prefix),
		SuspectReason: func(reason string) {
			reg.Counter(prefix + "smp.suspect." + reason).Inc()
		},
	}
}
