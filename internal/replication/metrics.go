package replication

import "immune/internal/obs"

// Metrics are the Replication Manager's optional observability hooks:
// cumulative event counters and two depth gauges. The zero value is fully
// disabled (nil obs handles are no-ops).
type Metrics struct {
	// InvocationsSent counts client-role invocations multicast;
	// ResponsesSent server-role responses multicast.
	InvocationsSent *obs.Counter
	ResponsesSent   *obs.Counter
	// ResponsesResent counts retained replies re-sent for invocation
	// retries (at-most-once reply retention, not re-execution).
	ResponsesResent *obs.Counter
	// InvocationsDecided counts voted invocations dispatched to
	// servants; ResponsesDecided voted responses delivered to callers.
	InvocationsDecided *obs.Counter
	ResponsesDecided   *obs.Counter
	// Duplicates counts copies suppressed after decisions (§5.1).
	Duplicates *obs.Counter
	// ValueFaults counts deviant copies observed locally (§6.2).
	ValueFaults *obs.Counter
	// Retries counts invocation re-sends within a call deadline.
	Retries *obs.Counter
	// StateTransfers counts snapshots installed on joining replicas.
	StateTransfers *obs.Counter
	// OverloadRejects counts invocations shed by admission control (the
	// per-replica in-flight cap or the ring's bounded submit queue).
	OverloadRejects *obs.Counter
	// BacklogShed counts voted invocations dropped from inactive-replica
	// backlogs by the cap or the TTL.
	BacklogShed *obs.Counter
	// Desyncs counts installs this processor applied while behind on the
	// old ring's delivered tail, each forcing a directory resync and a
	// state-refreshing rejoin of every hosted server replica.
	Desyncs *obs.Counter
	// Backlog gauges the aggregate backlog depth across hosted replicas
	// (delta-updated, so managers sharing a registry sum correctly).
	Backlog *obs.Gauge
	// InFlight gauges the two-way invocations awaiting a voted response.
	InFlight *obs.Gauge
}

// MetricsFrom registers the Replication Manager metric family in reg. A
// nil registry yields the disabled zero value.
func MetricsFrom(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		InvocationsSent:    reg.Counter("rm.invocations_sent"),
		ResponsesSent:      reg.Counter("rm.responses_sent"),
		ResponsesResent:    reg.Counter("rm.responses_resent"),
		InvocationsDecided: reg.Counter("rm.invocations_decided"),
		ResponsesDecided:   reg.Counter("rm.responses_decided"),
		Duplicates:         reg.Counter("rm.duplicates_discarded"),
		ValueFaults:        reg.Counter("rm.value_faults"),
		Retries:            reg.Counter("rm.retries"),
		StateTransfers:     reg.Counter("rm.state_transfers"),
		OverloadRejects:    reg.Counter("rm.overload_rejects"),
		BacklogShed:        reg.Counter("rm.backlog_shed"),
		Desyncs:            reg.Counter("rm.desyncs"),
		Backlog:            reg.Gauge("rm.backlog"),
		InFlight:           reg.Gauge("rm.inflight"),
	}
}
