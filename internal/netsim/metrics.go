package netsim

import "immune/internal/obs"

// Metrics are the network's optional observability hooks: cumulative
// counters of network-level events and one histogram. The zero value is
// fully disabled (nil obs handles are no-ops).
type Metrics struct {
	Sent       *obs.Counter // frames submitted by endpoints
	Delivered  *obs.Counter // frame copies placed in receiver mailboxes
	Dropped    *obs.Counter // frame copies lost (fault plan or detached receiver)
	Corrupted  *obs.Counter // frame copies corrupted in transit
	Duplicated *obs.Counter // extra copies injected
	BytesSent  *obs.Counter // payload bytes submitted
	// Late is how long after its due time (send + latency + plan delay +
	// jitter) the scheduler deposited each delayed copy: the simulator's
	// own error on the configured link latency.
	Late *obs.Histogram
}

// MetricsFrom registers the network metric family in reg under
// "<prefix>net.*". A nil registry yields the disabled zero value. Each
// ring of a sharded system runs its own simulated LAN; the prefix keeps
// their counters apart, and a single network uses the empty prefix.
func MetricsFrom(reg *obs.Registry, prefix string) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		Sent:       reg.Counter(prefix + "net.sent"),
		Delivered:  reg.Counter(prefix + "net.delivered"),
		Dropped:    reg.Counter(prefix + "net.dropped"),
		Corrupted:  reg.Counter(prefix + "net.corrupted"),
		Duplicated: reg.Counter(prefix + "net.duplicated"),
		BytesSent:  reg.Counter(prefix + "net.bytes_sent"),
		Late:       reg.Histogram(prefix + "net.late"),
	}
}
