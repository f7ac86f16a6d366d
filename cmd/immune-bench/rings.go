// Ring-sharding sweep: aggregate throughput as a function of the ring
// count (the BENCH_3.json artifact). The workload is deliberately
// latency-bound, not CPU-bound: the simulated LAN carries a real per-hop
// latency and the token batches one message per visit, so a single
// ring's capacity is set by token rotation time — the regime the paper's
// 10/100 Mbps Ethernet testbed lived in — and sharding groups across N
// independent rings overlaps N rotations. That is precisely the
// bottleneck multi-ring sharding exists to remove, and it is measurable
// honestly on a single-CPU runner because waiting for the simulated wire
// costs no cycles.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"immune"
)

// ringSweepGroups are the sink group ids, chosen so the 8 groups split
// evenly (2/2/2/2) across 4 rings and evenly (4/4) across 2 rings under
// RingOf — every swept ring count gets a balanced share of the load.
var ringSweepGroups = []immune.GroupID{1, 2, 3, 4, 6, 7, 9, 10}

// RingPoint is the measured throughput at one ring count.
type RingPoint struct {
	Rings             int     `json:"rings"`
	InvocationsPerSec float64 `json:"invocations_per_sec"`
	// PerRingDelivered proves every ring carried protocol traffic
	// (ring.delivered for a single ring, rN.ring.delivered otherwise).
	PerRingDelivered map[string]uint64 `json:"per_ring_delivered"`
	// CrossRingRouted counts invocations forwarded off their submitter's
	// home ring (0 for a single ring).
	CrossRingRouted uint64 `json:"cross_ring_routed"`
}

// RingReport is the BENCH_3.json schema.
type RingReport struct {
	Schema       string      `json:"schema"`
	GoVersion    string      `json:"go_version"`
	GOOS         string      `json:"goos"`
	GOARCH       string      `json:"goarch"`
	PayloadBytes int         `json:"payload_bytes"`
	WindowMs     int64       `json:"measure_window_ms"`
	NetLatencyUs int64       `json:"net_latency_us"`
	TokenBatch   int         `json:"token_batch"`
	Groups       int         `json:"groups"`
	Points       []RingPoint `json:"points"`
	// ScalingMaxVsOne is aggregate throughput at the largest swept ring
	// count divided by the single-ring point (only when both are swept).
	ScalingMaxVsOne float64 `json:"scaling_max_vs_one,omitempty"`
}

// parseRingCounts parses the -rings CSV ("1,2,4").
func parseRingCounts(csv string) ([]int, error) {
	var counts []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("ring count %q: want a positive integer", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

// runRings sweeps the ring counts and writes the report to jsonPath (or
// only the stdout table when the path is empty).
func runRings(jsonPath string, ringCounts []int, payloadSize int, window time.Duration) error {
	const netLatency = 300 * time.Microsecond
	body := immune.PacketPayload(payloadSize)
	report := RingReport{
		Schema:       "immune-bench/3",
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		PayloadBytes: payloadSize,
		WindowMs:     window.Milliseconds(),
		NetLatencyUs: netLatency.Microseconds(),
		TokenBatch:   1,
		Groups:       len(ringSweepGroups),
	}

	fmt.Printf("# ring-sharding sweep: %d sink groups, token batch 1, %v/hop simulated LAN\n",
		len(ringSweepGroups), netLatency)
	fmt.Println("rings,invocations_per_sec")
	for _, rings := range ringCounts {
		pt, err := measureRings(rings, netLatency, window, body)
		if err != nil {
			return fmt.Errorf("rings=%d: %w", rings, err)
		}
		report.Points = append(report.Points, pt)
		fmt.Printf("%d,%.0f\n", rings, pt.InvocationsPerSec)
	}

	var one, max *RingPoint
	for i := range report.Points {
		p := &report.Points[i]
		if p.Rings == 1 {
			one = p
		}
		if max == nil || p.Rings > max.Rings {
			max = p
		}
	}
	if one != nil && max != nil && max.Rings > 1 && one.InvocationsPerSec > 0 {
		report.ScalingMaxVsOne = max.InvocationsPerSec / one.InvocationsPerSec
		fmt.Printf("# scaling %d rings vs 1: %.2fx\n", max.Rings, report.ScalingMaxVsOne)
	}

	if jsonPath != "" {
		out, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", jsonPath)
	}
	return nil
}

// measureRings drives an open-loop saturating one-way load against one
// deployment and reports the sink-side processing rate over a timed
// window (measured after a warmup, so group assembly and queue fill are
// excluded).
func measureRings(rings int, netLatency, window time.Duration, body []byte) (RingPoint, error) {
	pt := RingPoint{Rings: rings, PerRingDelivered: map[string]uint64{}}
	sys, err := immune.New(immune.Config{
		Processors: 6,
		Rings:      rings,
		Level:      immune.LevelNone,
		Seed:       31,
		NetLatency: netLatency,
		// One message per token visit: per-ring capacity is set by the
		// rotation time, which is what sharding multiplies.
		TokenBatch: 1,
		// Rotation takes ~6 hops of simulated latency; keep the liveness
		// timeout far above it so a saturated ring is never read as dead.
		SuspectTimeout: 2 * time.Second,
	})
	if err != nil {
		return pt, err
	}
	sys.Start()
	defer sys.Stop()

	// Sinks: every group 3-way replicated on processors 1-3. The replica
	// on P1 is the measurement point — it processes every delivered
	// invocation of every group exactly once.
	sinks := make([]*immune.PacketSink, 0, len(ringSweepGroups))
	for _, g := range ringSweepGroups {
		for pid := immune.ProcessorID(1); pid <= 3; pid++ {
			p, err := sys.Processor(pid)
			if err != nil {
				return pt, err
			}
			sink := immune.NewPacketSink()
			if pid == 1 {
				sinks = append(sinks, sink)
			}
			r, err := p.HostServer(g, fmt.Sprintf("sink/%d", g), sink)
			if err != nil {
				return pt, err
			}
			if err := r.WaitActive(20 * time.Second); err != nil {
				return pt, fmt.Errorf("sink %d on %s: %w", g, pid, err)
			}
		}
	}
	received := func() uint64 {
		var sum uint64
		for _, s := range sinks {
			sum += s.Received()
		}
		return sum
	}

	// Drivers: an independent (degree-1) client on each of P4-P6, bound
	// to every sink group. Each driver goroutine spins over its objects,
	// backing off briefly on ErrOverloaded — an open-loop source that
	// keeps every ring's submit queue full without pacing on completions.
	type driver struct{ objs []*immune.Object }
	var drivers []driver
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return pt, err
		}
		c, err := p.NewClient(immune.GroupID(100 + uint32(pid)))
		if err != nil {
			return pt, err
		}
		d := driver{}
		for _, g := range ringSweepGroups {
			key := fmt.Sprintf("sink/%d", g)
			c.Bind(key, g)
			d.objs = append(d.objs, c.Object(key))
		}
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			return pt, fmt.Errorf("driver on %s: %w", pid, err)
		}
		drivers = append(drivers, d)
	}

	stop := make(chan struct{})
	done := make(chan struct{}, len(drivers))
	for _, d := range drivers {
		go func(objs []*immune.Object) {
			defer func() { done <- struct{}{} }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := objs[i%len(objs)].InvokeOneWay("push", body)
				if errors.Is(err, immune.ErrOverloaded) {
					time.Sleep(500 * time.Microsecond)
				}
			}
		}(d.objs)
	}

	time.Sleep(700 * time.Millisecond) // warmup: fill queues, settle rotation
	before := received()
	time.Sleep(window)
	delta := received() - before
	close(stop)
	for range drivers {
		<-done
	}
	pt.InvocationsPerSec = float64(delta) / window.Seconds()

	snap := sys.Snapshot()
	if rings == 1 {
		pt.PerRingDelivered["ring.delivered"] = snap.Counter("ring.delivered")
	} else {
		for r := 0; r < rings; r++ {
			name := fmt.Sprintf("r%d.ring.delivered", r)
			pt.PerRingDelivered[name] = snap.Counter(name)
		}
	}
	pt.CrossRingRouted = snap.Counter("core.cross_ring_routed")
	for name, v := range pt.PerRingDelivered {
		if v == 0 {
			return pt, fmt.Errorf("%s stayed zero — a ring carried no traffic", name)
		}
	}
	return pt, nil
}
