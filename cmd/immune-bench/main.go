// Command immune-bench regenerates Figure 7 of the paper: throughput
// measured at the server (invocations/sec) as a function of the interval
// between invocations at the client (µs), for the four survivability
// cases:
//
//	case 1: unreplicated client and server without the Immune system
//	case 2: 3-way active replication, no voting, no digests/signatures
//	case 3: + majority voting + message digests
//	case 4: + digitally signed tokens
//
// Absolute numbers reflect the in-process simulator, not the paper's
// UltraSPARC testbed; the figure's shape (case 1 > case 2 > case 3 ≫
// case 4, with plateaus at saturation) is the reproduction target.
//
// Output is a CSV-ish table: one row per client interval, one column per
// case. Per-invocation cost (throughput, latency, allocations, per-layer
// breakdown) is `go run ./bench`.
//
// Three other modes replace the sweep: -saturate (overload smoke), -rings
// (ring-sharding scaling, BENCH_3 schema) and -reconfig (live
// reconfiguration latency, BENCH_4 schema); the last two write their
// report to -json PATH when set.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"immune"
)

const (
	sinkGroup   = immune.GroupID(1)
	driverGroup = immune.GroupID(2)
	sinkKey     = "sink"
)

func main() {
	duration := flag.Duration("duration", time.Second, "measurement duration per point")
	payload := flag.Int("payload", 16, "invocation body size in bytes")
	intervals := flag.String("intervals", "50us,100us,200us,400us,800us,1600us,3200us",
		"comma-separated client inter-invocation intervals")
	cases := flag.String("cases", "1,2,3,4", "comma-separated cases to run")
	workFactor := flag.Int("workfactor", 1,
		"crypto work factor: 1 = modern hardware, ~100 = calibrated to the paper's 167 MHz testbed")
	jsonPath := flag.String("json", "",
		"rings and reconfig modes only: write the machine-readable report to this path")
	saturate := flag.Duration("saturate", 0,
		"run the overload smoke instead: drive unpaced one-way load for this duration against tight queue bounds and fail on any backpressure invariant violation")
	ringsCSV := flag.String("rings", "",
		"run the ring-sharding sweep instead: comma-separated ring counts (e.g. 1,2,4); aggregate throughput per count, written to -json PATH as the BENCH_3 schema when set")
	window := flag.Duration("window", 2500*time.Millisecond,
		"rings mode only: measurement window per ring count (after warmup)")
	memCeiling := flag.Int("memceiling", 0,
		"saturate mode only: fail if peak heap exceeds this many MB (0 disables)")
	reconfig := flag.Int("reconfig", 0,
		"run the live-reconfiguration latency benchmark instead: this many add/reweight/drain/restore cycles under background load; p50/p99 per operation, written to -json PATH as the BENCH_4 schema when set")
	flag.Parse()

	if *reconfig > 0 {
		if err := runReconfig(*jsonPath, *reconfig, *payload); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *saturate > 0 {
		if err := runSaturate(*saturate, *payload, *memCeiling); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *ringsCSV != "" {
		counts, err := parseRingCounts(*ringsCSV)
		if err != nil {
			log.Fatal(err)
		}
		if err := runRings(*jsonPath, counts, *payload, *window); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *memCeiling > 0 {
		log.Fatal("-memceiling requires -saturate DURATION")
	}
	if *jsonPath != "" {
		log.Fatal("-json requires -rings COUNTS or -reconfig CYCLES")
	}
	if err := run(*duration, *payload, *intervals, *cases, *workFactor); err != nil {
		log.Fatal(err)
	}
}

func run(duration time.Duration, payloadSize int, intervalsCSV, casesCSV string, workFactor int) error {
	var intervals []time.Duration
	for _, s := range strings.Split(intervalsCSV, ",") {
		d, err := time.ParseDuration(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("interval %q: %w", s, err)
		}
		intervals = append(intervals, d)
	}
	wantCase := map[string]bool{}
	for _, c := range strings.Split(casesCSV, ",") {
		wantCase[strings.TrimSpace(c)] = true
	}

	type caseSpec struct {
		id    string
		label string
		level immune.Level // 0 = baseline
	}
	specs := []caseSpec{
		{"1", "case1 no replication, no Immune", 0},
		{"2", "case2 replication, no voting/digests", immune.LevelNone},
		{"3", "case3 + voting + digests", immune.LevelDigests},
		{"4", "case4 + signed tokens", immune.LevelSignatures},
	}

	w := os.Stdout
	fmt.Fprintf(w, "# Figure 7 reproduction: server throughput (invocations/sec)\n")
	fmt.Fprintf(w, "# duration per point: %v, payload %dB, crypto work factor %d\n",
		duration, payloadSize, workFactor)
	fmt.Fprintf(w, "interval_us")
	for _, sp := range specs {
		if wantCase[sp.id] {
			fmt.Fprintf(w, ",case%s", sp.id)
		}
	}
	fmt.Fprintln(w)

	body := immune.PacketPayload(payloadSize)
	for _, interval := range intervals {
		fmt.Fprintf(w, "%d", interval.Microseconds())
		for _, sp := range specs {
			if !wantCase[sp.id] {
				continue
			}
			var rate float64
			var err error
			if sp.level == 0 {
				rate, err = runBaseline(duration, interval, body)
			} else {
				rate, err = runImmune(sp.level, workFactor, duration, interval, body)
			}
			if err != nil {
				return fmt.Errorf("%s at %v: %w", sp.label, interval, err)
			}
			fmt.Fprintf(w, ",%.0f", rate)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// runBaseline measures case 1: plain unreplicated IIOP.
func runBaseline(duration, interval time.Duration, body []byte) (float64, error) {
	sink := immune.NewPacketSink()
	base, err := immune.NewBaseline(sinkKey, sink)
	if err != nil {
		return 0, err
	}
	defer base.Close()
	obj := base.Object(sinkKey)
	drive(duration, interval, func() error { return obj.InvokeOneWay("push", body) })
	return float64(sink.Received()) / duration.Seconds(), nil
}

// runImmune measures cases 2-4 on a fresh six-processor system with
// three-way replicated sink and driver.
func runImmune(level immune.Level, workFactor int, duration, interval time.Duration, body []byte) (float64, error) {
	sys, err := immune.New(immune.Config{
		Processors:       6,
		Level:            level,
		Seed:             11,
		CryptoWorkFactor: workFactor,
	})
	if err != nil {
		return 0, err
	}
	defer sys.Stop()
	sys.Start()

	var sink0 *immune.PacketSink
	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return 0, err
		}
		sink := immune.NewPacketSink()
		if pid == 1 {
			sink0 = sink
		}
		r, err := p.HostServer(sinkGroup, sinkKey, sink)
		if err != nil {
			return 0, err
		}
		if err := r.WaitActive(10 * time.Second); err != nil {
			return 0, err
		}
	}
	var drivers []*immune.Object
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return 0, err
		}
		c, err := p.NewClient(driverGroup)
		if err != nil {
			return 0, err
		}
		c.Bind(sinkKey, sinkGroup)
		if err := c.Replica().WaitActive(10 * time.Second); err != nil {
			return 0, err
		}
		drivers = append(drivers, c.Object(sinkKey))
	}

	drive(duration, interval, func() error {
		for _, d := range drivers {
			if err := d.InvokeOneWay("push", body); err != nil {
				return err
			}
		}
		return nil
	})
	// Drain window proportional to the send duration so queued
	// invocations count toward throughput honestly.
	time.Sleep(duration / 2)
	return float64(sink0.Received()) / duration.Seconds(), nil
}

func drive(duration, interval time.Duration, send func() error) {
	deadline := time.Now().Add(duration)
	next := time.Now()
	for time.Now().Before(deadline) {
		if err := send(); err != nil {
			return
		}
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
}
