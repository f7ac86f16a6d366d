// Command packetdriver reproduces the paper's test application (§8): the
// client object acts as a packet driver, sending a constant stream of
// one-way invocations at a specified rate to the server object; throughput
// is measured at the server. Both objects are three-way replicated on a
// six-processor system, and the survivability level is selectable so the
// four cases of Figure 7 can be compared.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"immune"
)

const (
	sinkGroup   = immune.GroupID(1)
	driverGroup = immune.GroupID(2)
	sinkKey     = "sink"
)

func main() {
	level := flag.String("level", "signatures", "survivability level: none | digests | signatures | baseline")
	interval := flag.Duration("interval", 200*time.Microsecond, "interval between invocations at the client")
	duration := flag.Duration("duration", 2*time.Second, "measurement duration")
	payload := flag.Int("payload", 16, "invocation body size in bytes (the paper's IIOP messages are 64 bytes framed)")
	flag.Parse()

	if err := run(*level, *interval, *duration, *payload); err != nil {
		log.Fatal(err)
	}
}

func run(levelName string, interval, duration time.Duration, payloadSize int) error {
	body := immune.PacketPayload(payloadSize)

	if levelName == "baseline" {
		// Case 1: unreplicated client and server without the Immune
		// system, over plain IIOP.
		sink := immune.NewPacketSink()
		base, err := immune.NewBaseline(sinkKey, sink)
		if err != nil {
			return err
		}
		defer base.Close()
		obj := base.Object(sinkKey)
		sent := driveFixedRate(duration, interval, func() error {
			return obj.InvokeOneWay("push", body)
		})
		report("baseline (case 1)", sent, sink.Received(), duration)
		return nil
	}

	var level immune.Level
	switch levelName {
	case "none":
		level = immune.LevelNone
	case "digests":
		level = immune.LevelDigests
	case "signatures":
		level = immune.LevelSignatures
	default:
		return fmt.Errorf("unknown level %q", levelName)
	}

	sys, err := immune.New(immune.Config{Processors: 6, Level: level, Seed: 3})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()

	// Three-way replicated sink on P1..P3.
	sinks := make([]*immune.PacketSink, 0, 3)
	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		sink := immune.NewPacketSink()
		sinks = append(sinks, sink)
		r, err := p.HostServer(sinkGroup, sinkKey, sink)
		if err != nil {
			return err
		}
		if err := r.WaitActive(10 * time.Second); err != nil {
			return err
		}
	}

	// Three-way replicated packet driver on P4..P6.
	var drivers []*immune.Object
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(driverGroup)
		if err != nil {
			return err
		}
		c.Bind(sinkKey, sinkGroup)
		if err := c.Replica().WaitActive(10 * time.Second); err != nil {
			return err
		}
		drivers = append(drivers, c.Object(sinkKey))
	}

	// Drive: every client replica issues the same one-way invocation
	// stream (deterministic replicated client).
	sent := driveFixedRate(duration, interval, func() error {
		for _, d := range drivers {
			if err := d.InvokeOneWay("push", body); err != nil {
				return err
			}
		}
		return nil
	})

	// Let in-flight invocations drain, then read the voted deliveries.
	time.Sleep(500 * time.Millisecond)
	report(fmt.Sprintf("immune level=%s", levelName), sent, sinks[0].Received(), duration)
	for i, s := range sinks {
		fmt.Printf("  sink replica %d received %d\n", i+1, s.Received())
	}
	snap := sys.Snapshot()
	fmt.Printf("  ring counters (all processors): originated=%d delivered=%d tokens=%d retransmissions=%d shed=%d\n",
		snap.Counter("ring.originated"), snap.Counter("ring.delivered"), snap.Counter("ring.tokens_signed"),
		snap.Counter("ring.retransmissions"), snap.Counter("ring.submit_shed"))
	return nil
}

// driveFixedRate calls send once per interval for the given duration and
// returns the number of invocations issued.
func driveFixedRate(duration, interval time.Duration, send func() error) uint64 {
	deadline := time.Now().Add(duration)
	var sent uint64
	next := time.Now()
	for time.Now().Before(deadline) {
		if err := send(); err != nil {
			log.Printf("send: %v", err)
			break
		}
		sent++
		next = next.Add(interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	return sent
}

func report(name string, sent, received uint64, duration time.Duration) {
	fmt.Printf("%s: sent %d invocations, server processed %d (%.0f invocations/sec)\n",
		name, sent, received, float64(received)/duration.Seconds())
}
