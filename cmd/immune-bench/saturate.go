package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"immune"
)

// runSaturate is the overload smoke mode (-saturate): drivers submit
// one-way invocations with no pacing — far beyond the ring's ordering
// capacity — while a sampler watches queue-depth gauges and the heap.
// It fails (non-zero exit via the caller) when any bounded queue exceeds
// its configured cap, when admission control never engages, when
// delivery stalls, or when the heap grows past the ceiling: exactly the
// invariants the backpressure layer exists to hold.
func runSaturate(duration time.Duration, payloadSize, memCeilingMB int) error {
	const (
		maxQueue    = 256
		maxInFlight = 64
		maxBacklog  = 128
	)
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Level:          immune.LevelDigests,
		Seed:           23,
		MaxSubmitQueue: maxQueue,
		MaxInFlight:    maxInFlight,
		MaxBacklog:     maxBacklog,
	})
	if err != nil {
		return err
	}
	defer sys.Stop()
	sys.Start()

	var sink0 *immune.PacketSink
	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		sink := immune.NewPacketSink()
		if pid == 1 {
			sink0 = sink
		}
		r, err := p.HostServer(sinkGroup, sinkKey, sink)
		if err != nil {
			return err
		}
		if err := r.WaitActive(10 * time.Second); err != nil {
			return err
		}
	}
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

	var (
		overloaded atomic.Uint64
		sent       atomic.Uint64
		hardErrs   atomic.Uint64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	body := immune.PacketPayload(payloadSize)
	for _, obj := range drivers {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(o *immune.Object) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					switch err := o.InvokeOneWay("push", body); {
					case err == nil:
						sent.Add(1)
					case errors.Is(err, immune.ErrOverloaded):
						overloaded.Add(1)
						// Back off as the error contract prescribes.
						// A hot retry loop would starve the protocol
						// goroutines of CPU on small machines and turn
						// the smoke into a scheduler-fairness test.
						time.Sleep(200 * time.Microsecond)
					default:
						hardErrs.Add(1)
					}
				}
			}(obj)
		}
	}

	var (
		maxQueueSeen   int
		maxBacklogSeen int64
		maxHeap        uint64
		stalls         int
		lastDelivered  uint64
		mem            runtime.MemStats
	)
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		for _, pid := range sys.Processors() {
			p, err := sys.Processor(pid)
			if err != nil {
				return err
			}
			if q := p.QueuedSubmissions(); q > maxQueueSeen {
				maxQueueSeen = q
			}
		}
		snap := sys.Snapshot()
		if bl := snap.Gauges["rm.backlog"]; bl > maxBacklogSeen {
			maxBacklogSeen = bl
		}
		if d := snap.Counters["ring.delivered"]; d == lastDelivered {
			stalls++
		} else {
			lastDelivered = d
			stalls = 0
		}
		runtime.ReadMemStats(&mem)
		if mem.HeapAlloc > maxHeap {
			maxHeap = mem.HeapAlloc
		}
	}
	close(stop)
	wg.Wait()

	fmt.Printf("# saturate %v: sent=%d overloaded=%d delivered(sink)=%d\n",
		duration, sent.Load(), overloaded.Load(), sink0.Received())
	fmt.Printf("# max submit queue %d/%d, max aggregate backlog %d, peak heap %.1f MB\n",
		maxQueueSeen, maxQueue, maxBacklogSeen, float64(maxHeap)/(1<<20))

	switch {
	case maxQueueSeen > maxQueue:
		return fmt.Errorf("saturate: submit queue reached %d, bound is %d", maxQueueSeen, maxQueue)
	case maxBacklogSeen > maxBacklog:
		return fmt.Errorf("saturate: aggregate backlog reached %d, per-replica bound is %d",
			maxBacklogSeen, maxBacklog)
	case overloaded.Load() == 0:
		return fmt.Errorf("saturate: no ErrOverloaded under saturating load — admission control never engaged")
	case hardErrs.Load() > 0:
		return fmt.Errorf("saturate: %d non-overload invocation errors", hardErrs.Load())
	case sink0.Received() == 0:
		return fmt.Errorf("saturate: sink received nothing — system collapsed instead of degrading")
	case stalls >= 10:
		return fmt.Errorf("saturate: ring delivery stalled for the final %d samples", stalls)
	case memCeilingMB > 0 && maxHeap > uint64(memCeilingMB)<<20:
		return fmt.Errorf("saturate: peak heap %.1f MB exceeds %d MB ceiling",
			float64(maxHeap)/(1<<20), memCeilingMB)
	}
	return nil
}
