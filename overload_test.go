// Soak test for the end-to-end backpressure path: under sustained
// submission far above ring capacity the bounded queues must plateau at
// their configured caps, excess load must surface as ErrOverloaded, and
// the system must keep delivering (graceful degradation, not collapse).
package immune_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"immune"
)

func TestOverloadBoundedQueuesAndGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		maxQueue    = 64
		maxInFlight = 32
		soak        = 1500 * time.Millisecond
	)
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Level:          immune.LevelDigests,
		Seed:           42,
		MaxSubmitQueue: maxQueue,
		MaxInFlight:    maxInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	sinkGroup, driverGroup := immune.GroupID(1), immune.GroupID(2)
	var sink *immune.PacketSink
	for i := 0; i < 3; i++ {
		p, err := sys.Processor(immune.ProcessorID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		s := immune.NewPacketSink()
		if i == 0 {
			sink = s
		}
		r, err := p.HostServer(sinkGroup, "sink", s)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	var objs []*immune.Object
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.NewClient(driverGroup)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		c.Bind("sink", sinkGroup)
		objs = append(objs, c.Object("sink"))
	}

	// Drivers spin one-way invocations with no pacing — far beyond what
	// the token ring can order — while a sampler watches every
	// processor's submit queue for bound violations.
	var (
		overloaded atomic.Uint64
		otherErrs  atomic.Uint64
		stop       = make(chan struct{})
		wg         sync.WaitGroup
	)
	payload := immune.PacketPayload(64)
	for _, obj := range objs {
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
					switch err := o.InvokeOneWay("push", payload); {
					case err == nil:
					case errors.Is(err, immune.ErrOverloaded):
						overloaded.Add(1)
						// Back off per the error contract; a hot retry
						// loop starves the protocol goroutines on
						// single-CPU runners.
						time.Sleep(200 * time.Microsecond)
					default:
						otherErrs.Add(1)
					}
				}
			}(obj)
		}
	}

	maxSeen := 0
	deadline := time.Now().Add(soak)
	for time.Now().Before(deadline) {
		for _, pid := range sys.Processors() {
			p, err := sys.Processor(pid)
			if err != nil {
				t.Fatal(err)
			}
			if q := p.QueuedSubmissions(); q > maxSeen {
				maxSeen = q
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if maxSeen > maxQueue {
		t.Fatalf("submit queue reached %d, bound is %d", maxSeen, maxQueue)
	}
	if overloaded.Load() == 0 {
		t.Fatal("no ErrOverloaded under saturating load: admission control never engaged")
	}
	if otherErrs.Load() > 0 {
		t.Fatalf("%d non-overload errors under load", otherErrs.Load())
	}
	if got := sink.Received(); got == 0 {
		t.Fatal("sink received nothing: system collapsed instead of degrading")
	} else {
		t.Logf("soak: delivered=%d overloaded=%d max queue=%d/%d",
			got, overloaded.Load(), maxSeen, maxQueue)
	}
}
