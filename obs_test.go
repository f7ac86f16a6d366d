package immune_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"immune"
)

// TestMetricsConcurrentGroups drives concurrent two-way invocations across
// three independent server groups from three independent client groups
// (exercising the instrumentation under -race) while a second goroutine
// reads System.Snapshot in a tight loop — the supported way to watch a
// running system — and then asserts that the system-wide snapshot reports
// the activity: non-zero ring, voting, and replication counters, plus
// per-stage invocation latency histograms.
func TestMetricsConcurrentGroups(t *testing.T) {
	sys, err := immune.New(immune.Config{Processors: 6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	// Three server groups, each replicated 3-way on P1-P3.
	keys := []string{"Counter/a", "Counter/b", "Counter/c"}
	serverGroups := []immune.GroupID{1, 2, 3}
	for i, g := range serverGroups {
		for pid := immune.ProcessorID(1); pid <= 3; pid++ {
			p, err := sys.Processor(pid)
			if err != nil {
				t.Fatal(err)
			}
			r, err := p.HostServer(g, keys[i], &counter{})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.WaitActive(20 * time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Three client groups, one per processor P4-P6, each bound to all
	// three services.
	var clients []*immune.Client
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.NewClient(immune.GroupID(3 + pid))
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range serverGroups {
			c.Bind(keys[i], g)
		}
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	// A reader polls the snapshot for as long as invocations flow. Every
	// counter is monotone, so a read can never go backwards.
	stopReader := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		var last uint64
		for {
			select {
			case <-stopReader:
				readerDone <- nil
				return
			default:
			}
			got := sys.Snapshot().Counter("ring.delivered")
			if got < last {
				readerDone <- fmt.Errorf("ring.delivered went backwards: %d after %d", got, last)
				return
			}
			last = got
		}
	}()

	// Every client invokes every service several times, all concurrently.
	const rounds = 5
	args := immune.NewEncoder()
	args.WriteLongLong(1)
	var wg sync.WaitGroup
	errCh := make(chan error, len(clients)*len(keys))
	for _, c := range clients {
		for _, key := range keys {
			wg.Add(1)
			go func(c *immune.Client, key string) {
				defer wg.Done()
				obj := c.Object(key)
				for r := 0; r < rounds; r++ {
					if _, err := obj.Invoke("add", args.Bytes()); err != nil {
						errCh <- err
						return
					}
				}
			}(c, key)
		}
	}
	wg.Wait()
	close(stopReader)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	snap := sys.Snapshot()
	for _, name := range []string{
		"ring.delivered",
		"ring.originated",
		"ring.tokens_signed",
		"ring.tokens_verified",
		"voting.inv.votes_cast",
		"voting.inv.decided",
		"voting.resp.votes_cast",
		"voting.resp.decided",
		"rm.invocations_sent",
		"rm.invocations_decided",
		"rm.responses_decided",
		"net.sent",
		"net.delivered",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s stayed zero", name)
		}
	}
	if got := snap.Histograms["trace.total"].Count; got == 0 {
		t.Error("trace.total recorded no invocations")
	}
	if got := snap.Histograms["ring.rotation"].Count; got == 0 {
		t.Error("ring.rotation recorded no rotations")
	}
	if snap.Counters["trace.dropped"] != 0 {
		t.Errorf("trace.dropped = %d, want 0 (slots leaked?)", snap.Counters["trace.dropped"])
	}
	dump := snap.String()
	for _, want := range []string{"rm.invocations_sent", "trace.total", "voting.inv.decided"} {
		if !strings.Contains(dump, want) {
			t.Errorf("snapshot dump missing %q", want)
		}
	}
	if sys.Metrics() == nil {
		t.Error("Metrics() returned nil with metrics enabled")
	}
}

// TestDisableMetrics: a system built with DisableMetrics has no registry
// and an empty snapshot, yet still serves invocations.
func TestDisableMetrics(t *testing.T) {
	sys, err := immune.New(immune.Config{Processors: 4, Seed: 5, DisableMetrics: true})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	if sys.Metrics() != nil {
		t.Fatal("Metrics() must be nil when disabled")
	}

	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.HostServer(srvGroup, "Counter/main", &counter{})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	p4, err := sys.Processor(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p4.NewClient(cliGroup)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind("Counter/main", srvGroup)
	if err := c.Replica().WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	args := immune.NewEncoder()
	args.WriteLongLong(2)
	if _, err := c.Object("Counter/main").Invoke("add", args.Bytes()); err != nil {
		t.Fatal(err)
	}

	snap := sys.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("disabled snapshot not empty: %+v", snap)
	}
}
