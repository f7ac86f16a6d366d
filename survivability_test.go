package immune_test

import (
	"sync"
	"testing"
	"time"

	"immune"
)

// TestPublicAPISurvivesCrash drives the crash-and-continue story entirely
// through the public API: a replicated counter keeps serving after a
// server-hosting processor crashes.
func TestPublicAPISurvivesCrash(t *testing.T) {
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Seed:           31,
		SuspectTimeout: 40 * time.Millisecond,
		CallTimeout:    15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

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
	var clients []*immune.Client
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.NewClient(cliGroup)
		if err != nil {
			t.Fatal(err)
		}
		c.Bind("Counter/main", srvGroup)
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	add := func(delta int64) []int64 {
		args := immune.NewEncoder()
		args.WriteLongLong(delta)
		out := make([]int64, len(clients))
		errs := make([]error, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *immune.Client) {
				defer wg.Done()
				body, err := c.Object("Counter/main").Invoke("add", args.Bytes())
				if err != nil {
					errs[i] = err
					return
				}
				out[i], errs[i] = immune.NewDecoder(body).ReadLongLong()
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		return out
	}

	for i, v := range add(10) {
		if v != 10 {
			t.Fatalf("client %d pre-crash read %d", i, v)
		}
	}

	sys.CrashProcessor(2)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		p1, _ := sys.Processor(1)
		if len(p1.View().Members) == 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	p1, _ := sys.Processor(1)
	if len(p1.View().Members) != 5 {
		t.Fatalf("crash never reconfigured: view %v suspects %v",
			p1.View().Members, p1.Suspects())
	}

	for i, v := range add(5) {
		if v != 15 {
			t.Fatalf("client %d post-crash read %d, want 15", i, v)
		}
	}
	if got := len(p1.GroupMembers(srvGroup)); got != 2 {
		t.Fatalf("server group degree %d after crash", got)
	}
	// Counters surfaced through the public API are live.
	snap := sys.Snapshot()
	for _, name := range []string{"ring.delivered", "rm.invocations_decided", "net.delivered"} {
		if snap.Counter(name) == 0 {
			t.Fatalf("%s is zero in the snapshot", name)
		}
	}
}

// TestPublicAPIFaultPlan wires a FaultPlan through the public Config.
func TestPublicAPIFaultPlan(t *testing.T) {
	sys, err := immune.New(immune.Config{
		Processors:  4,
		Seed:        32,
		Plan:        immune.Probabilistic(32, 0.08, 0.02, 0, 0),
		CallTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	p1, _ := sys.Processor(1)
	r, err := p1.HostServer(srvGroup, "Counter/main", &counter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	p2, _ := sys.Processor(2)
	c, err := p2.NewClient(cliGroup)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind("Counter/main", srvGroup)
	if err := c.Replica().WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	args := immune.NewEncoder()
	args.WriteLongLong(1)
	body, err := c.Object("Counter/main").Invoke("add", args.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := immune.NewDecoder(body).ReadLongLong(); v != 1 {
		t.Fatalf("read %d", v)
	}
	if sys.Snapshot().Counter("net.dropped") == 0 {
		t.Fatal("fault plan never dropped a frame")
	}
}
