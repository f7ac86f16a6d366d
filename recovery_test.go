package immune_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"immune"
)

// invokeCounters performs the same two-way invocation from every client
// replica concurrently (as a deterministic replicated client would) and
// returns the decoded results.
func invokeCounters(t *testing.T, clients []*immune.Client, op string, delta int64) []int64 {
	t.Helper()
	args := immune.NewEncoder()
	args.WriteLongLong(delta)
	out := make([]int64, len(clients))
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *immune.Client) {
			defer wg.Done()
			body, err := c.Object("Counter/main").Invoke(op, args.Bytes())
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

// eventCount tallies recovery events of one kind for a group.
func eventCount(h immune.Health, g immune.GroupID, k immune.RecoveryEventKind) int {
	n := 0
	for _, e := range h.Events {
		if e.Group == g && e.Kind == k {
			n++
		}
	}
	return n
}

// groupHealth extracts one group's slice of a Health snapshot.
func groupHealth(h immune.Health, g immune.GroupID) (immune.GroupHealth, bool) {
	for _, gh := range h.Groups {
		if gh.Group == g {
			return gh, true
		}
	}
	return immune.GroupHealth{}, false
}

// waitHealth polls the Health snapshot until cond holds for the group.
// Right after a crash the reference directory still lists the dead host's
// replicas (the exclusion has not been installed yet), so raw replica
// counts are stale-high; recovery evidence — the Recoveries counter and
// placement events — is what proves the manager actually acted.
func waitHealth(t *testing.T, sys *immune.System, g immune.GroupID,
	timeout time.Duration, what string,
	cond func(immune.GroupHealth, immune.Health) bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		h := sys.Health()
		if gh, ok := groupHealth(h, g); ok && cond(gh, h) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never happened; health %+v", what, sys.Health())
}

// TestAutoRecoveryRestoresDegree is the tentpole scenario: a group hosted
// through HostGroup loses a replica to a processor crash and the recovery
// manager restores it to full degree — no manual HostServer — with the
// replacement receiving its state via majority-voted state transfer.
func TestAutoRecoveryRestoresDegree(t *testing.T) {
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Seed:           41,
		SuspectTimeout: 40 * time.Millisecond,
		CallTimeout:    15 * time.Second,
		InvokeRetries:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	replicas, err := sys.HostGroup(srvGroup, "Counter/main", 3,
		func() immune.Servant { return &counter{} })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas {
		if err := r.WaitActive(20 * time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
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

	for i, v := range invokeCounters(t, clients, "add", 10) {
		if v != 10 {
			t.Fatalf("client %d pre-crash read %d", i, v)
		}
	}
	if gh, ok := groupHealth(sys.Health(), srvGroup); !ok || !gh.Managed || gh.Degree != 3 || gh.Degraded {
		t.Fatalf("pre-crash health %+v (found %v)", gh, ok)
	}

	// Crash a server host. No manual re-hosting follows: the recovery
	// manager must notice the degraded group and restore it.
	sys.CrashProcessor(2)
	waitHealth(t, sys, srvGroup, 30*time.Second, "first recovery",
		func(gh immune.GroupHealth, _ immune.Health) bool {
			return gh.Recoveries >= 1 && gh.Live == 3 && !gh.Degraded
		})
	if err := sys.WaitGroupActive(srvGroup, 3, 30*time.Second); err != nil {
		t.Fatalf("group not active after recovery: %v", err)
	}

	h := sys.Health()
	gh, ok := groupHealth(h, srvGroup)
	if !ok || gh.Live != 3 || gh.Degraded || gh.Recoveries < 1 {
		t.Fatalf("post-recovery health %+v (found %v)", gh, ok)
	}
	for _, k := range []immune.RecoveryEventKind{
		immune.EventDegraded, immune.EventPlacementStarted,
		immune.EventReplicaRestored, immune.EventRecovered,
	} {
		if eventCount(h, srvGroup, k) == 0 {
			t.Fatalf("no %v event in %+v", k, h.Events)
		}
	}

	// The group still serves, and now at full strength again.
	for i, v := range invokeCounters(t, clients, "add", 5) {
		if v != 15 {
			t.Fatalf("client %d post-recovery read %d, want 15", i, v)
		}
	}

	// Crash a second original host. The voted reply now depends on the
	// replacement replica agreeing with the last original — proving the
	// state transfer delivered the correct state, not a fresh servant.
	sys.CrashProcessor(3)
	waitHealth(t, sys, srvGroup, 30*time.Second, "second recovery",
		func(gh immune.GroupHealth, _ immune.Health) bool {
			return gh.Recoveries >= 2 && gh.Live == 3 && !gh.Degraded
		})
	for i, v := range invokeCounters(t, clients, "add", 1) {
		if v != 16 {
			t.Fatalf("client %d read %d after second recovery, want 16", i, v)
		}
	}
	if gh, _ := groupHealth(sys.Health(), srvGroup); gh.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2", gh.Recoveries)
	}
}

// TestRejoinEventualInclusion exercises Table 4 Eventual Inclusion at the
// system level: a crashed processor is excluded, reattached, and
// eventually readmitted into the installed membership — all observed
// through the public API.
func TestRejoinEventualInclusion(t *testing.T) {
	sys, err := immune.New(immune.Config{
		Processors:     5,
		Seed:           43,
		SuspectTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	p1, err := sys.Processor(1)
	if err != nil {
		t.Fatal(err)
	}
	waitView := func(want int, timeout time.Duration) bool {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			if len(p1.View().Members) == want {
				return true
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}

	sys.CrashProcessor(3)
	if !waitView(4, 20*time.Second) {
		t.Fatalf("P3 never excluded: view %v", p1.View().Members)
	}

	sys.ReattachProcessor(3)
	if !waitView(5, 30*time.Second) {
		t.Fatalf("P3 never readmitted: view %v suspects %v",
			p1.View().Members, p1.Suspects())
	}
	// The rejoined processor converges on the same view.
	p3, err := sys.Processor(3)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) && len(p3.View().Members) != 5 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := p3.View().Members; len(got) != 5 {
		t.Fatalf("rejoined P3 view %v", got)
	}
}

// TestRecoveryCascadingFault crashes the recovery target while its state
// transfer is (likely) in flight; the recovery manager must retry onto a
// third processor and still restore the configured degree.
func TestRecoveryCascadingFault(t *testing.T) {
	sys, err := immune.New(immune.Config{
		Processors:     7,
		Seed:           47,
		SuspectTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	replicas, err := sys.HostGroup(srvGroup, "Counter/main", 3,
		func() immune.Servant { return &counter{} })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range replicas {
		if err := r.WaitActive(20 * time.Second); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}

	sys.CrashProcessor(2)

	// The moment a replacement placement starts, crash its target.
	var firstTarget immune.ProcessorID
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && firstTarget == 0 {
		for _, e := range sys.Health().Events {
			if e.Group == srvGroup && e.Kind == immune.EventPlacementStarted {
				firstTarget = e.Processor
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	if firstTarget == 0 {
		t.Fatalf("no placement ever started: %+v", sys.Health())
	}
	sys.CrashProcessor(firstTarget)

	// Recovery must route around the second fault and restore the degree
	// on a different processor. Whether the crash landed mid-transfer
	// (placement fails, retried elsewhere) or just after activation (a
	// second degradation round), at least two placements start.
	waitHealth(t, sys, srvGroup, 60*time.Second, "recovery from cascading fault",
		func(gh immune.GroupHealth, h immune.Health) bool {
			return eventCount(h, srvGroup, immune.EventPlacementStarted) >= 2 &&
				gh.Live == 3 && !gh.Degraded
		})
	if err := sys.WaitGroupActive(srvGroup, 3, 30*time.Second); err != nil {
		t.Fatalf("group not active after recovery: %v", err)
	}
}

// TestInvokeDeadlineTypedErrors drives the typed failure surface of the
// public API: expired deadlines classify by group strength and are
// matchable with errors.Is.
func TestInvokeDeadlineTypedErrors(t *testing.T) {
	sys, err := immune.New(immune.Config{Processors: 4, Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	p1, err := sys.Processor(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p1.HostServer(srvGroup, "Counter/main", &counter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	p2, err := sys.Processor(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p2.NewClient(cliGroup)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind("Counter/main", srvGroup)
	c.Bind("Ghost/main", immune.GroupID(99))
	if err := c.Replica().WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A live group that cannot answer in time is a timeout. The
	// invocation is still multicast (and may execute once), so use the
	// read-only operation here.
	args := immune.NewEncoder()
	args.WriteLongLong(1)
	_, err = c.Object("Counter/main").InvokeDeadline("get", nil,
		time.Now().Add(-time.Second))
	if !errors.Is(err, immune.ErrTimeout) {
		t.Fatalf("expired deadline on live group: %v", err)
	}

	// A group with no members at all is a lost quorum.
	_, err = c.Object("Ghost/main").InvokeDeadline("add", args.Bytes(),
		time.Now().Add(300*time.Millisecond))
	if !errors.Is(err, immune.ErrQuorumLost) {
		t.Fatalf("memberless group: %v", err)
	}

	// A deadline that allows completion succeeds.
	body, err := c.Object("Counter/main").InvokeDeadline("add", args.Bytes(),
		time.Now().Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := immune.NewDecoder(body).ReadLongLong(); v != 1 {
		t.Fatalf("read %d, want 1", v)
	}
}
