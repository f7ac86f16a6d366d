package immune_test

import (
	"errors"
	"sort"
	"sync"
	"testing"
	"time"

	"immune"
)

// TestLiveReconfigurationUnderLoad is the end-to-end contract for live
// reconfiguration: a loaded multi-ring system grows by a processor,
// re-weights its served group onto the new capacity, and drains one of
// the original hosts — while an open-loop client keeps invoking
// throughout. No invocation may fail hard (retryable ErrOverloaded
// backpressure excluded), each transition's p99 stays bounded, and the
// replicated state is exact at the end (every accepted add counted
// once, across two migrations' state transfers).
func TestLiveReconfigurationUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end run; skipped in -short")
	}
	sys, err := immune.New(immune.Config{
		Processors:  6,
		Rings:       2,
		Seed:        53,
		CallTimeout: 10 * time.Second,
		// Reconfiguration churns memberships on purpose; the liveness
		// timeout must not read a busy runner's scheduling stalls as
		// processor deaths mid-transition.
		SuspectTimeout: time.Second,
		InvokeRetries:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	defer sys.Stop()

	if _, err := sys.HostGroup(srvGroup, "acct", 3, func() immune.Servant { return &counter{} }, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitGroupActive(srvGroup, 3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Processor(6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.NewClient(cliGroup)
	if err != nil {
		t.Fatal(err)
	}
	c.Bind("acct", srvGroup)
	if err := c.Replica().WaitActive(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	obj := c.Object("acct")

	// Open-loop driver: paced adds for the whole run, latency and
	// outcome recorded per call.
	type sample struct {
		start time.Time
		lat   time.Duration
		err   error
	}
	var (
		mu      sync.Mutex
		samples []sample
	)
	args := immune.NewEncoder()
	args.WriteLongLong(1)
	stop := make(chan struct{})
	driverDone := make(chan struct{})
	go func() {
		defer close(driverDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			began := time.Now()
			_, err := obj.Invoke("add", args.Bytes())
			mu.Lock()
			samples = append(samples, sample{began, time.Since(began), err})
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The three transitions, back to back under load. Each window's
	// bounds are captured for the per-transition latency check.
	const opTO = 30 * time.Second
	type window struct {
		name     string
		from, to time.Time
	}
	var windows []window
	transition := func(name string, op func() error) {
		t.Helper()
		from := time.Now()
		if err := op(); err != nil {
			close(stop)
			<-driverDone
			t.Fatalf("%s: %v", name, err)
		}
		windows = append(windows, window{name, from, time.Now()})
	}
	time.Sleep(300 * time.Millisecond) // steady-state load before the first transition
	transition("grow", func() error { return sys.AddProcessor(7, opTO) })
	transition("reweight", func() error { return sys.ResizeGroup(srvGroup, 4, opTO) })
	transition("drain", func() error { return sys.DrainProcessor(2, opTO) })
	time.Sleep(300 * time.Millisecond) // steady-state load after the last transition
	close(stop)
	<-driverDone

	// Zero hard failures: ErrOverloaded is retryable admission
	// backpressure and is excluded; everything else sent must have
	// landed.
	var sent, shed int
	for _, s := range samples {
		sent++
		if s.err == nil {
			continue
		}
		if errors.Is(s.err, immune.ErrOverloaded) {
			shed++
			continue
		}
		t.Errorf("invocation at %v failed hard: %v", s.start, s.err)
	}
	accepted := sent - shed
	if accepted == 0 {
		t.Fatal("no invocations accepted during the run")
	}

	// Bounded p99 per transition, measured over the calls issued while
	// that transition was in flight. The bound is a regression tripwire
	// with headroom for race-detector CI, not a latency target.
	const maxP99 = 5 * time.Second
	for _, w := range windows {
		var lats []time.Duration
		for _, s := range samples {
			if s.err == nil && !s.start.Before(w.from) && s.start.Before(w.to) {
				lats = append(lats, s.lat)
			}
		}
		if len(lats) == 0 {
			continue // transition faster than the pacing interval
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		t.Logf("%s: %d calls in flight, p99 %v", w.name, len(lats), p99)
		if p99 > maxP99 {
			t.Errorf("%s transition p99 %v exceeds %v", w.name, p99, maxP99)
		}
	}

	// Exactness across two state transfers (the reweight's catch-up and
	// the drain's migration): the voted counter equals the number of
	// accepted adds — nothing lost, nothing double-applied.
	body, err := obj.Invoke("get", nil)
	if err != nil {
		t.Fatalf("final get: %v", err)
	}
	got, err := immune.NewDecoder(body).ReadLongLong()
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(accepted) {
		t.Errorf("voted counter %d after %d accepted adds", got, accepted)
	}

	// The topology settled where the transitions put it: P7 in, P2 out,
	// the group at its new degree with every replica live.
	h := sys.Health()
	wantMembers := []immune.ProcessorID{1, 3, 4, 5, 6, 7}
	if len(h.Members) != len(wantMembers) {
		t.Fatalf("membership %v after drain, want %v", h.Members, wantMembers)
	}
	for i, m := range h.Members {
		if m != wantMembers[i] {
			t.Fatalf("membership %v after drain, want %v", h.Members, wantMembers)
		}
	}
	for _, g := range h.Groups {
		if g.Group == srvGroup {
			if g.Degree != 4 || g.Live != 4 || g.Degraded {
				t.Errorf("server group health %+v, want degree 4, live 4, not degraded", g)
			}
		}
	}
}
