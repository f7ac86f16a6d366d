package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/netsim"
	"immune/internal/sec"
	"immune/internal/transport"
)

// TestRingOfProperties pins the group→ring map: in range, deterministic,
// single-ring degenerate, and not collapsing every group onto one ring.
func TestRingOfProperties(t *testing.T) {
	for rings := 1; rings <= 8; rings++ {
		used := make(map[int]bool)
		for g := ids.ObjectGroupID(1); g <= 256; g++ {
			r := RingOf(g, rings)
			if r < 0 || r >= rings {
				t.Fatalf("RingOf(%d, %d) = %d out of range", g, rings, r)
			}
			if r2 := RingOf(g, rings); r2 != r {
				t.Fatalf("RingOf(%d, %d) unstable: %d then %d", g, rings, r, r2)
			}
			used[r] = true
		}
		if rings == 1 && (len(used) != 1 || !used[0]) {
			t.Fatalf("single ring must map everything to 0, used %v", used)
		}
		if len(used) != rings {
			t.Fatalf("256 groups over %d rings used only %d rings", rings, len(used))
		}
	}
}

// TestCrossRingInvocation is the sharding end-to-end check: a client
// group homed on ring 1 invokes a server group homed on ring 0, so every
// invocation and response must traverse the routing layer. The voted
// reply must come back correct and the cross-ring counter must move.
func TestCrossRingInvocation(t *testing.T) {
	const rings = 2
	// From RingOf: group 1 → ring 0, group 4 → ring 1.
	serverG := ids.ObjectGroupID(1)
	clientG := ids.ObjectGroupID(4)
	sys, err := NewSystem(Config{
		Processors:     6,
		Rings:          rings,
		Level:          sec.LevelDigests,
		Seed:           7,
		CallTimeout:    15 * time.Second,
		SuspectTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.RingOf(serverG) == sys.RingOf(clientG) {
		t.Fatalf("test groups must differ in home ring, both on %d", sys.RingOf(serverG))
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	for _, pid := range []ids.ProcessorID{1, 2, 3} {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.HostServer(serverG, kvKey, newKVServant())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatalf("server on %s: %v", pid, err)
		}
	}
	p4, err := sys.Processor(4)
	if err != nil {
		t.Fatal(err)
	}
	o, ic, h, err := p4.clientORB(clientG)
	if err != nil {
		t.Fatal(err)
	}
	ic.Bind(kvKey, serverG)
	if err := h.WaitActive(20 * time.Second); err != nil {
		t.Fatalf("client: %v", err)
	}

	ref := o.ObjRef(kvKey)
	for i := 0; i < 3; i++ {
		e := iiop.NewEncoder()
		e.WriteString(fmt.Sprintf("k%d", i))
		e.WriteString(fmt.Sprintf("v%d", i))
		if _, err := ref.Invoke("put", e.Bytes()); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	e := iiop.NewEncoder()
	e.WriteString("k1")
	body, err := ref.Invoke("get", e.Bytes())
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	got, err := iiop.NewDecoder(body).ReadString()
	if err != nil {
		t.Fatal(err)
	}
	if got != "v1" {
		t.Fatalf("voted get = %q, want %q", got, "v1")
	}

	snap := sys.Snapshot()
	if n := snap.Counter("core.cross_ring_routed"); n == 0 {
		t.Fatal("no invocations crossed rings — the test groups should be on different rings")
	}
	if n := snap.Counter("core.mirrors_sent"); n == 0 {
		t.Fatal("no membership mirrors sent — joins must be reflected to foreign rings")
	}
	if n := snap.Counter("core.mirror_dropped"); n != 0 {
		t.Fatalf("%d membership mirrors dropped under no load", n)
	}
	// Both rings must have carried real traffic.
	for r := 0; r < rings; r++ {
		if n := snap.Counter(fmt.Sprintf("r%d.ring.delivered", r)); n == 0 {
			t.Fatalf("ring %d delivered nothing", r)
		}
	}
}

// TestMultiRingDeterminism runs the identical sharded workload twice with
// the same seed and requires identical per-ring protocol counters: the
// simulator's randomness, key generation, and the group→ring map are all
// pure functions of (config, seed), so the message counts each ring
// carries must reproduce exactly.
func TestMultiRingDeterminism(t *testing.T) {
	run := func() map[string]uint64 {
		t.Helper()
		sys, err := NewSystem(Config{
			Processors:     4,
			Rings:          2,
			Level:          sec.LevelDigests,
			Seed:           99,
			CallTimeout:    20 * time.Second,
			SuspectTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		defer sys.Stop()

		// Group 1 is homed on ring 0, group 4 on ring 1; the client (group
		// 6, ring 1) invokes both, so one binding is ring-local and one
		// crosses rings.
		for _, g := range []ids.ObjectGroupID{1, 4} {
			for _, pid := range []ids.ProcessorID{1, 2, 3} {
				p, err := sys.Processor(pid)
				if err != nil {
					t.Fatal(err)
				}
				h, err := p.HostServer(g, fmt.Sprintf("kv/%d", g), newKVServant())
				if err != nil {
					t.Fatal(err)
				}
				if err := h.WaitActive(20 * time.Second); err != nil {
					t.Fatalf("server G%d on %s: %v", g, pid, err)
				}
			}
		}
		p4, err := sys.Processor(4)
		if err != nil {
			t.Fatal(err)
		}
		o, ic, h, err := p4.clientORB(ids.ObjectGroupID(6))
		if err != nil {
			t.Fatal(err)
		}
		ic.Bind("kv/1", 1)
		ic.Bind("kv/4", 4)
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			for _, key := range []string{"kv/1", "kv/4"} {
				e := iiop.NewEncoder()
				e.WriteString(fmt.Sprintf("k%d", i))
				e.WriteString(key)
				if _, err := o.ObjRef(key).Invoke("put", e.Bytes()); err != nil {
					t.Fatalf("put %d via %s: %v", i, key, err)
				}
			}
		}
		// Quiesce before sampling: the final responses may still be
		// propagating when the last invoke returns (the client needs only
		// a majority), and a snapshot cut mid-flight would vary run to
		// run. With a lossless network the totals at quiescence are a
		// pure function of the workload.
		ringTotal := func(s interface{ Counter(string) uint64 }) uint64 {
			var sum uint64
			for r := 0; r < 2; r++ {
				sum += s.Counter(fmt.Sprintf("r%d.ring.delivered", r))
			}
			return sum
		}
		stableSince, last := time.Now(), ringTotal(sys.Snapshot())
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			if now := ringTotal(sys.Snapshot()); now != last {
				stableSince, last = time.Now(), now
			} else if time.Since(stableSince) > 100*time.Millisecond {
				break
			}
		}
		snap := sys.Snapshot()
		sys.Stop()
		out := make(map[string]uint64)
		for r := 0; r < 2; r++ {
			for _, name := range []string{"ring.delivered", "ring.originated"} {
				full := fmt.Sprintf("r%d.%s", r, name)
				out[full] = snap.Counter(full)
			}
		}
		out["core.mirrors_sent"] = snap.Counter("core.mirrors_sent")
		out["core.cross_ring_routed"] = snap.Counter("core.cross_ring_routed")
		return out
	}

	first := run()
	second := run()
	for name, v := range first {
		if second[name] != v {
			t.Errorf("%s: run 1 = %d, run 2 = %d (same seed must reproduce per-ring counters)",
				name, v, second[name])
		}
	}
	for r := 0; r < 2; r++ {
		if first[fmt.Sprintf("r%d.ring.delivered", r)] == 0 {
			t.Errorf("ring %d carried no traffic; the workload should span both rings", r)
		}
	}
}

// closeCounter wraps an Endpoint and counts Close calls, to prove the
// lifecycle invariants: exactly one close per endpoint no matter how many
// Stops race, and no endpoint leaked by a failed NewSystem.
type closeCounter struct {
	transport.Endpoint
	closes atomic.Int32
}

func (c *closeCounter) Close() error {
	c.closes.Add(1)
	return c.Endpoint.Close()
}

// TestStopIdempotentConcurrent races many Stops (and a Stop-after-Stop)
// against a Transport-backed system: teardown must run exactly once, so
// each supplied endpoint sees exactly one Close from the system.
func TestStopIdempotentConcurrent(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 5})
	defer net.Close()
	var eps []*closeCounter
	var mu sync.Mutex
	sys, err := NewSystem(Config{
		Processors: 3,
		Rings:      2,
		Level:      sec.LevelNone,
		Seed:       5,
		Transport: func(p ids.ProcessorID, ring int) (transport.Endpoint, error) {
			// One simulated segment is enough here: ring isolation is not
			// under test, endpoint lifecycle is.
			inner, err := net.Attach(ids.ProcessorID(uint32(p) + uint32(ring)*100))
			if err != nil {
				return nil, err
			}
			cc := &closeCounter{Endpoint: inner}
			mu.Lock()
			eps = append(eps, cc)
			mu.Unlock()
			return cc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys.Stop()
		}()
	}
	wg.Wait()
	sys.Stop() // late second Stop must also be a no-op

	if len(eps) != 3*2 {
		t.Fatalf("transport built %d endpoints, want 6", len(eps))
	}
	for i, ep := range eps {
		if n := ep.closes.Load(); n != 1 {
			t.Errorf("endpoint %d closed %d times, want exactly 1", i, n)
		}
	}
}

// TestNewSystemFailureCleanup makes endpoint construction fail partway
// through: NewSystem must return the error and close every endpoint it
// had already created (nothing to Stop — no System is returned).
func TestNewSystemFailureCleanup(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 6})
	defer net.Close()
	var eps []*closeCounter
	calls := 0
	_, err := NewSystem(Config{
		Processors: 3,
		Rings:      2,
		Level:      sec.LevelNone,
		Seed:       6,
		Transport: func(p ids.ProcessorID, ring int) (transport.Endpoint, error) {
			calls++
			if calls == 4 {
				return nil, fmt.Errorf("synthetic endpoint failure")
			}
			inner, err := net.Attach(ids.ProcessorID(uint32(p) + uint32(ring)*100))
			if err != nil {
				return nil, err
			}
			cc := &closeCounter{Endpoint: inner}
			eps = append(eps, cc)
			return cc, nil
		},
	})
	if err == nil {
		t.Fatal("NewSystem must fail when the transport does")
	}
	if len(eps) != 3 {
		t.Fatalf("expected 3 endpoints before the failure, got %d", len(eps))
	}
	for i, ep := range eps {
		if n := ep.closes.Load(); n != 1 {
			t.Errorf("endpoint %d closed %d times after failed NewSystem, want exactly 1", i, n)
		}
	}
}
