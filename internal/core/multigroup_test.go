package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/sec"
)

// TestMultipleObjectGroupsCoexist runs two independent replicated services
// plus their clients on one six-processor system — replicas of different
// objects sharing processors (§3.1: "replicas of different objects may
// coexist on the same processor") — and checks isolation and consistency.
func TestMultipleObjectGroupsCoexist(t *testing.T) {
	sys, err := NewSystem(Config{
		Processors:  6,
		Level:       sec.LevelSignatures,
		Seed:        55,
		CallTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	const (
		kvA     = ids.ObjectGroupID(10)
		kvB     = ids.ObjectGroupID(11)
		clientA = ids.ObjectGroupID(20)
		clientB = ids.ObjectGroupID(21)
		keyA    = "KV/a"
		keyB    = "KV/b"
	)

	// Service A on P1-P3, service B on P2-P4: overlapping hosts.
	servantsA := map[ids.ProcessorID]*kvServant{}
	servantsB := map[ids.ProcessorID]*kvServant{}
	for _, pid := range []ids.ProcessorID{1, 2, 3} {
		p, _ := sys.Processor(pid)
		sv := newKVServant()
		servantsA[pid] = sv
		h, err := p.HostServer(kvA, keyA, sv)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, pid := range []ids.ProcessorID{2, 3, 4} {
		p, _ := sys.Processor(pid)
		sv := newKVServant()
		servantsB[pid] = sv
		h, err := p.HostServer(kvB, keyB, sv)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// Client groups on P4-P6 and P5-P6+P1.
	type cli struct {
		ref interface {
			Invoke(op string, args []byte) ([]byte, error)
		}
	}
	mkClients := func(group ids.ObjectGroupID, key string, target ids.ObjectGroupID, pids []ids.ProcessorID) []*cli {
		var out []*cli
		for _, pid := range pids {
			p, _ := sys.Processor(pid)
			o, ic, h, err := p.clientORB(group)
			if err != nil {
				t.Fatal(err)
			}
			ic.Bind(key, target)
			if err := h.WaitActive(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			out = append(out, &cli{ref: o.ObjRef(key)})
		}
		return out
	}
	clientsA := mkClients(clientA, keyA, kvA, []ids.ProcessorID{4, 5, 6})
	clientsB := mkClients(clientB, keyB, kvB, []ids.ProcessorID{1, 5, 6})

	put := func(clients []*cli, k, v string) {
		e := iiop.NewEncoder()
		e.WriteString(k)
		e.WriteString(v)
		var wg sync.WaitGroup
		errs := make([]error, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *cli) {
				defer wg.Done()
				_, errs[i] = c.ref.Invoke("put", e.Bytes())
			}(i, c)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
	}

	// Interleave traffic to both services concurrently.
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		round := round
		wg.Add(2)
		go func() {
			defer wg.Done()
			put(clientsA, fmt.Sprintf("a%d", round), "valueA")
		}()
		go func() {
			defer wg.Done()
			put(clientsB, fmt.Sprintf("b%d", round), "valueB")
		}()
		wg.Wait()
	}

	time.Sleep(50 * time.Millisecond)
	// Isolation: service A's replicas saw only A keys, B's only B keys,
	// and replicas within each service agree exactly.
	for pid, sv := range servantsA {
		sv.mu.Lock()
		if len(sv.data) != 3 {
			t.Fatalf("A replica on %s has %d keys", pid, len(sv.data))
		}
		for k := range sv.data {
			if k[0] != 'a' {
				t.Fatalf("A replica on %s contaminated with key %q", pid, k)
			}
		}
		sv.mu.Unlock()
	}
	for pid, sv := range servantsB {
		sv.mu.Lock()
		if len(sv.data) != 3 {
			t.Fatalf("B replica on %s has %d keys", pid, len(sv.data))
		}
		for k := range sv.data {
			if k[0] != 'b' {
				t.Fatalf("B replica on %s contaminated with key %q", pid, k)
			}
		}
		sv.mu.Unlock()
	}
}

// TestNetworkLatencyTolerated runs the end-to-end path over a LAN with
// per-frame latency and jitter, as on real Ethernet.
func TestNetworkLatencyTolerated(t *testing.T) {
	sys, err := NewSystem(Config{
		Processors:  4,
		Level:       sec.LevelDigests,
		Seed:        66,
		NetLatency:  200 * time.Microsecond,
		NetJitter:   100 * time.Microsecond,
		CallTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	p1, _ := sys.Processor(1)
	sv := newKVServant()
	h, err := p1.HostServer(50, "kv", sv)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	p2, _ := sys.Processor(2)
	o, ic, ch, err := p2.clientORB(60)
	if err != nil {
		t.Fatal(err)
	}
	ic.Bind("kv", 50)
	if err := ch.WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	e := iiop.NewEncoder()
	e.WriteString("k")
	e.WriteString("v")
	if _, err := o.ObjRef("kv").Invoke("put", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	g := iiop.NewEncoder()
	g.WriteString("k")
	body, err := o.ObjRef("kv").Invoke("get", g.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v, err := iiop.NewDecoder(body).ReadString()
	if err != nil || v != "v" {
		t.Fatalf("read %q, %v", v, err)
	}
}
