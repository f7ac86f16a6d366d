package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/orb"
	"immune/internal/sec"
)

// kvServant is a deterministic replicated key-value store.
type kvServant struct {
	mu      sync.Mutex
	data    map[string]string
	corrupt bool
	execs   int
}

var _ orb.Servant = (*kvServant)(nil)

func newKVServant() *kvServant { return &kvServant{data: make(map[string]string)} }

func (s *kvServant) Invoke(op string, args []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.execs++
	d := iiop.NewDecoder(args)
	switch op {
	case "put":
		k, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		v, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		s.data[k] = v
		return nil, nil
	case "get":
		k, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		e := iiop.NewEncoder()
		if s.corrupt {
			e.WriteString("CORRUPT-" + k)
		} else {
			e.WriteString(s.data[k])
		}
		return e.Bytes(), nil
	default:
		return nil, fmt.Errorf("unknown op %q", op)
	}
}

func (s *kvServant) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := iiop.NewEncoder()
	e.WriteULong(uint32(len(s.data)))
	// Deterministic order.
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j-1] > keys[j]; j-- {
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
	for _, k := range keys {
		e.WriteString(k)
		e.WriteString(s.data[k])
	}
	return e.Bytes()
}

func (s *kvServant) Restore(snap []byte) error {
	d := iiop.NewDecoder(snap)
	n, err := d.ReadULong()
	if err != nil {
		return err
	}
	data := make(map[string]string, n)
	for i := uint32(0); i < n; i++ {
		k, err := d.ReadString()
		if err != nil {
			return err
		}
		v, err := d.ReadString()
		if err != nil {
			return err
		}
		data[k] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = data
	return nil
}

const (
	kvGroup     = ids.ObjectGroupID(100)
	clientGroup = ids.ObjectGroupID(200)
	kvKey       = "KVStore/main"
)

// deployment is a started system with a 3-way replicated KV server on
// P1-P3 and a 3-way replicated client on P4-P6 (paper testbed shape: six
// processors, three-way replication of client and server).
type deployment struct {
	sys      *System
	servants map[ids.ProcessorID]*kvServant
	orbs     map[ids.ProcessorID]*orb.ORB
	refs     map[ids.ProcessorID]*orb.ObjRef
}

func deploy(t *testing.T, level sec.Level) *deployment {
	t.Helper()
	sys, err := NewSystem(Config{
		Processors:     6,
		Level:          level,
		Seed:           42,
		CallTimeout:    15 * time.Second,
		SuspectTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	d := &deployment{
		sys:      sys,
		servants: make(map[ids.ProcessorID]*kvServant),
		orbs:     make(map[ids.ProcessorID]*orb.ORB),
		refs:     make(map[ids.ProcessorID]*orb.ObjRef),
	}
	for _, pid := range []ids.ProcessorID{1, 2, 3} {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		sv := newKVServant()
		d.servants[pid] = sv
		h, err := p.HostServer(kvGroup, kvKey, sv)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatalf("server on %s: %v", pid, err)
		}
	}
	for _, pid := range []ids.ProcessorID{4, 5, 6} {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		o, ic, h, err := p.clientORB(clientGroup)
		if err != nil {
			t.Fatal(err)
		}
		ic.Bind(kvKey, kvGroup)
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatalf("client on %s: %v", pid, err)
		}
		d.orbs[pid] = o
		d.refs[pid] = o.ObjRef(kvKey)
	}
	return d
}

// putAll performs the same put from every client replica (a deterministic
// replicated client) and waits for all to return.
func (d *deployment) putAll(t *testing.T, key, value string) {
	t.Helper()
	e := iiop.NewEncoder()
	e.WriteString(key)
	e.WriteString(value)
	args := e.Bytes()
	var wg sync.WaitGroup
	errs := make(map[ids.ProcessorID]error)
	var mu sync.Mutex
	for pid, ref := range d.refs {
		wg.Add(1)
		go func(pid ids.ProcessorID, ref *orb.ObjRef) {
			defer wg.Done()
			_, err := ref.Invoke("put", args)
			mu.Lock()
			errs[pid] = err
			mu.Unlock()
		}(pid, ref)
	}
	wg.Wait()
	for pid, err := range errs {
		if err != nil {
			t.Fatalf("put from %s: %v", pid, err)
		}
	}
}

// getAll performs the same get from every client replica and returns the
// values.
func (d *deployment) getAll(t *testing.T, key string) map[ids.ProcessorID]string {
	t.Helper()
	e := iiop.NewEncoder()
	e.WriteString(key)
	args := e.Bytes()
	out := make(map[ids.ProcessorID]string)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for pid, ref := range d.refs {
		wg.Add(1)
		go func(pid ids.ProcessorID, ref *orb.ObjRef) {
			defer wg.Done()
			body, err := ref.Invoke("get", args)
			if err != nil {
				t.Errorf("get from %s: %v", pid, err)
				return
			}
			v, err := iiop.NewDecoder(body).ReadString()
			if err != nil {
				t.Errorf("decode get reply from %s: %v", pid, err)
				return
			}
			mu.Lock()
			out[pid] = v
			mu.Unlock()
		}(pid, ref)
	}
	wg.Wait()
	return out
}

func TestEndToEndReplicatedKV(t *testing.T) {
	d := deploy(t, sec.LevelSignatures)
	d.putAll(t, "color", "green")
	got := d.getAll(t, "color")
	if len(got) != 3 {
		t.Fatalf("got %d replies", len(got))
	}
	for pid, v := range got {
		if v != "green" {
			t.Fatalf("client %s read %q", pid, v)
		}
	}
	// Replica consistency: all server states identical, each op executed
	// exactly once per replica.
	time.Sleep(50 * time.Millisecond)
	for pid, sv := range d.servants {
		sv.mu.Lock()
		if sv.data["color"] != "green" {
			t.Fatalf("servant on %s has %q", pid, sv.data["color"])
		}
		if sv.execs != 2 { // one put + one get
			t.Fatalf("servant on %s executed %d ops, want 2", pid, sv.execs)
		}
		sv.mu.Unlock()
	}
}

func TestValueFaultyServerReplicaIsExcluded(t *testing.T) {
	d := deploy(t, sec.LevelSignatures)
	d.putAll(t, "k", "truth")

	// Corrupt the server replica on P2: it now lies on reads.
	d.servants[2].mu.Lock()
	d.servants[2].corrupt = true
	d.servants[2].mu.Unlock()

	// Clients still read the correct value (input/output majority
	// voting, §6.1).
	for pid, v := range d.getAll(t, "k") {
		if v != "truth" {
			t.Fatalf("client %s read %q despite voting", pid, v)
		}
	}

	// The value fault detector identifies P2; the Byzantine fault
	// detector and membership protocol eventually exclude it (§6.2:
	// value fault handled as a malicious processor fault).
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		p1, _ := d.sys.Processor(1)
		excluded := true
		for _, m := range p1.View().Members {
			if m == 2 {
				excluded = false
			}
		}
		if excluded {
			return
		}
		// Keep generating traffic so votes keep flowing.
		d.getAll(t, "k")
		time.Sleep(20 * time.Millisecond)
	}
	p1, _ := d.sys.Processor(1)
	t.Fatalf("P2 never excluded; view %v suspects %v", p1.View().Members, p1.Suspects())
}

func TestCrashedProcessorExcludedAndServiceContinues(t *testing.T) {
	d := deploy(t, sec.LevelSignatures)
	d.putAll(t, "a", "1")

	// Crash a server-hosting processor.
	d.sys.CrashProcessor(3)

	// Survivable: remaining replicas keep serving after the membership
	// change removes P3 (2 of 3 replicas is still a majority quorum for
	// a 2-member group after exclusion).
	deadline := time.Now().Add(20 * time.Second)
	var lastView []ids.ProcessorID
	for time.Now().Before(deadline) {
		p1, _ := d.sys.Processor(1)
		lastView = p1.View().Members
		if len(lastView) == 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(lastView) != 5 {
		t.Fatalf("membership never reconfigured: %v", lastView)
	}

	d.putAll(t, "b", "2")
	for pid, v := range d.getAll(t, "b") {
		if v != "2" {
			t.Fatalf("client %s read %q after crash recovery", pid, v)
		}
	}
	// The object group no longer lists the crashed processor's replica.
	p1, _ := d.sys.Processor(1)
	for _, r := range p1.GroupMembers(kvGroup) {
		if r.Processor == 3 {
			t.Fatalf("crashed processor's replica still in group: %v", p1.GroupMembers(kvGroup))
		}
	}
}

func TestReplicaReallocationAfterCrash(t *testing.T) {
	d := deploy(t, sec.LevelSignatures)
	d.putAll(t, "persist", "yes")

	d.sys.CrashProcessor(1)
	// Wait for exclusion.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		p2, _ := d.sys.Processor(2)
		if len(p2.View().Members) == 5 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Reallocate the lost replica to P4 (§3.1: "replicas that are lost
	// due to a Byzantine processor must be reallocated to correct
	// processors"). State transfers from the survivors.
	p4, _ := d.sys.Processor(4)
	sv := newKVServant()
	h, err := p4.HostServer(kvGroup, kvKey, sv)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.WaitActive(20 * time.Second); err != nil {
		t.Fatalf("reallocated replica: %v", err)
	}
	sv.mu.Lock()
	got := sv.data["persist"]
	sv.mu.Unlock()
	if got != "yes" {
		t.Fatalf("reallocated replica state %q, want %q", got, "yes")
	}

	// Degree restored to 3; service works.
	p2, _ := d.sys.Processor(2)
	if n := len(p2.GroupMembers(kvGroup)); n != 3 {
		t.Fatalf("group degree %d after reallocation, want 3", n)
	}
	d.putAll(t, "post", "realloc")
	for pid, v := range d.getAll(t, "post") {
		if v != "realloc" {
			t.Fatalf("client %s read %q", pid, v)
		}
	}
}

// TestHostGroupRollsBackOnPartialFailure: if hosting fails partway (one
// of the chosen processors cannot take its replica), the spec, the
// recovery registration, and the replicas already placed must all be
// rolled back so the group can be hosted again.
func TestHostGroupRollsBackOnPartialFailure(t *testing.T) {
	sys, err := NewSystem(Config{Processors: 4, Level: sec.LevelNone, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	const g = ids.ObjectGroupID(30)
	const key = "KV/rollback"

	// Pre-host a replica of g on P3 so HostGroup's third placement (default
	// hosts P1-P3) fails with "already hosting".
	p3, _ := sys.Processor(3)
	pre, err := p3.HostServer(g, key, newKVServant())
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.HostGroup(g, key, 3, func() orb.Servant { return newKVServant() }); err == nil {
		t.Fatal("partial HostGroup reported success")
	}

	// The spec and recovery registration are gone.
	for _, gh := range sys.Health().Groups {
		if gh.Group == g && gh.Managed {
			t.Fatalf("rolled-back group still managed: %+v", gh)
		}
	}
	// The replicas placed on P1 and P2 are evicted; only the pre-hosted
	// replica on P3 remains.
	p1, _ := sys.Processor(1)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		ms := p1.GroupMembers(g)
		if len(ms) == 1 && ms[0].Processor == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ms := p1.GroupMembers(g); len(ms) != 1 || ms[0].Processor != 3 {
		t.Fatalf("placed replicas not rolled back: %v", ms)
	}

	// With the stray replica removed, hosting the group again succeeds —
	// a retry is not blocked by a half-committed first attempt.
	if err := p3.mgrs[0].EvictReplica(ids.ReplicaID{Group: g, Processor: 3}); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) && len(p1.GroupMembers(g)) != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	handles, err := sys.HostGroup(g, key, 3, func() orb.Servant { return newKVServant() })
	if err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	for i, h := range handles {
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatalf("retried replica %d: %v", i, err)
		}
	}
}

func TestSurvivabilityArithmetic(t *testing.T) {
	for n, k := range map[int]int{1: 0, 3: 0, 4: 1, 6: 1, 7: 2, 10: 3} {
		if got := MaxFaulty(n); got != k {
			t.Errorf("MaxFaulty(%d) = %d, want %d", n, got, k)
		}
	}
	for r, c := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3} {
		if got := MinCorrectReplicas(r); got != c {
			t.Errorf("MinCorrectReplicas(%d) = %d, want %d", r, got, c)
		}
	}
	if MaxFaulty(0) != 0 {
		t.Error("MaxFaulty(0) != 0")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSystem(Config{Processors: 0}); err == nil {
		t.Fatal("zero processors accepted")
	}
	sys, err := NewSystem(Config{Processors: 2, Level: sec.LevelNone})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	if _, err := sys.Processor(99); err == nil {
		t.Fatal("unknown processor returned")
	}
	if got := len(sys.Processors()); got != 2 {
		t.Fatalf("Processors() len %d", got)
	}
}

func TestLowerSurvivabilityLevelsWork(t *testing.T) {
	// Case 2/3 configurations (no signatures) must still provide
	// replication and voting.
	for _, level := range []sec.Level{sec.LevelNone, sec.LevelDigests} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			d := deploy(t, level)
			d.putAll(t, "x", "y")
			for pid, v := range d.getAll(t, "x") {
				if v != "y" {
					t.Fatalf("client %s read %q", pid, v)
				}
			}
		})
	}
}
