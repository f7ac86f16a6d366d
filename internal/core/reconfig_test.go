package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/orb"
	"immune/internal/sec"
)

// reconfigDeploy builds a started n-processor system with a degree-3 KV
// group on P1-P3 and a singleton client on the highest processor, tuned
// for fast membership convergence.
type reconfigDeploy struct {
	sys *System
	ref *orb.ObjRef
}

func deployReconfig(t *testing.T, n int, level sec.Level) *reconfigDeploy {
	t.Helper()
	sys, err := NewSystem(Config{
		Processors:     n,
		Level:          level,
		Seed:           77,
		CallTimeout:    15 * time.Second,
		SuspectTimeout: 250 * time.Millisecond,
		InvokeRetries:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)
	if _, err := sys.HostGroup(kvGroup, kvKey, 3, func() orb.Servant { return newKVServant() }); err != nil {
		t.Fatal(err)
	}
	if err := sys.WaitGroupActive(kvGroup, 3, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	client := ids.ProcessorID(n)
	p, err := sys.Processor(client)
	if err != nil {
		t.Fatal(err)
	}
	o, ic, h, err := p.clientORB(clientGroup)
	if err != nil {
		t.Fatal(err)
	}
	ic.Bind(kvKey, kvGroup)
	if err := h.WaitActive(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	return &reconfigDeploy{sys: sys, ref: o.ObjRef(kvKey)}
}

func (d *reconfigDeploy) put(t *testing.T, k, v string) {
	t.Helper()
	e := iiop.NewEncoder()
	e.WriteString(k)
	e.WriteString(v)
	if _, err := d.ref.Invoke("put", e.Bytes()); err != nil {
		t.Fatalf("put %s=%s: %v", k, v, err)
	}
}

func (d *reconfigDeploy) get(t *testing.T, k string) string {
	t.Helper()
	e := iiop.NewEncoder()
	e.WriteString(k)
	body, err := d.ref.Invoke("get", e.Bytes())
	if err != nil {
		t.Fatalf("get %s: %v", k, err)
	}
	v, err := iiop.NewDecoder(body).ReadString()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// kvHosts returns the processors hosting the KV group, per the
// authoritative directory.
func kvHosts(sys *System) map[ids.ProcessorID]bool {
	hosts := make(map[ids.ProcessorID]bool)
	r := sys.RingOf(kvGroup)
	ref := sys.reference(r)
	if ref == nil {
		return hosts
	}
	for _, m := range ref.mgrs[r].Directory().Members(kvGroup) {
		hosts[m.Processor] = true
	}
	return hosts
}

func TestAddProcessorJoinsRunningSystem(t *testing.T) {
	d := deployReconfig(t, 4, sec.LevelSignatures)
	d.put(t, "color", "green")

	if err := d.sys.AddProcessor(5, 20*time.Second); err != nil {
		t.Fatalf("AddProcessor: %v", err)
	}
	// Every survivor's view converges on the five-member ring.
	waitViews(t, d.sys, []ids.ProcessorID{1, 2, 3, 4, 5}, 10*time.Second)
	if got := d.sys.MaxFaulty(); got != 1 {
		t.Fatalf("MaxFaulty after growth = %d, want 1", got)
	}

	// The joiner is a first-class placement target: growing the group to
	// degree 4 must land the new replica on it (P5 is the least loaded).
	if err := d.sys.ResizeGroup(kvGroup, 4, 20*time.Second); err != nil {
		t.Fatalf("ResizeGroup: %v", err)
	}
	if hosts := kvHosts(d.sys); !hosts[5] || len(hosts) != 4 {
		t.Fatalf("hosts after grow = %v, want P5 among 4", hosts)
	}
	// The new replica received the pre-join state by state transfer.
	d.put(t, "shape", "round")
	if v := d.get(t, "color"); v != "green" {
		t.Fatalf("read %q after growth", v)
	}
}

func TestDrainProcessorMigratesAndExcises(t *testing.T) {
	d := deployReconfig(t, 5, sec.LevelNone)
	d.put(t, "a", "1")

	if err := d.sys.DrainProcessor(2, 20*time.Second); err != nil {
		t.Fatalf("DrainProcessor: %v", err)
	}
	hosts := kvHosts(d.sys)
	if hosts[2] {
		t.Fatalf("drained P2 still hosts the group: %v", hosts)
	}
	if len(hosts) != 3 {
		t.Fatalf("group degree %d after drain, want 3 (migrated, not lost)", len(hosts))
	}
	// The drained processor stays listed (inert), and no survivor is
	// listed twice: the processor order and the membership list are
	// separate lists.
	if got := d.sys.Processors(); !slices.Equal(got, []ids.ProcessorID{1, 2, 3, 4, 5}) {
		t.Fatalf("Processors() = %v after draining P2, want [P1..P5]", got)
	}
	waitViews(t, d.sys, []ids.ProcessorID{1, 3, 4, 5}, 10*time.Second)

	// The departure charged no suspicion strikes: survivors list no
	// suspects.
	for _, pid := range []ids.ProcessorID{1, 3} {
		p, err := d.sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		if sus := p.Suspects(); len(sus) != 0 {
			t.Fatalf("survivor %s suspects %v after a voluntary drain", pid, sus)
		}
	}

	// Invocations keep flowing, and pre-drain state survived the
	// migration.
	if v := d.get(t, "a"); v != "1" {
		t.Fatalf("read %q after drain", v)
	}
	d.put(t, "b", "2")
	if v := d.get(t, "b"); v != "2" {
		t.Fatalf("read %q after post-drain put", v)
	}
}

func TestDrainedProcessorRejoins(t *testing.T) {
	d := deployReconfig(t, 5, sec.LevelNone)
	if err := d.sys.DrainProcessor(3, 20*time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	waitViews(t, d.sys, []ids.ProcessorID{1, 2, 4, 5}, 10*time.Second)

	// Re-admission in place: the drained processor comes back as a fresh
	// member and is a placement target again.
	if err := d.sys.AddProcessor(3, 20*time.Second); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	waitViews(t, d.sys, []ids.ProcessorID{1, 2, 3, 4, 5}, 10*time.Second)
	if !(clusterAdapter{s: d.sys}).Ready(3) {
		t.Fatal("rejoined P3 not ready")
	}
	d.put(t, "x", "y")
	if v := d.get(t, "x"); v != "y" {
		t.Fatalf("read %q after rejoin", v)
	}
}

// TestResizeSkipsProcessorOutsideView: a crashed processor the survivors
// have excluded is no placement target, though its own stacks still run,
// its managers stay synced and it hosts nothing (the least load). Growing
// the group lands on a survivor, which every survivor's directory shows.
func TestResizeSkipsProcessorOutsideView(t *testing.T) {
	d := deployReconfig(t, 5, sec.LevelNone) // group on P1-P3, client on P5
	d.sys.CrashProcessor(4)
	waitViews(t, d.sys, []ids.ProcessorID{1, 2, 3, 5}, 20*time.Second)

	if err := d.sys.ResizeGroup(kvGroup, 4, 20*time.Second); err != nil {
		t.Fatalf("ResizeGroup: %v", err)
	}
	p1, err := d.sys.Processor(1)
	if err != nil {
		t.Fatal(err)
	}
	var hosts []ids.ProcessorID
	for _, m := range p1.GroupMembers(kvGroup) {
		hosts = append(hosts, m.Processor)
	}
	if !slices.Equal(hosts, []ids.ProcessorID{1, 2, 3, 5}) {
		t.Fatalf("P1's directory lists hosts %v after growing to 4, want [P1 P2 P3 P5]", hosts)
	}
}

func TestResizeShrinkFencedByQuorum(t *testing.T) {
	d := deployReconfig(t, 5, sec.LevelNone)
	if err := d.sys.ResizeGroup(kvGroup, 5, 20*time.Second); err != nil {
		t.Fatalf("grow to 5: %v", err)
	}
	d.put(t, "k", "v")

	// 5 live replicas: quorum floor is 3, so 2 must be rejected.
	if err := d.sys.ResizeGroup(kvGroup, 2, 20*time.Second); err == nil {
		t.Fatal("shrink to 2 of 5 live accepted; want quorum-fence rejection")
	}
	if hosts := kvHosts(d.sys); len(hosts) != 5 {
		t.Fatalf("rejected shrink changed the group: %v", hosts)
	}
	if err := d.sys.ResizeGroup(kvGroup, 3, 20*time.Second); err != nil {
		t.Fatalf("shrink to 3: %v", err)
	}
	if hosts := kvHosts(d.sys); len(hosts) != 3 {
		t.Fatalf("group at %v after shrink to 3", hosts)
	}
	// The shrunken group is healthy, not degraded: its high-water degree
	// followed the deliberate change.
	r := d.sys.RingOf(kvGroup)
	if ref := d.sys.reference(r); ref != nil {
		if hw := ref.mgrs[r].GroupDegreeHW(kvGroup); hw != 3 {
			t.Fatalf("degree high-water %d after shrink, want 3", hw)
		}
	}
	if v := d.get(t, "k"); v != "v" {
		t.Fatalf("read %q after shrink", v)
	}
}

// TestConcurrentDrainsCannotBreakQuorum drains two of a spec-less
// degree-3 group's three hosts concurrently. Exactly one drain may pass
// the quorum fence (a second eviction would leave 1 < 2 replicas); the
// loser must abort and revert its processor to normal service.
func TestConcurrentDrainsCannotBreakQuorum(t *testing.T) {
	sys, err := NewSystem(Config{
		Processors:     5,
		Level:          sec.LevelNone,
		Seed:           78,
		SuspectTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	t.Cleanup(sys.Stop)

	// Spec-less group: hosted directly, so a drain can only excise its
	// replicas, never migrate them.
	g := ids.ObjectGroupID(300)
	for _, pid := range []ids.ProcessorID{1, 2, 3} {
		p, err := sys.Processor(pid)
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.HostServer(g, "fenced/store", newKVServant())
		if err != nil {
			t.Fatal(err)
		}
		if err := h.WaitActive(20 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, pid := range []ids.ProcessorID{2, 3} {
		wg.Add(1)
		go func(i int, pid ids.ProcessorID) {
			defer wg.Done()
			errs[i] = sys.DrainProcessor(pid, 20*time.Second)
		}(i, pid)
	}
	wg.Wait()

	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		}
	}
	if okCount != 1 {
		t.Fatalf("%d of 2 concurrent drains succeeded (errs=%v), want exactly 1", okCount, errs)
	}
	r := sys.RingOf(g)
	ref := sys.reference(r)
	if ref == nil {
		t.Fatal("no synced reference after drains")
	}
	if size := ref.mgrs[r].Directory().Size(g); size != 2 {
		t.Fatalf("group at %d replicas after concurrent drains, want 2 (quorum held)", size)
	}
}

// waitViews blocks until every listed (non-drained) processor's view on
// every ring is exactly want.
func waitViews(t *testing.T, sys *System, want []ids.ProcessorID, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, pid := range want {
			p, err := sys.Processor(pid)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < sys.Rings(); r++ {
				got := p.stacks[r].View().Members
				if len(got) != len(want) {
					ok = false
					break
				}
				for i := range got {
					if got[i] != want[i] {
						ok = false
						break
					}
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			var views []membershipView
			for _, pid := range want {
				p, _ := sys.Processor(pid)
				views = append(views, membershipView{pid, p.View().Members})
			}
			t.Fatalf("views did not converge on %v: %+v", want, views)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type membershipView struct {
	P       ids.ProcessorID
	Members []ids.ProcessorID
}
