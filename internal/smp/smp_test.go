package smp

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"immune/internal/detector"
	"immune/internal/ids"
	"immune/internal/membership"
	"immune/internal/netsim"
	"immune/internal/obs"
	"immune/internal/ring"
	"immune/internal/sec"
)

// stackUnderTest bundles one stack with its recorded output.
type stackUnderTest struct {
	id    ids.ProcessorID
	stack *Stack
	reg   *obs.Registry // this stack's own smp.* / ring.* counters

	mu       sync.Mutex
	deliv    []Delivery
	installs []membership.Install
}

func (s *stackUnderTest) deliveredCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.deliv)
}

func (s *stackUnderTest) deliveredSnapshot() []Delivery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Delivery(nil), s.deliv...)
}

func (s *stackUnderTest) installsSnapshot() []membership.Install {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]membership.Install(nil), s.installs...)
}

// testCluster wires up n stacks over a netsim network.
type testCluster struct {
	t      *testing.T
	net    *netsim.Network
	stacks []*stackUnderTest
}

func newTestCluster(t *testing.T, n int, level sec.Level, netCfg netsim.Config) *testCluster {
	t.Helper()
	nw := netsim.New(netCfg)
	members := make([]ids.ProcessorID, n)
	for i := range members {
		members[i] = ids.ProcessorID(i + 1)
	}
	keyRing := sec.NewKeyRing()
	keys := make(map[ids.ProcessorID]*sec.KeyPair, n)
	if level >= sec.LevelSignatures {
		for _, p := range members {
			kp, err := sec.GenerateKeyPair(sec.DefaultModulusBits, sec.NewSeededReader(uint64(p)*31+7))
			if err != nil {
				t.Fatal(err)
			}
			keys[p] = kp
			keyRing.Register(p, kp.Public())
		}
	}
	c := &testCluster{t: t, net: nw}
	for _, p := range members {
		ep, err := nw.Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := sec.NewSuite(level, p, keys[p], keyRing)
		if err != nil {
			t.Fatal(err)
		}
		sut := &stackUnderTest{id: p, reg: obs.NewRegistry()}
		st, err := New(Config{
			Self:     p,
			Members:  members,
			Suite:    suite,
			Endpoint: ep,
			Ring:     ring.Knobs{IdleDelay: 100 * time.Microsecond},
			Detector: detector.Knobs{SuspectTimeout: 25 * time.Millisecond},
			Metrics:  MetricsFrom(sut.reg, ""),
			Deliver: func(d Delivery) {
				sut.mu.Lock()
				defer sut.mu.Unlock()
				sut.deliv = append(sut.deliv, d)
			},
			OnMembershipChange: func(in membership.Install) {
				sut.mu.Lock()
				defer sut.mu.Unlock()
				sut.installs = append(sut.installs, in)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sut.stack = st
		c.stacks = append(c.stacks, sut)
	}
	return c
}

func (c *testCluster) start() {
	for _, s := range c.stacks {
		s.stack.Start()
	}
}

func (c *testCluster) stop() {
	for _, s := range c.stacks {
		s.stack.Stop()
	}
	c.net.Close()
}

// waitDelivered waits until each stack in idx has delivered at least want.
func (c *testCluster) waitDelivered(want int, timeout time.Duration, idx ...int) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, i := range idx {
			if c.stacks[i].deliveredCount() < want {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// checkAgreement verifies identical delivery prefixes among stacks in idx.
func (c *testCluster) checkAgreement(idx ...int) {
	c.t.Helper()
	var logs [][]Delivery
	for _, i := range idx {
		logs = append(logs, c.stacks[i].deliveredSnapshot())
	}
	for i := 1; i < len(logs); i++ {
		a, b := logs[0], logs[i]
		min := len(a)
		if len(b) < min {
			min = len(b)
		}
		for j := 0; j < min; j++ {
			if a[j].Ring != b[j].Ring || a[j].Seq != b[j].Seq ||
				string(a[j].Payload) != string(b[j].Payload) {
				c.t.Fatalf("stacks %d and %d disagree at %d: %+v vs %+v",
					idx[0], idx[i], j, a[j], b[j])
			}
		}
	}
}

func TestStackTotalOrder(t *testing.T) {
	for _, level := range []sec.Level{sec.LevelNone, sec.LevelSignatures} {
		level := level
		t.Run(level.String(), func(t *testing.T) {
			c := newTestCluster(t, 3, level, netsim.Config{})
			c.start()
			defer c.stop()

			const perNode = 10
			for i, s := range c.stacks {
				for k := 0; k < perNode; k++ {
					if err := s.stack.Submit([]byte(fmt.Sprintf("m-%d-%d", i, k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !c.waitDelivered(perNode*3, 10*time.Second, 0, 1, 2) {
				for _, s := range c.stacks {
					t.Logf("stack %s delivered %d stats\n%s", s.id, s.deliveredCount(), s.reg.Snapshot())
				}
				t.Fatal("deliveries incomplete")
			}
			c.checkAgreement(0, 1, 2)
		})
	}
}

func TestCrashTriggersMembershipChange(t *testing.T) {
	c := newTestCluster(t, 4, sec.LevelSignatures, netsim.Config{})
	c.start()
	defer c.stop()

	// Initial traffic to get the rotation going.
	c.stacks[0].stack.Submit([]byte("before"))
	if !c.waitDelivered(1, 5*time.Second, 0, 1, 2, 3) {
		t.Fatal("no initial delivery")
	}

	// Crash P4 (index 3): it drops off the LAN.
	c.net.Detach(4)

	// Survivors must reconfigure and keep delivering.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.stacks[0].stack.Installs() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if c.stacks[0].stack.Installs() == 0 {
		t.Fatalf("no membership change after crash; suspects=%v", c.stacks[0].stack.Suspects())
	}

	for _, i := range []int{0, 1, 2} {
		c.stacks[i].stack.Submit([]byte(fmt.Sprintf("after-%d", i)))
	}
	if !c.waitDelivered(4, 10*time.Second, 0, 1, 2) {
		for _, i := range []int{0, 1, 2} {
			s := c.stacks[i]
			t.Logf("stack %s delivered %d view %+v suspects %v",
				s.id, s.deliveredCount(), s.stack.View(), s.stack.Suspects())
		}
		t.Fatal("no delivery after membership change")
	}
	c.checkAgreement(0, 1, 2)

	// The installed view excludes the crashed processor everywhere.
	for _, i := range []int{0, 1, 2} {
		v := c.stacks[i].stack.View()
		for _, m := range v.Members {
			if m == 4 {
				t.Fatalf("stack %d still has P4 in view %v", i, v.Members)
			}
		}
	}
}

func TestMembershipChangeNotificationOrdered(t *testing.T) {
	c := newTestCluster(t, 3, sec.LevelNone, netsim.Config{})
	c.start()
	defer c.stop()

	c.stacks[0].stack.Submit([]byte("x"))
	if !c.waitDelivered(1, 5*time.Second, 0, 1, 2) {
		t.Fatal("no delivery")
	}
	c.net.Detach(3)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.stacks[0].installsSnapshot()) > 0 && len(c.stacks[1].installsSnapshot()) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	in0 := c.stacks[0].installsSnapshot()
	in1 := c.stacks[1].installsSnapshot()
	if len(in0) == 0 || len(in1) == 0 {
		t.Fatal("membership change not notified")
	}
	if in0[0].ID != in1[0].ID || !sameMembers(in0[0].Members, in1[0].Members) {
		t.Fatalf("divergent installs: %+v vs %+v", in0[0], in1[0])
	}
}

func sameMembers(a, b []ids.ProcessorID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestValueFaultSuspectTriggersExclusion(t *testing.T) {
	c := newTestCluster(t, 4, sec.LevelSignatures, netsim.Config{})
	c.start()
	defer c.stop()

	c.stacks[0].stack.Submit([]byte("warmup"))
	if !c.waitDelivered(1, 5*time.Second, 0, 1, 2, 3) {
		t.Fatal("no warmup delivery")
	}

	// The Replication Managers on P1..P3 all conclude (via value-fault
	// voting, simulated here) that P4 hosts a corrupt replica.
	for _, i := range []int{0, 1, 2} {
		c.stacks[i].stack.ValueFaultSuspect(4)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v := c.stacks[0].stack.View()
		if len(v.Members) == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	v := c.stacks[0].stack.View()
	if len(v.Members) != 3 {
		t.Fatalf("corrupt processor not excluded: view %v", v.Members)
	}
	for _, m := range v.Members {
		if m == 4 {
			t.Fatalf("P4 still in view %v", v.Members)
		}
	}

	// Excluded stack refuses submissions once it learns of exclusion.
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := c.stacks[3].stack.Submit([]byte("zombie")); err != nil {
			return // expected path
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Log("note: excluded stack never observed its exclusion (acceptable: it is partitioned from the quorum's new ring)")
}

func TestDeliveryUnderLossWithReconfiguration(t *testing.T) {
	plan := netsim.NewProbabilistic(4321, 0.10, 0, 0, 0)
	c := newTestCluster(t, 4, sec.LevelSignatures, netsim.Config{Plan: plan, Seed: 5})
	c.start()
	defer c.stop()

	const perNode = 8
	for i, s := range c.stacks {
		for k := 0; k < perNode; k++ {
			s.stack.Submit([]byte(fmt.Sprintf("l-%d-%d", i, k)))
		}
	}
	if !c.waitDelivered(perNode*4, 30*time.Second, 0, 1, 2, 3) {
		for _, s := range c.stacks {
			t.Logf("stack %s delivered %d suspects %v stats\n%s",
				s.id, s.deliveredCount(), s.stack.Suspects(), s.reg.Snapshot())
		}
		t.Fatal("lossy delivery incomplete")
	}
	c.checkAgreement(0, 1, 2, 3)
}

func TestConfigValidation(t *testing.T) {
	nw := netsim.New(netsim.Config{})
	defer nw.Close()
	ep, err := nw.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := sec.NewSuite(sec.LevelNone, 1, nil, nil)
	good := Config{
		Self: 1, Members: []ids.ProcessorID{1, 2}, Suite: suite,
		Endpoint: ep, Deliver: func(Delivery) {},
	}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"nil deliver":  func(c *Config) { c.Deliver = nil },
		"nil endpoint": func(c *Config) { c.Endpoint = nil },
		"nil suite":    func(c *Config) { c.Suite = nil },
		"no members":   func(c *Config) { c.Members = nil },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
