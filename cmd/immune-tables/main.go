// Command immune-tables verifies, on live in-process deployments, the
// protocol properties the paper states in Tables 2, 4 and 5: message
// delivery (Integrity, Authentication, Uniqueness, Reliable Delivery,
// Total Order), processor membership (Uniqueness, Self-Inclusion, Total
// Order, Eventual Exclusion), and the Byzantine fault detector (Eventual
// Strong Byzantine Completeness and Accuracy). Each property is exercised
// by an adversarial or faulty run and judged from observed delivery and
// membership logs.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"immune/internal/detector"
	"immune/internal/ids"
	"immune/internal/membership"
	"immune/internal/netsim"
	"immune/internal/sec"
	"immune/internal/smp"
	"immune/internal/wire"
)

// node is one processor's stack plus its observation logs.
type node struct {
	id    ids.ProcessorID
	stack *smp.Stack

	mu       sync.Mutex
	deliv    []smp.Delivery
	installs []membership.Install
}

func (n *node) log() []smp.Delivery {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]smp.Delivery(nil), n.deliv...)
}

func (n *node) installed() []membership.Install {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]membership.Install(nil), n.installs...)
}

// cluster spins up n processors at the given level over the given plan.
type cluster struct {
	net   *netsim.Network
	nodes []*node
}

func newCluster(n int, level sec.Level, plan netsim.FaultPlan, seed uint64) (*cluster, error) {
	nw := netsim.New(netsim.Config{Plan: plan, Seed: seed})
	members := make([]ids.ProcessorID, n)
	for i := range members {
		members[i] = ids.ProcessorID(i + 1)
	}
	keyRing := sec.NewKeyRing()
	keys := make(map[ids.ProcessorID]*sec.KeyPair)
	if level >= sec.LevelSignatures {
		for _, p := range members {
			kp, err := sec.GenerateKeyPair(sec.DefaultModulusBits, sec.NewSeededReader(seed+uint64(p)))
			if err != nil {
				return nil, err
			}
			keys[p] = kp
			keyRing.Register(p, kp.Public())
		}
	}
	c := &cluster{net: nw}
	for _, p := range members {
		ep, err := nw.Attach(p)
		if err != nil {
			return nil, err
		}
		suite, err := sec.NewSuite(level, p, keys[p], keyRing)
		if err != nil {
			return nil, err
		}
		nd := &node{id: p}
		st, err := smp.New(smp.Config{
			Self: p, Members: members, Suite: suite, Endpoint: ep,
			Detector: detector.Knobs{SuspectTimeout: 30 * time.Millisecond},
			Deliver: func(d smp.Delivery) {
				nd.mu.Lock()
				defer nd.mu.Unlock()
				nd.deliv = append(nd.deliv, d)
			},
			OnMembershipChange: func(in membership.Install) {
				nd.mu.Lock()
				defer nd.mu.Unlock()
				nd.installs = append(nd.installs, in)
			},
		})
		if err != nil {
			return nil, err
		}
		nd.stack = st
		c.nodes = append(c.nodes, nd)
	}
	for _, nd := range c.nodes {
		nd.stack.Start()
	}
	return c, nil
}

func (c *cluster) stop() {
	for _, nd := range c.nodes {
		nd.stack.Stop()
	}
	c.net.Close()
}

func (c *cluster) waitDelivered(want int, timeout time.Duration, idx ...int) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, i := range idx {
			c.nodes[i].mu.Lock()
			n := len(c.nodes[i].deliv)
			c.nodes[i].mu.Unlock()
			if n < want {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// agreement checks Integrity (at-most-once) and Total Order over the
// delivery logs of the given nodes.
func (c *cluster) agreement(idx ...int) error {
	var logs [][]smp.Delivery
	for _, i := range idx {
		l := c.nodes[i].log()
		seen := map[string]bool{}
		for _, d := range l {
			k := fmt.Sprintf("%s/%d", d.Ring, d.Seq)
			if seen[k] {
				return fmt.Errorf("node %s delivered %s twice (Integrity)", c.nodes[i].id, k)
			}
			seen[k] = true
		}
		logs = append(logs, l)
	}
	for i := 1; i < len(logs); i++ {
		a, b := logs[0], logs[i]
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for j := 0; j < n; j++ {
			if a[j].Ring != b[j].Ring || a[j].Seq != b[j].Seq ||
				string(a[j].Payload) != string(b[j].Payload) {
				return fmt.Errorf("logs diverge at %d (Total Order)", j)
			}
		}
	}
	return nil
}

type check struct {
	table    string
	property string
	run      func() error
}

func main() {
	checks := []check{
		{"Table 2", "Integrity + Total Order + Reliable Delivery under 12% loss", func() error {
			c, err := newCluster(4, sec.LevelDigests, netsim.NewProbabilistic(21, 0.12, 0, 0, 0), 21)
			if err != nil {
				return err
			}
			defer c.stop()
			const per = 10
			for i, nd := range c.nodes {
				for k := 0; k < per; k++ {
					nd.stack.Submit([]byte(fmt.Sprintf("m-%d-%d", i, k)))
				}
			}
			if !c.waitDelivered(per*4, 30*time.Second, 0, 1, 2, 3) {
				return fmt.Errorf("Reliable Delivery violated: not all messages delivered")
			}
			return c.agreement(0, 1, 2, 3)
		}},
		{"Table 2", "Authentication: forged tokens neither delivered nor attributed", func() error {
			c, err := newCluster(3, sec.LevelSignatures, nil, 22)
			if err != nil {
				return err
			}
			defer c.stop()
			c.nodes[0].stack.Submit([]byte("legit"))
			if !c.waitDelivered(1, 10*time.Second, 0, 1, 2) {
				return fmt.Errorf("no progress")
			}
			attacker, err := c.net.Attach(50)
			if err != nil {
				return err
			}
			for v := uint64(500); v < 520; v++ {
				forged := &wire.Token{Sender: 2, Ring: 1, Visit: v, Seq: v, Signature: []byte{1}}
				attacker.Multicast(forged.Marshal())
			}
			c.nodes[1].stack.Submit([]byte("after"))
			if !c.waitDelivered(2, 10*time.Second, 0, 1, 2) {
				return fmt.Errorf("forgeries wedged the ring")
			}
			for _, nd := range c.nodes {
				if len(nd.stack.View().Members) != 3 {
					return fmt.Errorf("a correct processor was excluded on forged evidence")
				}
			}
			return c.agreement(0, 1, 2)
		}},
		{"Table 4", "Uniqueness + Total Order + Eventual Exclusion on crash", func() error {
			c, err := newCluster(4, sec.LevelSignatures, nil, 23)
			if err != nil {
				return err
			}
			defer c.stop()
			c.nodes[0].stack.Submit([]byte("warm"))
			if !c.waitDelivered(1, 10*time.Second, 0, 1, 2, 3) {
				return fmt.Errorf("no warmup")
			}
			c.net.Detach(4)
			deadline := time.Now().Add(20 * time.Second)
			for time.Now().Before(deadline) {
				done := true
				for _, i := range []int{0, 1, 2} {
					if len(c.nodes[i].installed()) == 0 {
						done = false
					}
				}
				if done {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			ref := c.nodes[0].installed()
			if len(ref) == 0 {
				return fmt.Errorf("Eventual Exclusion violated: no install")
			}
			for _, i := range []int{1, 2} {
				ins := c.nodes[i].installed()
				if len(ins) == 0 || ins[0].ID != ref[0].ID ||
					len(ins[0].Members) != len(ref[0].Members) {
					return fmt.Errorf("Uniqueness violated: divergent installs")
				}
			}
			for _, m := range ref[0].Members {
				if m == 4 {
					return fmt.Errorf("Eventual Exclusion violated: crashed member retained")
				}
				if m == 1 && ref[0].Members[0] != 1 {
					return fmt.Errorf("members not sorted")
				}
			}
			return nil
		}},
		{"Table 5", "Accuracy: correct processors never excluded in a fault-free run", func() error {
			c, err := newCluster(4, sec.LevelSignatures, nil, 24)
			if err != nil {
				return err
			}
			defer c.stop()
			for i, nd := range c.nodes {
				for k := 0; k < 5; k++ {
					nd.stack.Submit([]byte(fmt.Sprintf("a-%d-%d", i, k)))
				}
			}
			if !c.waitDelivered(20, 20*time.Second, 0, 1, 2, 3) {
				return fmt.Errorf("fault-free delivery incomplete")
			}
			time.Sleep(200 * time.Millisecond) // several liveness-timeout windows
			for _, nd := range c.nodes {
				if len(nd.stack.View().Members) != 4 {
					return fmt.Errorf("Accuracy violated: correct processor excluded")
				}
				if len(nd.installed()) != 0 {
					return fmt.Errorf("Accuracy violated: spurious membership change")
				}
			}
			return nil
		}},
		{"Table 5", "Completeness: silent processor eventually suspected everywhere", func() error {
			c, err := newCluster(4, sec.LevelSignatures, nil, 25)
			if err != nil {
				return err
			}
			defer c.stop()
			c.nodes[0].stack.Submit([]byte("warm"))
			if !c.waitDelivered(1, 10*time.Second, 0, 1, 2, 3) {
				return fmt.Errorf("no warmup")
			}
			c.net.Detach(2)
			deadline := time.Now().Add(20 * time.Second)
			for time.Now().Before(deadline) {
				all := true
				for _, i := range []int{0, 2, 3} {
					v := c.nodes[i].stack.View()
					for _, m := range v.Members {
						if m == 2 {
							all = false
						}
					}
				}
				if all {
					return nil
				}
				time.Sleep(5 * time.Millisecond)
			}
			return fmt.Errorf("Completeness violated: silent processor never excluded")
		}},
	}

	failures := 0
	fmt.Println("Protocol property verification (paper Tables 2, 4, 5)")
	fmt.Println("======================================================")
	for _, ck := range checks {
		start := time.Now()
		err := ck.run()
		status := "HOLDS"
		if err != nil {
			status = "VIOLATED: " + err.Error()
			failures++
		}
		fmt.Printf("%-8s | %-62s | %-7s (%.1fs)\n",
			ck.table, ck.property, status, time.Since(start).Seconds())
	}
	if failures > 0 {
		log.Printf("%d propert(ies) violated", failures)
		os.Exit(1)
	}
}
