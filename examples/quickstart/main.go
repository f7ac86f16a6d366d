// Command quickstart is the smallest complete Immune deployment: a
// three-way actively replicated counter service and a three-way replicated
// client on a six-processor system, with every invocation and response
// majority voted — the architecture of the paper's Figure 1.
package main

import (
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"immune"
)

// counterServant is a deterministic replicated counter.
type counterServant struct {
	mu    sync.Mutex
	value int64
}

func (c *counterServant) Invoke(op string, args []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch op {
	case "add":
		delta, err := immune.NewDecoder(args).ReadLongLong()
		if err != nil {
			return nil, err
		}
		c.value += delta
	case "get":
	default:
		return nil, fmt.Errorf("unknown operation %q", op)
	}
	e := immune.NewEncoder()
	e.WriteLongLong(c.value)
	return e.Bytes(), nil
}

func (c *counterServant) Snapshot() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := immune.NewEncoder()
	e.WriteLongLong(c.value)
	return e.Bytes()
}

func (c *counterServant) Restore(snap []byte) error {
	v, err := immune.NewDecoder(snap).ReadLongLong()
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.value = v
	return nil
}

const (
	serverGroup = immune.GroupID(1)
	clientGroup = immune.GroupID(2)
	objectKey   = "Counter/main"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
	_ = os.Stdout
}

func run() error {
	// Six processors, full survivability (signed tokens + digests +
	// majority voting): the paper's testbed shape.
	sys, err := immune.New(immune.Config{Processors: 6, Seed: 1})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()
	fmt.Printf("started %d processors; tolerates %d Byzantine fault(s)\n",
		len(sys.Processors()), sys.MaxFaulty())

	// Three-way replicated server on P1..P3.
	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		replica, err := p.HostServer(serverGroup, objectKey, &counterServant{})
		if err != nil {
			return err
		}
		if err := replica.WaitActive(10 * time.Second); err != nil {
			return err
		}
		fmt.Printf("server replica %s active\n", replica.ID())
	}

	// Three-way replicated client on P4..P6. Each client replica runs
	// the same deterministic program; the Immune system recognizes their
	// invocations as copies of one operation and votes on them.
	clients := make([]*immune.Client, 0, 3)
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(clientGroup)
		if err != nil {
			return err
		}
		c.Bind(objectKey, serverGroup)
		if err := c.Replica().WaitActive(10 * time.Second); err != nil {
			return err
		}
		clients = append(clients, c)
	}
	fmt.Println("client replicas active on P4, P5, P6")

	// The replicated client increments the counter three times.
	for round := 1; round <= 3; round++ {
		args := immune.NewEncoder()
		args.WriteLongLong(int64(round * 10))

		var wg sync.WaitGroup
		results := make([]int64, len(clients))
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *immune.Client) {
				defer wg.Done()
				body, err := c.Object(objectKey).Invoke("add", args.Bytes())
				if err != nil {
					log.Printf("client replica %d: %v", i, err)
					return
				}
				results[i], _ = immune.NewDecoder(body).ReadLongLong()
			}(i, c)
		}
		wg.Wait()
		fmt.Printf("round %d: voted results at the three client replicas: %v\n",
			round, results)
	}

	p1, err := sys.Processor(1)
	if err != nil {
		return err
	}
	fmt.Printf("server group members: %v\n", p1.GroupMembers(serverGroup))
	snap := sys.Snapshot()
	fmt.Printf("ring counters (all processors): originated=%d delivered=%d tokens=%d rejects=%d\n",
		snap.Counter("ring.originated"), snap.Counter("ring.delivered"),
		snap.Counter("ring.tokens_signed"), snap.Counter("ring.rejects"))
	return nil
}
