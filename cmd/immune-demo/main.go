// Command immune-demo narrates a survivability scenario end to end: a
// replicated service keeps answering while, in sequence, a processor
// crashes, a replica turns value-faulty, and a replacement replica is
// reallocated with state transfer — the full lifecycle of paper §3.1.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"immune"
)

const (
	srvGroup = immune.GroupID(1)
	cliGroup = immune.GroupID(2)
	key      = "Ledger/main"
)

// ledger is a deterministic replicated append-count ledger.
type ledger struct {
	mu      sync.Mutex
	entries int64
	sum     int64
	corrupt bool
}

func (l *ledger) Invoke(op string, args []byte) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if op == "append" {
		v, err := immune.NewDecoder(args).ReadLongLong()
		if err != nil {
			return nil, err
		}
		l.entries++
		l.sum += v
	}
	e := immune.NewEncoder()
	if l.corrupt {
		e.WriteLongLong(-1)
		e.WriteLongLong(-1)
	} else {
		e.WriteLongLong(l.entries)
		e.WriteLongLong(l.sum)
	}
	return e.Bytes(), nil
}

func (l *ledger) Snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := immune.NewEncoder()
	e.WriteLongLong(l.entries)
	e.WriteLongLong(l.sum)
	return e.Bytes()
}

func (l *ledger) Restore(snap []byte) error {
	d := immune.NewDecoder(snap)
	entries, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	sum, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries, l.sum = entries, sum
	return nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Println("== Immune survivability demo ==")
	sys, err := immune.New(immune.Config{
		Processors:      6,
		Seed:            9,
		SuspectTimeout:  40 * time.Millisecond,
		AutoRecover:     true,
		RecoveryBackoff: 25 * time.Millisecond,
		OnMembershipChange: func(self immune.ProcessorID, inst immune.MembershipInstall) {
			if self == 1 {
				fmt.Printf("  [membership] installed %s on ring %s: %v\n",
					inst.ID, inst.Ring, inst.Members)
			}
		},
	})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()
	fmt.Printf("6 processors up; fault budget %d\n", sys.MaxFaulty())

	// The factory is called once per placement — first for the three
	// initial hosts (P1..P3, in order), later by the recovery manager for
	// each replacement — so created[1] is the servant living on P2.
	var ledgerMu sync.Mutex
	var created []*ledger
	replicas, err := sys.HostGroup(srvGroup, key, 3, func() immune.Servant {
		lg := &ledger{}
		ledgerMu.Lock()
		created = append(created, lg)
		ledgerMu.Unlock()
		return lg
	})
	if err != nil {
		return err
	}
	for _, r := range replicas {
		if err := r.WaitActive(10 * time.Second); err != nil {
			return err
		}
	}
	fmt.Println("ledger group registered at degree 3, replicated on P1..P3")

	var clients []*immune.Client
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(cliGroup)
		if err != nil {
			return err
		}
		c.Bind(key, srvGroup)
		if err := c.Replica().WaitActive(10 * time.Second); err != nil {
			return err
		}
		clients = append(clients, c)
	}
	fmt.Println("client replicated 3-way on P4..P6")

	appendAll := func(v int64) (entries, sum int64, err error) {
		args := immune.NewEncoder()
		args.WriteLongLong(v)
		type res struct {
			entries, sum int64
			err          error
		}
		results := make([]res, len(clients))
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *immune.Client) {
				defer wg.Done()
				body, err := c.Object(key).Invoke("append", args.Bytes())
				if err != nil {
					results[i].err = err
					return
				}
				d := immune.NewDecoder(body)
				results[i].entries, results[i].err = d.ReadLongLong()
				if results[i].err == nil {
					results[i].sum, results[i].err = d.ReadLongLong()
				}
			}(i, c)
		}
		wg.Wait()
		for _, r := range results {
			if r.err != nil {
				return 0, 0, r.err
			}
		}
		return results[0].entries, results[0].sum, nil
	}

	entries, sum, err := appendAll(10)
	if err != nil {
		return err
	}
	fmt.Printf("append(10): entries=%d sum=%d\n", entries, sum)

	fmt.Println("\n-- phase 1: crash P3 --")
	sys.CrashProcessor(3)
	if err := waitMembers(sys, 5, 20*time.Second); err != nil {
		return err
	}
	entries, sum, err = appendAll(20)
	if err != nil {
		return err
	}
	fmt.Printf("append(20) after crash: entries=%d sum=%d (service survived)\n", entries, sum)

	fmt.Println("\n-- phase 2: automatic recovery reallocates a replacement (restores degree 3) --")
	if err := waitRecoveries(sys, 1, 30*time.Second); err != nil {
		return err
	}
	for _, e := range recoveryLog(sys) {
		fmt.Printf("  [recovery] %s %s on %s: %s\n", e.Kind, e.Group, e.Processor, e.Detail)
	}
	ledgerMu.Lock()
	replacement := created[len(created)-1]
	ledgerMu.Unlock()
	replacement.mu.Lock()
	fmt.Printf("replacement activated with transferred state: entries=%d sum=%d\n",
		replacement.entries, replacement.sum)
	replacement.mu.Unlock()

	entries, sum, err = appendAll(1000)
	if err != nil {
		return err
	}
	fmt.Printf("append(1000) at restored degree 3: entries=%d sum=%d\n", entries, sum)

	fmt.Println("\n-- phase 3: corrupt the ledger replica on P2 (2 of 3 replicas stay correct) --")
	ledgerMu.Lock()
	p2Ledger := created[1]
	ledgerMu.Unlock()
	p2Ledger.mu.Lock()
	p2Ledger.corrupt = true
	p2Ledger.mu.Unlock()
	deadline := time.Now().Add(20 * time.Second)
	v := int64(100)
	for time.Now().Before(deadline) {
		entries, sum, err = appendAll(v)
		if err != nil {
			return err
		}
		v++
		p1, _ := sys.Processor(1)
		if len(p1.View().Members) == 4 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("voted answers stayed correct (entries=%d sum=%d); corrupt processor excluded\n",
		entries, sum)

	// The exclusion degraded the group again; the immune system heals it
	// a second time without intervention.
	if err := waitRecoveries(sys, 2, 30*time.Second); err != nil {
		return err
	}
	fmt.Println("recovery restored degree 3 again after the value-fault exclusion")

	p1, _ := sys.Processor(1)
	fmt.Printf("\nfinal membership %v, ledger group %v\n",
		p1.View().Members, p1.GroupMembers(srvGroup))
	fmt.Printf("final health: %+v\n", healthOf(sys))

	fmt.Println("\n== metrics snapshot (system-wide, all layers) ==")
	fmt.Print(sys.Snapshot().String())
	return nil
}

// waitRecoveries blocks until the ledger group reports at least n completed
// recoveries and is back at full strength.
func waitRecoveries(sys *immune.System, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		gh := healthOf(sys)
		if gh.Recoveries >= uint64(n) && gh.Live == gh.Degree && !gh.Degraded {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("recovery %d never completed: %+v", n, healthOf(sys))
}

func healthOf(sys *immune.System) immune.GroupHealth {
	for _, gh := range sys.Health().Groups {
		if gh.Group == srvGroup {
			return gh
		}
	}
	return immune.GroupHealth{}
}

// recoveryLog returns the ledger group's recovery events in time order.
func recoveryLog(sys *immune.System) []immune.RecoveryEvent {
	var out []immune.RecoveryEvent
	for _, e := range sys.Health().Events {
		if e.Group == srvGroup {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

func waitMembers(sys *immune.System, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p1, err := sys.Processor(1)
		if err != nil {
			return err
		}
		if len(p1.View().Members) == want {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("membership never reached %d members", want)
}
