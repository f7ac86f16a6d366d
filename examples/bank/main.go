// Command bank demonstrates survivability under a value fault (Table 1:
// "incorrect value for invocation (response) received from a particular
// client (server) replica"): a three-way replicated bank account keeps
// answering correctly while one of its replicas is corrupted and lies
// about balances; the value fault detector then identifies the corrupt
// replica's processor and the membership protocol excludes it — the full
// §6.2 pipeline.
package main

import (
	"errors"
	"fmt"
	"log"
	"slices"
	"sync"
	"time"

	"immune"
)

// accountServant is a deterministic replicated bank account. Setting
// corrupt makes it report inflated balances — a value-faulty replica.
type accountServant struct {
	mu      sync.Mutex
	balance int64
	corrupt bool
}

func (a *accountServant) Invoke(op string, args []byte) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch op {
	case "deposit":
		amount, err := immune.NewDecoder(args).ReadLongLong()
		if err != nil {
			return nil, err
		}
		a.balance += amount
	case "withdraw":
		amount, err := immune.NewDecoder(args).ReadLongLong()
		if err != nil {
			return nil, err
		}
		if amount > a.balance {
			return nil, errors.New("insufficient funds")
		}
		a.balance -= amount
	case "balance":
	default:
		return nil, fmt.Errorf("unknown operation %q", op)
	}
	e := immune.NewEncoder()
	if a.corrupt {
		e.WriteLongLong(a.balance * 1000) // the lie
	} else {
		e.WriteLongLong(a.balance)
	}
	return e.Bytes(), nil
}

func (a *accountServant) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := immune.NewEncoder()
	e.WriteLongLong(a.balance)
	return e.Bytes()
}

func (a *accountServant) Restore(snap []byte) error {
	v, err := immune.NewDecoder(snap).ReadLongLong()
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.balance = v
	return nil
}

const (
	accountGroup = immune.GroupID(1)
	tellerGroup  = immune.GroupID(2)
	accountKey   = "Account/alice"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Seed:           2,
		SuspectTimeout: 40 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()

	// Replicated account, registered at degree 3 so the recovery manager
	// maintains it (initial hosts P1..P3, in order). Keep handles on the
	// created servants so we can corrupt one later.
	var servantMu sync.Mutex
	var servants []*accountServant
	replicas, err := sys.HostGroup(accountGroup, accountKey, 3, func() immune.Servant {
		sv := &accountServant{}
		servantMu.Lock()
		servants = append(servants, sv)
		servantMu.Unlock()
		return sv
	})
	if err != nil {
		return err
	}
	for _, r := range replicas {
		if err := r.WaitActive(10 * time.Second); err != nil {
			return err
		}
	}

	// Replicated teller (the client) on P4..P6.
	var tellers []*immune.Client
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(tellerGroup)
		if err != nil {
			return err
		}
		c.Bind(accountKey, accountGroup)
		if err := c.Replica().WaitActive(10 * time.Second); err != nil {
			return err
		}
		tellers = append(tellers, c)
	}

	call := func(op string, amount int64) ([]int64, error) {
		args := immune.NewEncoder()
		args.WriteLongLong(amount)
		out := make([]int64, len(tellers))
		errs := make([]error, len(tellers))
		var wg sync.WaitGroup
		for i, c := range tellers {
			wg.Add(1)
			go func(i int, c *immune.Client) {
				defer wg.Done()
				body, err := c.Object(accountKey).Invoke(op, args.Bytes())
				if err != nil {
					errs[i] = err
					return
				}
				out[i], errs[i] = immune.NewDecoder(body).ReadLongLong()
			}(i, c)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	balances, err := call("deposit", 100)
	if err != nil {
		return err
	}
	fmt.Printf("deposit 100 -> voted balances %v\n", balances)

	// Corrupt the replica on P2 (the second servant created): from now on
	// it reports balances ×1000.
	servantMu.Lock()
	p2Servant := servants[1]
	servantMu.Unlock()
	p2Servant.mu.Lock()
	p2Servant.corrupt = true
	p2Servant.mu.Unlock()
	fmt.Println("replica on P2 is now corrupted (reports balance*1000)")

	balances, err = call("balance", 0)
	if err != nil {
		return err
	}
	fmt.Printf("balance query with corrupt replica -> voted balances %v (majority voting masks the lie)\n", balances)

	// Keep traffic flowing until the value fault detector's evidence
	// excludes P2 from the processor membership (§6.2).
	p1, err := sys.Processor(1)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(20 * time.Second)
	for slices.Contains(p1.View().Members, 2) {
		if time.Now().After(deadline) {
			return errors.New("P2 not excluded within 20s")
		}
		if _, err := call("balance", 0); err != nil {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("P2 excluded from the membership: %v\n", p1.View().Members)
	fmt.Printf("account group is now %v\n", p1.GroupMembers(accountGroup))

	// The exclusion left the account group one replica short; the
	// recovery manager re-hosts it (with state transfer) automatically.
	deadline = time.Now().Add(30 * time.Second)
	for h := accountHealth(sys); h.Recoveries < 1 || h.Live != h.Degree; h = accountHealth(sys) {
		if time.Now().After(deadline) {
			return fmt.Errorf("account group not re-hosted within 30s: health %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("recovery restored degree 3: health %+v\n", accountHealth(sys))

	balances, err = call("withdraw", 30)
	if err != nil {
		return err
	}
	fmt.Printf("withdraw 30 after exclusion -> voted balances %v\n", balances)
	fmt.Print(sys.Snapshot().String())
	return nil
}

func accountHealth(sys *immune.System) immune.GroupHealth {
	for _, gh := range sys.Health().Groups {
		if gh.Group == accountGroup {
			return gh
		}
	}
	return immune.GroupHealth{}
}
