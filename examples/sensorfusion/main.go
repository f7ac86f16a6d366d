// Command sensorfusion shows the Immune system under the kind of critical
// workload its introduction motivates: a flight-control-style sensor
// fusion service that must keep producing correct averages while a
// replica is corrupted AND the network loses and corrupts frames at the
// same time — the combined fault load of Table 1.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"immune"
)

// fusionServant accumulates sensor samples and reports a running mean.
type fusionServant struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	corrupt bool
}

func (f *fusionServant) Invoke(op string, args []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch op {
	case "sample":
		v, err := immune.NewDecoder(args).ReadDouble()
		if err != nil {
			return nil, err
		}
		f.count++
		f.sum += v
	case "mean":
	default:
		return nil, fmt.Errorf("unknown operation %q", op)
	}
	mean := 0.0
	if f.count > 0 {
		mean = f.sum / float64(f.count)
	}
	if f.corrupt {
		mean = -9999 // a stuck-at-fault sensor fusion replica
	}
	e := immune.NewEncoder()
	e.WriteLongLong(f.count)
	e.WriteDouble(mean)
	return e.Bytes(), nil
}

func (f *fusionServant) Snapshot() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	e := immune.NewEncoder()
	e.WriteLongLong(f.count)
	e.WriteDouble(f.sum)
	return e.Bytes()
}

func (f *fusionServant) Restore(snap []byte) error {
	d := immune.NewDecoder(snap)
	count, err := d.ReadLongLong()
	if err != nil {
		return err
	}
	sum, err := d.ReadDouble()
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.count, f.sum = count, sum
	return nil
}

const (
	fusionGroup = immune.GroupID(1)
	pilotGroup  = immune.GroupID(2)
	fusionKey   = "Fusion/attitude"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A hostile environment: 5% frame loss and 2% frame corruption, on
	// top of which a replica will turn Byzantine.
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Seed:           4,
		Plan:           immune.Probabilistic(99, 0.05, 0.02, 0, 0),
		SuspectTimeout: 60 * time.Millisecond,
		CallTimeout:    30 * time.Second,
	})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()
	fmt.Println("sensor fusion on a lossy, corrupting network (5% loss, 2% corruption)")

	servants := map[immune.ProcessorID]*fusionServant{}
	for pid := immune.ProcessorID(1); pid <= 3; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		sv := &fusionServant{}
		servants[pid] = sv
		r, err := p.HostServer(fusionGroup, fusionKey, sv)
		if err != nil {
			return err
		}
		if err := r.WaitActive(30 * time.Second); err != nil {
			return err
		}
	}
	var pilots []*immune.Client
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(pilotGroup)
		if err != nil {
			return err
		}
		c.Bind(fusionKey, fusionGroup)
		if err := c.Replica().WaitActive(30 * time.Second); err != nil {
			return err
		}
		pilots = append(pilots, c)
	}

	sample := func(v float64) (int64, float64, error) {
		args := immune.NewEncoder()
		args.WriteDouble(v)
		type res struct {
			count int64
			mean  float64
			err   error
		}
		results := make([]res, len(pilots))
		var wg sync.WaitGroup
		for i, c := range pilots {
			wg.Add(1)
			go func(i int, c *immune.Client) {
				defer wg.Done()
				body, err := c.Object(fusionKey).Invoke("sample", args.Bytes())
				if err != nil {
					results[i].err = err
					return
				}
				d := immune.NewDecoder(body)
				results[i].count, results[i].err = d.ReadLongLong()
				if results[i].err == nil {
					results[i].mean, results[i].err = d.ReadDouble()
				}
			}(i, c)
		}
		wg.Wait()
		for _, r := range results {
			if r.err != nil {
				return 0, 0, r.err
			}
			if r.count != results[0].count || r.mean != results[0].mean {
				return 0, 0, fmt.Errorf("pilots disagree: %+v", results)
			}
		}
		return results[0].count, results[0].mean, nil
	}

	readings := []float64{10.0, 10.4, 9.8, 10.2, 9.6}
	for i, v := range readings {
		count, mean, err := sample(v)
		if err != nil {
			return err
		}
		fmt.Printf("sample %.1f -> fused n=%d mean=%.3f\n", v, count, mean)
		if i == 2 {
			servants[1].mu.Lock()
			servants[1].corrupt = true
			servants[1].mu.Unlock()
			fmt.Println("** fusion replica on P1 is now Byzantine (reports -9999) **")
		}
	}

	fmt.Println("majority voting kept the fused answers correct throughout;")
	snap := sys.Snapshot()
	fmt.Printf("network endured: sent=%d delivered=%d dropped=%d corrupted=%d duplicated=%d\n",
		snap.Counter("net.sent"), snap.Counter("net.delivered"), snap.Counter("net.dropped"),
		snap.Counter("net.corrupted"), snap.Counter("net.duplicated"))

	// Let the exclusion machinery finish its job.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		p2, err := sys.Processor(2)
		if err != nil {
			return err
		}
		if len(p2.View().Members) == 5 {
			fmt.Printf("Byzantine processor excluded: membership %v\n", p2.View().Members)
			return nil
		}
		if _, _, err := sample(10.0); err != nil {
			// A call can time out while the membership reconfigures
			// under loss; the client sees a CORBA system exception and
			// retries — the survivable outcome.
			fmt.Printf("transient during reconfiguration: %v\n", err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	fmt.Println("note: exclusion still pending at exit (lossy network slows evidence flow)")
	return nil
}
