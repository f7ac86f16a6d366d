// Command immune-scenario runs named chaos scenarios from the
// internal/scenario catalog: deterministic open-loop load (Poisson or
// heavy-tailed Pareto arrivals across many object groups) composed with a
// declarative fault schedule, judged against per-scenario SLOs
// (p50/p99/p999 latency, delivered/shed/recovered counters).
//
//	immune-scenario -list
//	immune-scenario -scenario cascade -seed 7
//	immune-scenario -scenario all -json BENCH_SCENARIO.json
//	immune-scenario -table1
//
// The exit status is non-zero when any scenario violates its SLO or
// delivers nothing, which is what the CI chaos smoke keys on. With -json
// the tool also writes the BENCH_SCENARIO.json trend artifact.
//
// -table1 reproduces Table 1 of the paper instead: it injects each fault
// class the Immune system claims to handle — message loss, corruption and
// duplication, processor crash, malicious (value-faulty) replicas — and
// reports whether the claimed mechanism detected and handled it, exiting
// non-zero if any did not. The experiments are scenario.Table1, shared
// with the go-test regression suite (table1_test.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"immune/internal/scenario"
)

// report is the BENCH_SCENARIO.json schema: one entry per scenario run,
// quantiles in microseconds for cross-run trend diffing.
type report struct {
	Schema    string                   `json:"schema"`
	GoVersion string                   `json:"go_version"`
	GOOS      string                   `json:"goos"`
	GOARCH    string                   `json:"goarch"`
	Scenarios map[string]scenarioEntry `json:"scenarios"`
}

type scenarioEntry struct {
	Seed        uint64   `json:"seed"`
	Sent        uint64   `json:"sent"`
	Delivered   uint64   `json:"delivered"`
	Shed        uint64   `json:"shed"`
	Errors      uint64   `json:"errors"`
	Abandoned   uint64   `json:"abandoned"`
	Recovered   uint64   `json:"recovered"`
	ValueFaults uint64   `json:"value_faults"`
	P50Us       float64  `json:"p50_us"`
	P99Us       float64  `json:"p99_us"`
	P999Us      float64  `json:"p999_us"`
	MeanUs      float64  `json:"mean_us"`
	FaultEvents int      `json:"fault_events"`
	Violations  []string `json:"violations,omitempty"`
}

func main() {
	name := flag.String("scenario", "", "scenario name from the catalog, or 'all'")
	seed := flag.Uint64("seed", 0, "override the scenario's default seed (0 keeps it)")
	duration := flag.Duration("duration", 0, "override the scenario's load window (0 keeps it)")
	jsonPath := flag.String("json", "", "write the per-scenario trend report to this path")
	list := flag.Bool("list", false, "list catalog scenarios and exit")
	table1 := flag.Bool("table1", false, "run the Table 1 fault-injection experiments and exit")
	flag.Parse()

	if *table1 {
		runTable1()
		return
	}

	if *list {
		for _, s := range scenario.Catalog() {
			fmt.Printf("%-16s %s\n", s.Name, s.Description)
		}
		return
	}
	if *name == "" {
		log.Fatal("usage: immune-scenario -scenario NAME|all [-seed N] [-json PATH] | -table1 (see -list)")
	}

	var runs []scenario.Scenario
	if *name == "all" {
		runs = scenario.Catalog()
	} else {
		s, ok := scenario.Lookup(*name)
		if !ok {
			log.Fatalf("unknown scenario %q; known: %v", *name, scenario.Names())
		}
		runs = []scenario.Scenario{s}
	}

	rep := report{
		Schema:    "immune-scenario/1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scenarios: map[string]scenarioEntry{},
	}
	failures := 0
	for _, s := range runs {
		if *seed != 0 {
			s.Seed = *seed
		}
		if *duration != 0 {
			s.Duration = *duration
		}
		fmt.Printf("== %s (seed %d)\n", s.Name, s.Seed)
		res, err := scenario.Run(s)
		if err != nil {
			log.Fatalf("%s: %v", s.Name, err)
		}
		fmt.Printf("   sent=%d delivered=%d shed=%d errors=%d abandoned=%d recovered=%d value_faults=%d\n",
			res.Sent, res.Delivered, res.Shed, res.Errors, res.Abandoned,
			res.Recovered, res.ValueFaults)
		if len(res.ErrorKinds) > 0 {
			fmt.Printf("   error kinds: %v\n", res.ErrorKinds)
		}
		fmt.Printf("   latency p50=%v p99=%v p999=%v mean=%v (elapsed %v)\n",
			res.P50, res.P99, res.P999, res.Mean, res.Elapsed.Round(time.Millisecond))
		for _, e := range res.Events {
			fmt.Printf("   %s\n", e)
		}
		if res.Passed() {
			fmt.Printf("   SLO: PASS\n")
		} else {
			failures++
			for _, v := range res.Violations {
				fmt.Printf("   SLO VIOLATION: %s\n", v)
			}
		}
		rep.Scenarios[res.Name] = scenarioEntry{
			Seed:        res.Seed,
			Sent:        res.Sent,
			Delivered:   res.Delivered,
			Shed:        res.Shed,
			Errors:      res.Errors,
			Abandoned:   res.Abandoned,
			Recovered:   res.Recovered,
			ValueFaults: res.ValueFaults,
			P50Us:       float64(res.P50) / 1e3,
			P99Us:       float64(res.P99) / 1e3,
			P999Us:      float64(res.P999) / 1e3,
			MeanUs:      float64(res.Mean) / 1e3,
			FaultEvents: len(res.Events),
			Violations:  res.Violations,
		}
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		out = append(out, '\n')
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# wrote %s\n", *jsonPath)
	}
	if failures > 0 {
		log.Fatalf("%d scenario(s) violated their SLO", failures)
	}
}

// runTable1 prints one row per Table 1 fault class and exits non-zero if
// any experiment failed.
func runTable1() {
	failures := 0
	fmt.Println("Table 1 fault-injection harness")
	fmt.Println("===============================")
	for _, ex := range scenario.Table1() {
		start := time.Now()
		status := "HANDLED"
		if err := ex.Run(); err != nil {
			status = "FAILED: " + err.Error()
			failures++
		}
		fmt.Printf("%-45s | %-60s | %-8s (%.1fs)\n",
			ex.Name, ex.Mechanism, status, time.Since(start).Seconds())
	}
	if failures > 0 {
		log.Fatalf("%d experiment(s) failed", failures)
	}
}
