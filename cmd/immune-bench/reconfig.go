// Live-reconfiguration latency benchmark (the BENCH_4.json artifact):
// how long a running ring takes to absorb each administrative topology
// change while invocations keep flowing. Each cycle grows the cluster by
// one processor (key/directory bootstrap + membership admission +
// state-transfer catch-up), re-weights the served group onto the joiner,
// drains the joiner back out (migration + voluntary leave), and restores
// the original degree — so every cycle also exercises re-admission of a
// previously drained identifier. Latencies are wall-clock per operation,
// measured under a paced open-loop background load.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"immune"
)

// ReconfigReport is the BENCH_4.json schema.
type ReconfigReport struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Cycles is the number of add/reweight/drain/restore rounds measured.
	Cycles int `json:"cycles"`
	// Processors is the steady-state cluster size (the joiner is +1).
	Processors int `json:"processors"`
	// LoadIntervalUs is the pacing interval of the background driver.
	LoadIntervalUs int64 `json:"load_interval_us"`
	// Per-operation wall-clock latencies, milliseconds.
	AddP50Ms    float64 `json:"add_p50_ms"`
	AddP99Ms    float64 `json:"add_p99_ms"`
	DrainP50Ms  float64 `json:"drain_p50_ms"`
	DrainP99Ms  float64 `json:"drain_p99_ms"`
	ResizeP50Ms float64 `json:"resize_p50_ms"`
	ResizeP99Ms float64 `json:"resize_p99_ms"`
	// LoadErrors counts background invocations that failed hard during
	// the cycles (retryable overload excluded) — the reconfigurations
	// must not be visible as client failures.
	LoadErrors uint64 `json:"load_errors"`
	LoadSent   uint64 `json:"load_sent"`
}

// runReconfig measures cycles of grow/re-weight/drain/restore against a
// live system and writes the report to jsonPath when set.
func runReconfig(jsonPath string, cycles, payloadSize int) error {
	const (
		base     = 6                            // steady-state processors
		joiner   = immune.ProcessorID(base + 1) // added and drained each cycle
		opTO     = 30 * time.Second
		interval = 2 * time.Millisecond // background load pacing
	)
	body := immune.PacketPayload(payloadSize)
	sys, err := immune.New(immune.Config{
		Processors:  base,
		Level:       immune.LevelNone,
		Seed:        41,
		CallTimeout: 10 * time.Second,
		// A drain's membership departure must settle well inside the
		// operation timeout even on a loaded runner.
		SuspectTimeout: time.Second,
		InvokeRetries:  2,
	})
	if err != nil {
		return err
	}
	sys.Start()
	defer sys.Stop()

	if _, err := sys.HostGroup(sinkGroup, sinkKey, 3,
		func() immune.Servant { return immune.NewPacketSink() },
		1, 2, 3); err != nil {
		return err
	}
	if err := sys.WaitGroupActive(sinkGroup, 3, opTO); err != nil {
		return err
	}
	// A client replica on each non-server processor, so the freshly added
	// joiner is always the least-loaded placement target and the
	// re-weighting below genuinely lands on (and the drain migrates off)
	// the new capacity.
	var obj *immune.Object
	for pid := immune.ProcessorID(4); pid <= base; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return err
		}
		c, err := p.NewClient(immune.GroupID(100 + uint32(pid)))
		if err != nil {
			return err
		}
		c.Bind(sinkKey, sinkGroup)
		if err := c.Replica().WaitActive(opTO); err != nil {
			return err
		}
		obj = c.Object(sinkKey)
	}

	// Paced open-loop background load: the reconfigurations below must
	// stay invisible to it (ErrOverloaded is retryable backpressure and
	// does not count as a failure).
	var sent, loadErrs uint64
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			sent++
			if err := obj.InvokeOneWay("push", body); err != nil && !errors.Is(err, immune.ErrOverloaded) {
				loadErrs++
			}
			time.Sleep(interval)
		}
	}()

	var addMs, drainMs, resizeMs []float64
	timeOp := func(samples *[]float64, name string, op func() error) error {
		began := time.Now()
		if err := op(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		ms := float64(time.Since(began)) / float64(time.Millisecond)
		*samples = append(*samples, ms)
		fmt.Printf("%-12s %8.1f ms\n", name, ms)
		return nil
	}
	for cycle := 0; cycle < cycles; cycle++ {
		err := timeOp(&addMs, "add", func() error { return sys.AddProcessor(joiner, opTO) })
		if err == nil {
			err = timeOp(&resizeMs, "resize-up", func() error { return sys.ResizeGroup(sinkGroup, 4, opTO) })
		}
		if err == nil {
			err = timeOp(&drainMs, "drain", func() error { return sys.DrainProcessor(joiner, opTO) })
		}
		if err == nil {
			err = timeOp(&resizeMs, "resize-down", func() error { return sys.ResizeGroup(sinkGroup, 3, opTO) })
		}
		if err != nil {
			close(stop)
			<-loadDone
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
	}
	close(stop)
	<-loadDone

	report := ReconfigReport{
		Schema:         "immune-bench/4",
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		Cycles:         cycles,
		Processors:     base,
		LoadIntervalUs: interval.Microseconds(),
		AddP50Ms:       quantileMs(addMs, 0.50),
		AddP99Ms:       quantileMs(addMs, 0.99),
		DrainP50Ms:     quantileMs(drainMs, 0.50),
		DrainP99Ms:     quantileMs(drainMs, 0.99),
		ResizeP50Ms:    quantileMs(resizeMs, 0.50),
		ResizeP99Ms:    quantileMs(resizeMs, 0.99),
		LoadErrors:     loadErrs,
		LoadSent:       sent,
	}
	fmt.Printf("# add p50/p99: %.1f/%.1f ms, drain p50/p99: %.1f/%.1f ms, resize p50/p99: %.1f/%.1f ms\n",
		report.AddP50Ms, report.AddP99Ms, report.DrainP50Ms, report.DrainP99Ms,
		report.ResizeP50Ms, report.ResizeP99Ms)
	fmt.Printf("# background load: %d sent, %d hard errors\n", sent, loadErrs)
	if loadErrs > 0 {
		return fmt.Errorf("reconfig bench: %d background invocations failed hard", loadErrs)
	}

	if jsonPath != "" {
		out, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "# wrote %s\n", jsonPath)
	}
	return nil
}

// quantileMs returns the q-quantile of the samples (nearest-rank).
func quantileMs(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
