package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// checkMetrics asserts that res carries every metric in want: present,
// finite and with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, res *result, want []specMetric, except string) {
	t.Helper()
	for _, m := range want {
		if m.Name == except {
			continue
		}
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s %s: metric %s missing", res.Pass, res.Workload, m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s %s: metric %s = %v", res.Pass, res.Workload, m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s %s: metric %s has unit %q, BENCHMARK.json says %q", res.Pass, res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload in both passes with a one-second window
// and checks the result against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the benchmark's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		if w.tcp {
			t.Errorf("workload %s of BENCHMARK.json needs a loopback interface", w.name)
		}
		for _, traced := range []bool{false, true} {
			opt := options{seed: 7, window: time.Second, traced: traced, warmTime: time.Second, warmOps: 200}
			if w.crashOps > 0 {
				opt.crashOps = 20
			}
			name := w.name + "/e2e"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(w, opt)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Attempted < opt.warmOps || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				if traced {
					if err := runProbes(res, 50, false); err != nil {
						t.Fatalf("probes: %v", err)
					}
					checkMetrics(t, res, spec.PerLayer, "")
					if len(res.spans) == 0 {
						t.Error("the traced pass recorded no spans")
					}
				} else if res.Env.LatencySamples < 100*minTail {
					// Too few calls in one second for a p99: it must be
					// refused, and that is the run's only complaint.
					checkMetrics(t, res, spec.EndToEnd, "latency_p99_ms")
					if _, ok := res.Metrics["latency_p99_ms"]; ok {
						t.Errorf("p99 reported from %d samples", res.Env.LatencySamples)
					}
					if len(res.Problems) != 1 || !strings.HasPrefix(res.Problems[0], "latency_p99_ms:") {
						t.Errorf("problems = %q, want only the refused p99", res.Problems)
					}
					return
				} else {
					checkMetrics(t, res, spec.EndToEnd, "")
				}
				if !res.Correct {
					t.Errorf("output checks failed: %q", res.Problems)
				}
			})
		}
	}
}

// TestSmokeSockets runs what -sockets adds, where the machine has a
// loopback interface: the tcp workload (traced, which covers what the e2e
// pass does) and the socket probes.
func TestSmokeSockets(t *testing.T) {
	if err := loopbackUp(); err != nil {
		t.Skip(err)
	}
	t.Parallel()
	for _, w := range extraWorkloads {
		res, err := runWorkload(w, options{seed: 7, window: time.Second, traced: true, warmTime: time.Second, warmOps: 200})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: failed %d, problems %q", w.name, res.Failed, res.Problems)
		}
		if res.Metrics["tcpmesh.frames_per_op"].Value <= 0 {
			t.Errorf("%s: no frames crossed the sockets", w.name)
		}
	}
	res := &result{Metrics: map[string]metric{}}
	if err := runProbes(res, 50, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"orb.baseline_tcp_twoway_us", "tcpmesh.rtt_us", "tcpmesh.multicast_ns"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.Metrics[name].Value)
		}
	}
}

// TestWatchdogGivesUp: a wait that makes no progress ends with errStalled
// once its limit passes, instead of hanging the run.
func TestWatchdogGivesUp(t *testing.T) {
	r := &run{}
	start := time.Now()
	err := r.waitProgress(20*time.Millisecond, func() bool { return false })
	if !errors.Is(err, errStalled) {
		t.Fatalf("err = %v, want errStalled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("gave up after %v, limit was 20ms", d)
	}
	if err := r.waitProgress(time.Minute, func() bool { return true }); err != nil {
		t.Errorf("a condition that already holds: %v", err)
	}
}
