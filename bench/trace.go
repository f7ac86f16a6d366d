package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"immune"
	"immune/internal/obs"
)

// Span kinds. A call span is one logical invocation as the driver sees it;
// the invoke spans (one per client replica, rpc only) and exec spans (one
// per server replica) of the same Op are its children.
const (
	spanCall uint8 = iota
	spanInvoke
	spanExec
)

var spanNames = [...]string{spanCall: "call", spanInvoke: "invoke", spanExec: "exec"}

// span is one timed interval recorded by the benchmark's own code around a
// call into the program. Start and End are nanoseconds since the
// recorder's epoch. It holds no pointers, so a million of them cost the
// garbage collector nothing to scan.
type span struct {
	Op         uint64
	Start, End int64
	Kind       uint8
	Replica    uint8
}

// recorder keeps spans in memory while on is set; nothing is written until
// the run is over.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeSpans appends the spans of one workload to a CSV file.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		parent := "call"
		if s.Kind == spanCall {
			parent = ""
		}
		fmt.Fprintf(w, "%s,%d,%s,%d,%s,%d,%d\n", workload, s.Op, spanNames[s.Kind], s.Replica, parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe is what the traced pass reads at each end of the window.
type probe struct {
	snap   immune.MetricsSnapshot
	tcp    obs.Snapshot
	mem    runtime.MemStats
	cpu    time.Duration // user + system CPU time of this process
	gorout int
}

func (r *run) probe() probe {
	p := probe{snap: r.sys.Snapshot(), tcp: r.tcpReg.Snapshot(), cpu: cpuTime(), gorout: runtime.NumGoroutine()}
	runtime.ReadMemStats(&p.mem)
	return p
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the steal column of /proc/stat: time the hypervisor
// gave to someone else while this machine wanted to run. 0 where the file
// does not exist.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseUint(f[8], 10, 64)
	return v
}

// ratio is a/b, and 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the two probes, the window's samples and the recorded
// spans into the traced pass's per-layer metrics.
func (r *run) layerMetrics(res *result, before, after probe, samples []sample) {
	count := func(name string) float64 {
		return float64(after.snap.Counter(name) - before.snap.Counter(name))
	}
	tcpCount := func(name string) float64 {
		return float64(after.tcp.Counter(name) - before.tcp.Counter(name))
	}
	// meanUs is a histogram's Sum / Count over the window, in microseconds.
	meanUs := func(name string) float64 {
		a, b := after.snap.Histograms[name], before.snap.Histograms[name]
		return ratio(float64(a.Sum-b.Sum)/1e3, float64(a.Count-b.Count))
	}
	first, last := samples[0], samples[len(samples)-1]
	secs := last.at.Sub(first.at).Seconds()
	ops := float64(last.ops - first.ops)
	perOp := func(v float64) float64 { return ratio(v, ops) }

	// Spans: throughput of the slices that recorded against those that did
	// not, and the path medians from the recorded ones.
	var onOps, offOps, onSecs, offSecs float64
	for k := 1; k < len(samples); k++ {
		n := float64(samples[k].ops - samples[k-1].ops)
		d := samples[k].at.Sub(samples[k-1].at).Seconds()
		if k%2 == 1 {
			onOps, onSecs = onOps+n, onSecs+d
		} else {
			offOps, offSecs = offOps+n, offSecs+d
		}
	}
	res.set("span.overhead_pct", 100*(1-ratio(ratio(onOps, onSecs), ratio(offOps, offSecs))), "%")
	toFirst, skew, toReply := r.spanPaths()
	res.set("span.invoke_to_first_exec_us", median(toFirst), "us")
	res.set("span.first_to_last_exec_us", median(skew), "us")
	res.set("span.exec_to_reply_us", median(toReply), "us")

	stages := obs.Stages()
	for i := 0; i+1 < len(stages); i++ {
		name := "trace." + stages[i].String() + "_to_" + stages[i+1].String()
		res.set(name+"_mean_us", meanUs(name), "us")
	}
	res.set("trace.total_mean_us", meanUs("trace.total"), "us")
	res.set("trace.dropped", count("trace.dropped"), "count")

	// The program counts every token it passes on as "signed", whatever
	// the level; only LevelSignatures actually signs.
	tokens := count("ring.tokens_signed")
	signed := tokens
	if r.w.level < immune.LevelSignatures {
		signed = 0
	}
	verified, hits := count("ring.tokens_verified"), count("ring.verify_cache_hits")
	res.set("ring.tokens_signed_per_op", perOp(signed), "1/op")
	res.set("ring.tokens_verified_per_op", perOp(verified), "1/op")
	res.set("ring.verify_cache_hit_ratio", ratio(hits, hits+verified), "ratio")
	res.set("ring.msgs_per_token", ratio(count("ring.originated"), tokens), "ratio")
	res.set("ring.rotation_mean_us", meanUs("ring.rotation"), "us")
	res.set("ring.retransmissions", count("ring.retransmissions"), "count")
	res.set("ring.throttled", count("ring.throttled"), "count")
	res.set("ring.submit_shed", count("ring.submit_shed"), "count")

	res.set("rm.duplicates_discarded_per_op", perOp(count("rm.duplicates_discarded")), "1/op")
	res.set("rm.retries", count("rm.retries"), "count")
	res.set("rm.overload_rejects", count("rm.overload_rejects"), "count")
	res.set("voting.inv.majority_mean_us", meanUs("voting.inv.majority_latency"), "us")
	res.set("voting.resp.majority_mean_us", meanUs("voting.resp.majority_latency"), "us")
	res.set("voting.value_faults", count("voting.inv.value_faults")+count("voting.resp.value_faults"), "count")

	frames, bytesSent := count("net.sent"), count("net.bytes_sent")
	if r.w.tcp {
		frames, bytesSent = tcpCount("transport.frames_sent"), tcpCount("transport.bytes_sent")
		res.set("tcpmesh.frames_per_op", perOp(frames), "1/op")
	}
	res.set("net.frames_per_op", perOp(frames), "1/op")
	res.set("net.bytes_per_op", perOp(bytesSent), "B/op")

	cpu := (after.cpu - before.cpu).Seconds()
	res.set("process.cpu_util", ratio(cpu, secs*float64(runtime.NumCPU())), "ratio")
	res.set("process.cpu_us_per_op", perOp(cpu*1e6), "us/op")
	res.set("process.allocs_per_op", perOp(float64(after.mem.Mallocs-before.mem.Mallocs)), "1/op")
	res.set("process.alloc_kb_per_op", perOp(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024), "KB/op")
	res.set("process.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	res.set("process.heap_mb_end", float64(after.mem.HeapAlloc)/1e6, "MB")
	res.set("process.goroutines", float64(after.gorout), "count")

	third := (len(samples) - 1) / 3
	firstThird := float64(samples[third].ops - samples[0].ops)
	lastThird := float64(last.ops - samples[len(samples)-1-third].ops)
	res.set("window.drift_ratio", ratio(lastThird, firstThird), "ratio")

	// Only the rpc workloads have a crash phase; it overwrites these.
	res.set("detector.crash_outage_ms", 0, "ms")
	res.set("membership.installs_after_crash", 0, "count")
}

// spanPaths splits each recorded call along the invocation path, in
// microseconds: call start to the first server replica's execution (the
// request path), first to last execution (replica skew), and first
// execution to the end of the call (the response path; one-way calls have
// none). Calls missing a span, because recording switched mid-call, are
// left out.
func (r *run) spanPaths() (toFirst, skew, toReply []float64) {
	r.rec.mu.Lock()
	spans := r.rec.spans
	r.rec.mu.Unlock()
	type path struct {
		call        span
		execs       int
		first, last int64
	}
	paths := make(map[uint64]*path)
	for _, s := range spans {
		if s.Kind == spanCall {
			paths[s.Op] = &path{call: s}
		}
	}
	for _, s := range spans {
		p := paths[s.Op]
		if s.Kind != spanExec || p == nil {
			continue
		}
		if p.execs == 0 || s.Start < p.first {
			p.first = s.Start
		}
		if p.execs == 0 || s.Start > p.last {
			p.last = s.Start
		}
		p.execs++
	}
	for _, p := range paths {
		if p.execs != len(r.servants) {
			continue
		}
		toFirst = append(toFirst, float64(p.first-p.call.Start)/1e3)
		skew = append(skew, float64(p.last-p.first)/1e3)
		if r.w.rpc {
			toReply = append(toReply, float64(p.call.End-p.first)/1e3)
		}
	}
	return toFirst, skew, toReply
}

// env is the environment recorded with every result.
type env struct {
	NProc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	GoVersion      string   `json:"go_version"`
	Seed           uint64   `json:"seed"`
	WindowS        float64  `json:"window_s"`
	Calib          float64  `json:"machine_calib_ns"`
	StealTicks     uint64   `json:"steal_ticks"`
	WindowOps      uint64   `json:"window_ops"`
	SliceOps       []uint64 `json:"slice_ops"` // operations in each twelfth of the window
	LatencySamples int      `json:"latency_samples,omitempty"`
}

func newEnv(opt options) *env {
	return &env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: opt.seed, WindowS: opt.window.Seconds()}
}
