package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"immune"
	"immune/internal/obs"
	"immune/internal/transport"
	"immune/internal/transport/tcpmesh"
)

const (
	serverGroup = immune.GroupID(1)
	clientGroup = immune.GroupID(2)
	objectKey   = "sink"
	opName      = "push"

	// onewayWindow is how many one-way invocations the packet driver keeps
	// outstanding (sent − executed at P1's replica).
	onewayWindow = 64
	// windowSlices divides the measurement window for the drift ratio
	// (thirds) and, in the traced pass, for alternating span recording
	// off/on (halves), so it is a multiple of 6.
	windowSlices = 12

	// suspectTimeout is the one setting that is not the library's default
	// (50 ms). A shared host can hold a vCPU for longer than that; the fault
	// detector then suspects a correct processor, the membership excludes
	// it, and the run has lost a replica: calls time out, or a server
	// replica stops executing. The detector has no part in fault-free
	// operation, so nothing measured in the window depends on this; only
	// the crash phase's outage does, which is one to three timeouts long.
	suspectTimeout = time.Second

	stallLimit  = 10 * time.Second // no progress for this long stops the run
	warmupLimit = 4                // warm-up may take this many time floors
	activeWait  = 30 * time.Second
)

// workload is one row of the README's workload table.
type workload struct {
	name     string
	level    immune.Level
	tcp      bool          // tcpmesh loopback instead of netsim
	latency  time.Duration // netsim link latency
	rpc      bool          // two-way closed-loop caller instead of the one-way pump
	warmTime time.Duration // warm-up floor in time ...
	warmOps  uint64        // ... and in operations; the window opens when both are met
	crashOps int           // calls made after CrashProcessor(3); 0 = no crash phase
}

// The four workloads of BENCHMARK.json, in the order they run.
// BENCHMARK.json records why each exists; README.md has the full table.
// None of them needs anything from the machine but CPU and memory.
var workloads = []workload{
	// Figure 7 case 4 at saturation: CPU-bound, the transport does nothing.
	{name: "oneway_sig", level: immune.LevelSignatures,
		warmTime: 5 * time.Second, warmOps: 10000},
	// No digest or signature: what a sec change must not move.
	{name: "oneway_none", level: immune.LevelNone,
		warmTime: 5 * time.Second, warmOps: 10000},
	// The layers of oneway_sig used for two-way calls: latency is the product.
	{name: "rpc_sig", level: immune.LevelSignatures, rpc: true,
		warmTime: 15 * time.Second, warmOps: 10000, crashOps: 300},
	// Latency-bound: token rotation over 300us links sets the call time.
	{name: "rpc_lan", level: immune.LevelSignatures, rpc: true, latency: 300 * time.Microsecond,
		warmTime: 5 * time.Second, warmOps: 500, crashOps: 300},
}

// extraWorkloads run only when named with -workload. They are not in
// BENCHMARK.json because they need more than CPU and memory: the driver's
// checkout need not have a loopback interface that is up.
var extraWorkloads = []workload{
	// oneway_none over real loopback sockets: the only workload whose
	// frames leave the process.
	{name: "oneway_none_tcp", level: immune.LevelNone, tcp: true,
		warmTime: 5 * time.Second, warmOps: 10000},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range append(workloads[:len(workloads):len(workloads)], extraWorkloads...) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run in one pass. Its first four fields are the
// driver contract's result object; the rest goes to the -out file only.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string   `json:"workload,omitempty"`
	Pass     string   `json:"pass,omitempty"`
	Env      *env     `json:"env,omitempty"`
	Problems []string `json:"problems,omitempty"`

	spans []span // the traced pass's recording, for -spans
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// servant is the benchmark's counting server object: deterministic, returns
// its running count, and checks that the i-th invocation it executes is the
// i-th one issued (total order and at-most-once, seen from the server).
type servant struct {
	replica int
	rec     *recorder
	onExec  func(n uint64, at time.Time) // P1's replica only

	mu         sync.Mutex
	n          uint64
	outOfOrder uint64
}

func (s *servant) Invoke(op string, args []byte) ([]byte, error) {
	var at time.Time
	if s.onExec != nil || s.rec.on.Load() {
		at = time.Now()
	}
	s.mu.Lock()
	s.n++
	n := s.n
	if len(args) != bodySize || binary.BigEndian.Uint64(args[8:]) != n {
		s.outOfOrder++
	}
	s.mu.Unlock()
	if s.onExec != nil {
		s.onExec(n, at)
	}
	if s.rec.on.Load() {
		s.rec.add(span{Op: n, Kind: spanExec, Replica: uint8(s.replica), Start: s.rec.since(at), End: s.rec.since(time.Now())})
	}
	e := immune.NewEncoder()
	e.WriteULongLong(n)
	return e.Bytes(), nil
}

func (s *servant) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := immune.NewEncoder()
	e.WriteULongLong(s.n)
	return e.Bytes()
}

func (s *servant) Restore(snap []byte) error {
	v, err := immune.NewDecoder(snap).ReadULongLong()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.n = v
	s.mu.Unlock()
	return nil
}

func (s *servant) executed() (n, outOfOrder uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n, s.outOfOrder
}

const bodySize = 16

// bodies makes the invocation bodies from the seed: 8 seeded bytes, then
// the 1-based invocation index the servant checks.
type bodies struct{ prefix [8]byte }

func newBodies(seed uint64) bodies {
	var b bodies
	rand.New(rand.NewSource(int64(seed))).Read(b.prefix[:])
	return b
}

func (b bodies) body(i uint64) []byte {
	p := make([]byte, bodySize)
	copy(p, b.prefix[:])
	binary.BigEndian.PutUint64(p[8:], i)
	return p
}

// options are what a pass changes about a run.
type options struct {
	seed   uint64
	window time.Duration
	traced bool
	// The workload's own floors and crash phase in every measured run;
	// the smoke test shortens them.
	warmTime time.Duration
	warmOps  uint64
	crashOps int
}

func (w workload) options(seed uint64, window time.Duration, traced bool) options {
	return options{seed: seed, window: window, traced: traced,
		warmTime: w.warmTime, warmOps: w.warmOps, crashOps: w.crashOps}
}

// run is one workload execution: a fresh system, its driver and its checks.
type run struct {
	w   workload
	opt options
	rec *recorder

	sys      *immune.System
	tcpReg   *obs.Registry // transport.* counters on tcp; nil on netsim
	servants [3]*servant
	objs     [3]*immune.Object
	bodies   bodies

	attempted atomic.Uint64 // invocations issued
	failed    atomic.Uint64 // invocations that returned an error
	progress  atomic.Uint64 // executed at P1 (one-way) or calls completed (rpc)
	badReply  atomic.Uint64 // rpc replies that were not the call's index

	recording atomic.Bool // latency samples are kept (inside the window)
	latMu     sync.Mutex
	lat       []float64 // ms

	// one-way: send times by invocation index, read by P1's servant.
	sendAt [4 * onewayWindow]atomic.Int64
	room   chan struct{} // P1 executed something: the pump may have room

	problems []string
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// errStalled reports a run the watchdog stopped.
var errStalled = errors.New("no progress")

// build creates and starts the common deployment: six processors, server
// group 1 on P1-P3, client group 2 on P4-P6, every replica active.
func (r *run) build() error {
	cfg := immune.Config{Processors: 6, Level: r.w.level, Seed: r.opt.seed, NetLatency: r.w.latency,
		SuspectTimeout: suspectTimeout}
	if r.w.tcp {
		if err := loopbackUp(); err != nil {
			return err
		}
		r.tcpReg = obs.NewRegistry()
		listeners := make(map[immune.ProcessorID]net.Listener, cfg.Processors)
		peers := make(map[immune.ProcessorID]string, cfg.Processors)
		for p := immune.ProcessorID(1); int(p) <= cfg.Processors; p++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range listeners {
					l.Close()
				}
				return fmt.Errorf("listen: %w", err)
			}
			listeners[p], peers[p] = ln, ln.Addr().String()
		}
		cfg.Transport = func(p immune.ProcessorID, ring int) (immune.TransportEndpoint, error) {
			return tcpmesh.New(tcpmesh.Config{Self: p, Ring: ring, Peers: peers, Listener: listeners[p],
				Seed: r.opt.seed, Metrics: transport.MetricsFrom(r.tcpReg)})
		}
	}
	sys, err := immune.New(cfg)
	if err != nil {
		return fmt.Errorf("new system: %w", err)
	}
	sys.Start()
	r.sys = sys
	for i := range r.servants {
		p, err := sys.Processor(immune.ProcessorID(i + 1))
		if err != nil {
			return err
		}
		s := &servant{replica: i, rec: r.rec}
		if i == 0 && !r.w.rpc {
			s.onExec = r.onewayExecuted
		}
		r.servants[i] = s
		rep, err := p.HostServer(serverGroup, objectKey, s)
		if err != nil {
			return fmt.Errorf("host server on P%d: %w", i+1, err)
		}
		if err := rep.WaitActive(activeWait); err != nil {
			return fmt.Errorf("server replica on P%d: %w", i+1, err)
		}
	}
	for i := range r.objs {
		p, err := sys.Processor(immune.ProcessorID(i + 4))
		if err != nil {
			return err
		}
		c, err := p.NewClient(clientGroup)
		if err != nil {
			return fmt.Errorf("client on P%d: %w", i+4, err)
		}
		c.Bind(objectKey, serverGroup)
		if err := c.Replica().WaitActive(activeWait); err != nil {
			return fmt.Errorf("client replica on P%d: %w", i+4, err)
		}
		r.objs[i] = c.Object(objectKey)
	}
	return nil
}

// onewayExecuted runs inside P1's servant for every one-way invocation.
func (r *run) onewayExecuted(n uint64, at time.Time) {
	r.progress.Store(n)
	if r.recording.Load() {
		sent := r.sendAt[n%uint64(len(r.sendAt))].Load()
		r.latMu.Lock()
		r.lat = append(r.lat, float64(at.UnixNano()-sent)/1e6)
		r.latMu.Unlock()
	}
	select {
	case r.room <- struct{}{}:
	default:
	}
}

// pumpOneWay is the packet driver: one goroutine that keeps onewayWindow
// invocations outstanding, each issued by all three client replicas.
func (r *run) pumpOneWay(stop <-chan struct{}) {
	for i := uint64(1); ; i++ {
		for i-r.progress.Load() > onewayWindow {
			select {
			case <-r.room:
			case <-stop:
				return
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		body := r.bodies.body(i)
		start := time.Now()
		r.sendAt[i%uint64(len(r.sendAt))].Store(start.UnixNano())
		r.attempted.Add(1)
		ok := true
		for _, o := range r.objs {
			if err := o.InvokeOneWay(opName, body); err != nil {
				ok = false
			}
		}
		if !ok {
			r.failed.Add(1)
		}
		if r.rec.on.Load() {
			r.rec.add(span{Op: i, Kind: spanCall, Start: r.rec.since(start), End: r.rec.since(time.Now())})
		}
	}
}

// caller is the one logical rpc client: three replica goroutines that sit
// blocked in Invoke, released together for each call.
type caller struct {
	r     *run
	start [3]chan uint64
	done  chan error
	next  uint64 // index of the next call
	wg    sync.WaitGroup
}

func (r *run) newCaller() *caller {
	c := &caller{r: r, done: make(chan error, len(r.objs)), next: 1}
	for k := range r.objs {
		c.start[k] = make(chan uint64)
		c.wg.Add(1)
		go c.replica(k)
	}
	return c
}

func (c *caller) replica(k int) {
	defer c.wg.Done()
	r := c.r
	for i := range c.start[k] {
		start := time.Now()
		reply, err := r.objs[k].Invoke(opName, r.bodies.body(i))
		if err == nil {
			if got, derr := immune.NewDecoder(reply).ReadULongLong(); derr != nil || got != i {
				r.badReply.Add(1)
			}
		}
		if r.rec.on.Load() {
			r.rec.add(span{Op: i, Kind: spanInvoke, Replica: uint8(k), Start: r.rec.since(start), End: r.rec.since(time.Now())})
		}
		c.done <- err
	}
}

// call makes one logical call and returns how long it took: from its start
// until all three client replicas hold the voted reply.
func (c *caller) call() (time.Duration, error) {
	r := c.r
	i := c.next
	c.next++
	r.attempted.Add(1)
	start := time.Now()
	for k := range c.start {
		c.start[k] <- i
	}
	var err error
	for range c.start {
		if e := <-c.done; e != nil {
			err = e
		}
	}
	end := time.Now()
	if err != nil {
		r.failed.Add(1)
		return 0, err
	}
	if r.rec.on.Load() {
		r.rec.add(span{Op: i, Kind: spanCall, Start: r.rec.since(start), End: r.rec.since(end)})
	}
	r.progress.Add(1)
	if r.recording.Load() {
		r.latMu.Lock()
		r.lat = append(r.lat, float64(end.Sub(start))/1e6)
		r.latMu.Unlock()
	}
	return end.Sub(start), nil
}

// loop calls until stop is closed.
func (c *caller) loop(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		c.call() // a failed call is counted; the next one still runs
	}
}

func (c *caller) close() {
	for k := range c.start {
		close(c.start[k])
	}
	c.wg.Wait()
}

// waitProgress sleeps until cond holds, checking every millisecond. It
// gives up with errStalled when progress stands still for stallLimit or
// limit (if non-zero) passes.
func (r *run) waitProgress(limit time.Duration, cond func() bool) error {
	begin := time.Now()
	last, lastAt := r.progress.Load(), begin
	for !cond() {
		time.Sleep(time.Millisecond)
		now := time.Now()
		if p := r.progress.Load(); p != last {
			last, lastAt = p, now
		} else if now.Sub(lastAt) > stallLimit {
			return fmt.Errorf("%w for %v at %d operations", errStalled, stallLimit, last)
		}
		if limit > 0 && now.Sub(begin) > limit {
			return fmt.Errorf("%w: still waiting after %v at %d operations", errStalled, limit, last)
		}
	}
	return nil
}

// sample is the progress counter at one slice boundary of the window.
type sample struct {
	at  time.Time
	ops uint64
}

// execute runs the workload and fills res. A non-nil error means the run
// was cut short (build failure or watchdog); res still holds the counts.
func (r *run) execute(res *result) error {
	r.bodies = newBodies(r.opt.seed)
	r.room = make(chan struct{}, 1)
	r.lat = make([]float64, 0, 1<<16)
	calib := calibrate()

	setupStart := time.Now()
	err := r.build()
	if r.sys != nil {
		defer r.sys.Stop()
	}
	if err != nil {
		return err
	}
	built := time.Now()

	stop := make(chan struct{})
	var driver sync.WaitGroup
	var c *caller
	driver.Add(1)
	if r.w.rpc {
		c = r.newCaller()
		defer c.close()
		go func() { defer driver.Done(); c.loop(stop) }()
	} else {
		go func() { defer driver.Done(); r.pumpOneWay(stop) }()
	}
	stopDriver := sync.OnceFunc(func() { close(stop); driver.Wait() })
	defer stopDriver()

	err = r.measure(res, setupStart, built, calib)
	stopDriver()
	if err == nil && r.opt.crashOps > 0 {
		err = r.crashPhase(res, c)
	}
	r.drainAndVerify(res, err == nil)
	return err
}

// measure is warm-up plus the window.
func (r *run) measure(res *result, setupStart, built time.Time, calib float64) error {
	// Warm-up: both floors, counted from the end of the build so that a
	// slower build shows in setup_s instead of eating the warm-up.
	err := r.waitProgress(warmupLimit*r.opt.warmTime, func() bool {
		return time.Since(built) >= r.opt.warmTime && r.progress.Load() >= r.opt.warmOps
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	var before, after probe
	stealBefore := stealTicks()
	if r.opt.traced {
		before = r.probe()
	}
	samples := make([]sample, 0, windowSlices+1)
	r.recording.Store(true)
	open := time.Now()
	samples = append(samples, sample{open, r.progress.Load()})
	for k := 1; k <= windowSlices; k++ {
		// Odd slices of a traced window record spans; even ones do not,
		// so the two halves measure the recording's own cost.
		r.rec.on.Store(r.opt.traced && k%2 == 1)
		next := open.Add(r.opt.window * time.Duration(k) / windowSlices)
		err := r.waitProgress(0, func() bool { return !time.Now().Before(next) })
		samples = append(samples, sample{time.Now(), r.progress.Load()})
		if err != nil {
			r.recording.Store(false)
			r.rec.on.Store(false)
			return fmt.Errorf("window: %w", err)
		}
	}
	r.recording.Store(false)
	r.rec.on.Store(false)
	if r.opt.traced {
		after = r.probe()
	}
	steal := stealTicks() - stealBefore

	first, last := samples[0], samples[windowSlices]
	secs := last.at.Sub(first.at).Seconds()
	ops := float64(last.ops - first.ops)
	res.Env.Calib = calib
	res.Env.StealTicks = steal
	res.Env.WindowOps = uint64(ops)
	for k := 1; k < len(samples); k++ {
		res.Env.SliceOps = append(res.Env.SliceOps, samples[k].ops-samples[k-1].ops)
	}
	if !r.opt.traced {
		res.set("throughput_per_s", ops/secs, "1/s")
		res.set("setup_s", open.Sub(setupStart).Seconds(), "s")
		r.latMu.Lock()
		lat := append([]float64(nil), r.lat...)
		r.latMu.Unlock()
		sort.Float64s(lat)
		res.Env.LatencySamples = len(lat)
		for _, p := range []struct {
			name string
			q    float64
		}{{"latency_p50_ms", 0.50}, {"latency_p99_ms", 0.99}} {
			v, err := percentile(lat, p.q)
			if err != nil {
				r.problem("%s: %v", p.name, err)
				continue
			}
			res.set(p.name, v, "ms")
		}
		return nil
	}
	r.layerMetrics(res, before, after, samples)
	res.set("core.build_ms", float64(built.Sub(setupStart))/1e6, "ms")
	res.set("machine.calib_ns", calib, "ns")
	return nil
}

// crashPhase crashes P3 after the window has closed and checks that the
// service carries on: every call succeeds and every survivor excludes P3.
func (r *run) crashPhase(res *result, c *caller) error {
	installs := r.sys.Snapshot().Counter("smp.installs")
	r.sys.CrashProcessor(3)
	var worst time.Duration
	for i := 0; i < r.opt.crashOps; i++ {
		d, err := c.call()
		if err != nil {
			r.problem("call %d after the crash of P3: %v", i+1, err)
			if errors.Is(err, immune.ErrTimeout) {
				return fmt.Errorf("crash phase: %w: %v", errStalled, err)
			}
			continue
		}
		if d > worst {
			worst = d
		}
	}
	for _, pid := range []immune.ProcessorID{1, 2, 4, 5, 6} {
		p, err := r.sys.Processor(pid)
		if err != nil {
			return err
		}
		for _, m := range p.View().Members {
			if m == 3 {
				r.problem("P%d still has P3 in its view after the crash phase", pid)
			}
		}
	}
	if r.opt.traced {
		res.set("detector.crash_outage_ms", float64(worst)/1e6, "ms")
		res.set("membership.installs_after_crash", float64(r.sys.Snapshot().Counter("smp.installs")-installs), "count")
	}
	return nil
}

// drainAndVerify waits for what was issued to be executed everywhere and
// applies the output checks. complete is false for a run cut short.
func (r *run) drainAndVerify(res *result, complete bool) {
	live := r.servants[:]
	if r.opt.crashOps > 0 && complete {
		live = r.servants[:2]
	}
	want := r.attempted.Load() - r.failed.Load()
	executedEverywhere := func() bool {
		for _, s := range live {
			if n, _ := s.executed(); n < want {
				return false
			}
		}
		return true
	}
	if complete {
		// The slowest replica's count stands in for progress here.
		deadline := time.Now().Add(stallLimit)
		for !executedEverywhere() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	p1 := live[0].Snapshot()
	for i, s := range live {
		n, ooo := s.executed()
		if n != want {
			r.problem("server replica P%d executed %d invocations, want %d", i+1, n, want)
		}
		if ooo != 0 {
			r.problem("server replica P%d executed %d invocations out of issue order", i+1, ooo)
		}
		if !bytes.Equal(s.Snapshot(), p1) {
			r.problem("server replica P%d snapshot differs from P1's", i+1)
		}
	}
	if n := r.badReply.Load(); n != 0 {
		r.problem("%d rpc replies were not the call's index", n)
	}
	snap := r.sys.Snapshot()
	for _, name := range []string{"voting.inv.value_faults", "voting.resp.value_faults", "ring.submit_shed", "rm.overload_rejects"} {
		if v := snap.Counter(name); v != 0 {
			r.problem("%s = %d, want 0", name, v)
		}
	}

	res.Attempted = r.attempted.Load()
	res.Failed = r.failed.Load()
	if n, _ := r.servants[0].executed(); n < want {
		// Issued without error but never executed: failed all the same.
		res.Failed += want - n
	}
	res.Problems = r.problems
	res.Correct = complete && len(r.problems) == 0
}

// calibrate times a fixed spin loop, to tell a disturbed machine from a
// slower program. Median of five.
func calibrate() float64 {
	return medianOfBatches(5, func() float64 {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		elapsed := time.Since(start)
		if x == 0 { // never: xorshift has no zero state; keeps the loop alive
			return 0
		}
		return float64(elapsed)
	})
}

// runWorkload executes one workload in one pass.
func runWorkload(w workload, opt options) (*result, error) {
	runtime.GC()
	pass := "e2e"
	if opt.traced {
		pass = "traced"
	}
	res := &result{Metrics: map[string]metric{}, Workload: w.name, Pass: pass, Env: newEnv(opt)}
	r := &run{w: w, opt: opt, rec: newRecorder()}
	err := r.execute(res)
	res.spans = r.rec.spans
	if err != nil {
		res.Correct = false
		res.Problems = append(res.Problems, err.Error())
	}
	return res, err
}
