package scenario

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"immune"
)

// Sink is the scenario servant: a deterministic counting register whose
// response can be poisoned for Byzantine windows. Every replica of a group
// sees the same totally ordered operation sequence, so all honest replicas
// return the same count; a lying replica returns a wrong value for the
// voters to out-vote and the value fault detector to flag.
type Sink struct {
	received atomic.Uint64
	lying    atomic.Bool
}

var _ immune.Servant = (*Sink)(nil)

// Invoke counts the operation and returns the running count — poisoned
// while the replica is lying.
func (s *Sink) Invoke(op string, args []byte) ([]byte, error) {
	n := s.received.Add(1)
	e := immune.NewEncoder()
	if s.lying.Load() {
		e.WriteULongLong(n + 0xbad)
	} else {
		e.WriteULongLong(n)
	}
	return e.Bytes(), nil
}

// Snapshot implements immune.Servant.
func (s *Sink) Snapshot() []byte {
	e := immune.NewEncoder()
	e.WriteULongLong(s.received.Load())
	return e.Bytes()
}

// Restore implements immune.Servant.
func (s *Sink) Restore(snap []byte) error {
	v, err := immune.NewDecoder(snap).ReadULongLong()
	if err != nil {
		return err
	}
	s.received.Store(v)
	return nil
}

// Received reports the replica-local processed count.
func (s *Sink) Received() uint64 { return s.received.Load() }

// SetLying turns the Byzantine value fault on or off.
func (s *Sink) SetLying(v bool) { s.lying.Store(v) }

// Scenario is one declarative, seedable chaos experiment: a deployment
// shape, an open-loop load description, a fault schedule, and the SLO the
// run is judged against.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Seed drives everything: system key generation, network jitter, load
	// arrival times, and fault-plan rolls. Same seed, same scenario →
	// same arrival schedule and fault-event sequence.
	Seed uint64 `json:"seed"`

	// Deployment shape. Servers live on processors 1..ServerProcs, one
	// driver client per remaining processor. Defaults: 6 processors, 3
	// server hosts, degree 3, 1 group.
	Processors  int          `json:"processors,omitempty"`
	ServerProcs int          `json:"server_procs,omitempty"`
	Degree      int          `json:"degree,omitempty"`
	Groups      int          `json:"groups,omitempty"`
	Level       immune.Level `json:"level,omitempty"`
	// AutoRecover hosts servers by HostGroup (recovered), not HostServer.
	AutoRecover bool `json:"auto_recover,omitempty"`
	// Rings shards the deployment's object groups over this many token
	// rings (immune.Config.Rings); 0 or 1 is a single ring. Cross-ring
	// scenarios exercise the routing layer: driver clients are homed by
	// their own group ids, which generally differ from the sink groups'
	// home rings.
	Rings int `json:"rings,omitempty"`

	// Tuning passed through to immune.Config (zero = that config's
	// defaults, except CallTimeout which defaults to 8s here so scenario
	// drains stay bounded, and SuspectTimeout which defaults to 250ms —
	// fast enough for crash exclusion inside a scenario window, slow
	// enough that scheduling hiccups on a loaded shared runner are not
	// mistaken for processor death).
	CallTimeout     time.Duration `json:"call_timeout,omitempty"`
	SuspectTimeout  time.Duration `json:"suspect_timeout,omitempty"`
	StrikeThreshold int           `json:"strike_threshold,omitempty"`
	MaxInFlight     int           `json:"max_in_flight,omitempty"`
	MaxSubmitQueue  int           `json:"max_submit_queue,omitempty"`
	MaxBacklog      int           `json:"max_backlog,omitempty"`

	// Duration is the open-loop load window (default 2s); Drain bounds
	// how long the engine waits for in-flight invocations afterwards
	// (default CallTimeout + 1s).
	Duration time.Duration `json:"duration,omitempty"`
	Drain    time.Duration `json:"drain,omitempty"`

	// Load describes the open-loop source. Seed and Groups are overridden
	// by the scenario's own Seed/Groups.
	Load immune.PacketSourceConfig `json:"load"`

	Schedule Schedule `json:"schedule"`
	SLO      SLO      `json:"slo"`
}

// withDefaults fills the zero values.
func (s Scenario) withDefaults() Scenario {
	if s.Processors == 0 {
		s.Processors = 6
	}
	if s.ServerProcs == 0 {
		s.ServerProcs = 3
	}
	if s.Degree == 0 {
		s.Degree = 3
	}
	if s.Groups == 0 {
		s.Groups = 1
	}
	if s.CallTimeout == 0 {
		s.CallTimeout = 8 * time.Second
	}
	if s.SuspectTimeout == 0 {
		s.SuspectTimeout = 250 * time.Millisecond
	}
	if s.Duration == 0 {
		s.Duration = 2 * time.Second
	}
	if s.Drain == 0 {
		s.Drain = s.CallTimeout + time.Second
	}
	if raceEnabled {
		// Race builds run the simulated processors roughly an order of
		// magnitude slower. Scale the open-loop rate down and the liveness
		// timeout up so the SLOs keep measuring protocol behaviour; within
		// one build mode the arrival schedule stays a pure function of
		// (config, seed), so determinism is unaffected.
		if s.Load.Rate > 0 {
			s.Load.Rate /= 4
			if s.Load.Rate < 1 {
				s.Load.Rate = 1
			}
		}
		// ×3: on a loaded single-CPU race runner an innocent processor's
		// event loop can stall past 2× the timeout (signature crypto +
		// GC), and a spurious exclusion changes the scenario being
		// measured — e.g. evicting the Byzantine processor before its
		// lying window, or a client host mid-load.
		s.SuspectTimeout *= 3
	}
	return s
}

// Validate rejects scenarios whose shape cannot be deployed.
func (s Scenario) Validate() error {
	s = s.withDefaults()
	switch {
	case s.Name == "":
		return errors.New("scenario: name required")
	case s.ServerProcs >= s.Processors:
		return fmt.Errorf("scenario %s: %d server hosts leave no client processors (of %d)",
			s.Name, s.ServerProcs, s.Processors)
	case s.Degree > s.ServerProcs:
		return fmt.Errorf("scenario %s: degree %d exceeds %d server hosts", s.Name, s.Degree, s.ServerProcs)
	case s.Load.Rate <= 0:
		return fmt.Errorf("scenario %s: load rate must be > 0", s.Name)
	}
	return s.Schedule.Validate()
}

// Result is the outcome of one scenario run.
type Result struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`

	// Sent counts open-loop arrivals dispatched; every arrival ends up in
	// exactly one of Delivered (voted reply), Shed (ErrOverloaded),
	// Errors (any other failure), or Abandoned (still unresolved when the
	// drain window closed).
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	Shed      uint64 `json:"shed"`
	Errors    uint64 `json:"errors"`
	Abandoned uint64 `json:"abandoned"`

	// ErrorKinds breaks Errors down by failure mode (timeout, degraded,
	// quorum, not_active, other).
	ErrorKinds map[string]uint64 `json:"error_kinds,omitempty"`

	// Recovered is recovery.rehostings; ValueFaults is rm.value_faults.
	Recovered   uint64 `json:"recovered"`
	ValueFaults uint64 `json:"value_faults"`

	// ReconfigFailed counts scheduled join/drain/resize operations that
	// returned an error.
	ReconfigFailed uint64 `json:"reconfig_failed,omitempty"`

	// Latency quantiles of delivered invocations, from the scenario's
	// internal/obs histogram (bucket-interpolated).
	P50  time.Duration `json:"p50"`
	P99  time.Duration `json:"p99"`
	P999 time.Duration `json:"p999"`
	Mean time.Duration `json:"mean"`

	// Events is the deterministic fault-event sequence the schedule
	// expanded to.
	Events []Event `json:"events"`

	Violations []string      `json:"violations"`
	Elapsed    time.Duration `json:"elapsed"`
}

// Passed reports whether the run met its SLO.
func (r *Result) Passed() bool { return len(r.Violations) == 0 }

// groupKey names group g's CORBA object key.
func groupKey(g int) string { return fmt.Sprintf("sink/%d", g) }

// timedAction is one system-level step execution point on the timeline.
type timedAction struct {
	at  time.Duration
	run func()
}

// Run executes the scenario and evaluates its SLO. A returned error means
// the run itself could not be performed (deployment failure, invalid
// scenario); SLO violations are reported in the Result, not as errors.
func Run(s Scenario) (*Result, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	began := time.Now()

	plan := NewPlan(s.Schedule, s.Seed^0x9e3779b97f4a7c15)
	sys, err := immune.New(immune.Config{
		Processors:  s.Processors,
		Rings:       s.Rings,
		Level:       s.Level,
		Seed:        s.Seed,
		Plan:        plan,
		CallTimeout: s.CallTimeout,
		// Drivers re-send within the call deadline like the paper's
		// clients would: re-sends carry the same operation ID and are
		// deduplicated by the replication manager, so an invocation that
		// lost its vote to a membership reconfiguration completes on the
		// settled membership instead of dying at the deadline.
		InvokeRetries:   2,
		SuspectTimeout:  s.SuspectTimeout,
		StrikeThreshold: s.StrikeThreshold,
		MaxInFlight:     s.MaxInFlight,
		MaxSubmitQueue:  s.MaxSubmitQueue,
		MaxBacklog:      s.MaxBacklog,
	})
	if err != nil {
		return nil, err
	}
	sys.Start()
	defer sys.Stop()

	// Host the server groups round-robin across the server processors and
	// remember which sinks live where, so Byzantine steps can flip the
	// replicas of their target processors.
	sinks := map[immune.ProcessorID][]*Sink{}
	var sinksMu sync.Mutex
	for g := 1; g <= s.Groups; g++ {
		hosts := make([]immune.ProcessorID, s.Degree)
		for j := 0; j < s.Degree; j++ {
			hosts[j] = immune.ProcessorID((g-1+j)%s.ServerProcs + 1)
		}
		gid := immune.GroupID(g)
		if s.AutoRecover {
			// HostGroup records the spec for auto re-hosting and calls the
			// factory once per host, in host order; replacements placed
			// later by the recovery manager land on processors of its
			// choosing and stay honest.
			created := 0
			factory := func() immune.Servant {
				sink := &Sink{}
				sinksMu.Lock()
				if created < len(hosts) {
					sinks[hosts[created]] = append(sinks[hosts[created]], sink)
				}
				created++
				sinksMu.Unlock()
				return sink
			}
			replicas, err := sys.HostGroup(gid, groupKey(g), s.Degree, factory, hosts...)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: host group %d: %w", s.Name, g, err)
			}
			for _, r := range replicas {
				if err := r.WaitActive(20 * time.Second); err != nil {
					return nil, fmt.Errorf("scenario %s: group %d: %w", s.Name, g, err)
				}
			}
		} else {
			for _, pid := range hosts {
				p, err := sys.Processor(pid)
				if err != nil {
					return nil, err
				}
				sink := &Sink{}
				sinks[pid] = append(sinks[pid], sink)
				r, err := p.HostServer(gid, groupKey(g), sink)
				if err != nil {
					return nil, fmt.Errorf("scenario %s: host group %d on %s: %w", s.Name, g, pid, err)
				}
				if err := r.WaitActive(20 * time.Second); err != nil {
					return nil, fmt.Errorf("scenario %s: group %d on %s: %w", s.Name, g, pid, err)
				}
			}
		}
	}

	// One driver client per non-server processor, each bound to every
	// group (a large client population spread over many groups is modeled
	// by the open-loop source fanning arrivals across objs and groups).
	type driver struct{ objs []*immune.Object }
	var drivers []driver
	for pid := immune.ProcessorID(s.ServerProcs + 1); int(pid) <= s.Processors; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			return nil, err
		}
		c, err := p.NewClient(immune.GroupID(s.Groups + int(pid)))
		if err != nil {
			return nil, err
		}
		d := driver{objs: make([]*immune.Object, s.Groups)}
		for g := 1; g <= s.Groups; g++ {
			c.Bind(groupKey(g), immune.GroupID(g))
			d.objs[g-1] = c.Object(groupKey(g))
		}
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			return nil, fmt.Errorf("scenario %s: client on %s: %w", s.Name, pid, err)
		}
		drivers = append(drivers, d)
	}

	// The scenario's own obs metrics live in the system registry, so SLO
	// evaluation and the -json artifact read from the same place as every
	// protocol-layer metric.
	reg := sys.Metrics()
	latency := reg.Histogram("scenario.latency")
	delivered := reg.Counter("scenario.delivered")
	shed := reg.Counter("scenario.shed")
	hardErrs := reg.Counter("scenario.errors")

	// Expand the open-loop arrival schedule up front (deterministic), and
	// the system-level steps into a sorted timeline.
	loadCfg := s.Load
	loadCfg.Seed = s.Seed
	loadCfg.Groups = s.Groups
	arrivals := immune.NewPacketSource(loadCfg).TakeUntil(s.Duration)

	// Reconfiguration steps run asynchronously (a drain blocks until its
	// migrations settle, and must not stall later timeline actions) but
	// are awaited before the run is judged, so a straggling operation
	// cannot touch a stopped system. Failures land in a counter rather
	// than failing the run: the SLO judges the client-visible outcome.
	var reconfigWG sync.WaitGroup
	reconfigFailed := reg.Counter("scenario.reconfig_failed")
	const reconfigTimeout = 20 * time.Second
	async := func(op func() error) {
		reconfigWG.Add(1)
		go func() {
			defer reconfigWG.Done()
			if err := op(); err != nil {
				reconfigFailed.Inc()
				if os.Getenv("IMMUNE_SCENARIO_DEBUG") != "" {
					fmt.Println("DBG reconfig:", err)
				}
			}
		}()
	}

	var actions []timedAction
	for _, st := range s.Schedule.Steps {
		st := st
		switch st.Kind {
		case StepJoin:
			actions = append(actions, timedAction{st.At, func() {
				for _, pid := range st.Processors {
					pid := pid
					async(func() error { return sys.AddProcessor(pid, reconfigTimeout) })
				}
			}})
		case StepDrain:
			actions = append(actions, timedAction{st.At, func() {
				for _, pid := range st.Processors {
					pid := pid
					async(func() error { return sys.DrainProcessor(pid, reconfigTimeout) })
				}
			}})
		case StepResize:
			actions = append(actions, timedAction{st.At, func() {
				async(func() error {
					return sys.ResizeGroup(immune.GroupID(st.Group), st.Degree, reconfigTimeout)
				})
			}})
		case StepCrash:
			actions = append(actions, timedAction{st.At, func() {
				for _, pid := range st.Processors {
					sys.CrashProcessor(pid)
				}
			}})
		case StepRestart:
			actions = append(actions, timedAction{st.At, func() {
				for _, pid := range st.Processors {
					sys.ReattachProcessor(pid)
				}
			}})
		case StepByzantine:
			setLying := func(v bool) {
				sinksMu.Lock()
				defer sinksMu.Unlock()
				for _, pid := range st.Processors {
					for _, sink := range sinks[pid] {
						sink.SetLying(v)
					}
				}
			}
			actions = append(actions, timedAction{st.At, func() { setLying(true) }})
			actions = append(actions, timedAction{st.At + st.For, func() { setLying(false) }})
		}
	}
	sort.SliceStable(actions, func(a, b int) bool { return actions[a].at < actions[b].at })

	start := time.Now()
	plan.Start()
	timelineDone := make(chan struct{})
	stopTimeline := make(chan struct{})
	go func() {
		defer close(timelineDone)
		for _, a := range actions {
			select {
			case <-stopTimeline:
				return
			case <-time.After(time.Until(start.Add(a.at))):
			}
			a.run()
		}
	}()

	// Open-loop dispatch: sleep until each arrival's offset and fire it in
	// its own goroutine — never pacing on completions. Falling behind real
	// time bursts the backlog out immediately, which is exactly what an
	// open-loop population does to a slow system.
	var wg sync.WaitGroup
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.At)); d > 0 {
			time.Sleep(d)
		}
		obj := drivers[i%len(drivers)].objs[a.Group]
		wg.Add(1)
		go func(payload []byte) {
			defer wg.Done()
			t0 := time.Now()
			_, err := obj.Invoke("push", payload)
			switch {
			case err == nil:
				latency.Observe(time.Since(t0))
				delivered.Inc()
			case errors.Is(err, immune.ErrOverloaded):
				shed.Inc()
			default:
				hardErrs.Inc()
				// Classify for the snapshot: which failure mode dominated
				// matters when diagnosing an SLO violation.
				switch {
				case errors.Is(err, immune.ErrTimeout):
					reg.Counter("scenario.err.timeout").Inc()
				case errors.Is(err, immune.ErrGroupDegraded):
					reg.Counter("scenario.err.degraded").Inc()
				case errors.Is(err, immune.ErrQuorumLost):
					reg.Counter("scenario.err.quorum").Inc()
				case errors.Is(err, immune.ErrNotActive):
					reg.Counter("scenario.err.not_active").Inc()
				default:
					reg.Counter("scenario.err.other").Inc()
				}
			}
		}(a.Payload)
	}

	// Drain: wait for in-flight invocations, bounded.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(time.Until(start.Add(s.Duration + s.Drain))):
	}
	close(stopTimeline)
	<-timelineDone
	reconfigWG.Wait() // reconfigurations are bounded by their own timeout

	if s.SLO.RequireRecovered {
		// Recovery rides on membership exclusion, which fires a liveness
		// timeout after the crash — often after the last in-flight call
		// has already drained. Give the re-hosting a bounded window
		// before judging the SLO (exits immediately once it lands).
		deadline := time.Now().Add(2*s.SuspectTimeout + 5*time.Second)
		for time.Now().Before(deadline) &&
			sys.Snapshot().Counter("recovery.rehostings") == 0 {
			time.Sleep(25 * time.Millisecond)
		}
	}

	snap := sys.Snapshot()
	if os.Getenv("IMMUNE_SCENARIO_DEBUG") != "" {
		var names []string
		for n, v := range snap.Counters {
			if v > 0 {
				names = append(names, fmt.Sprintf("%s=%d", n, v))
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println("DBG counter", n)
		}
		for pid := immune.ProcessorID(1); int(pid) <= s.Processors; pid++ {
			if p, err := sys.Processor(pid); err == nil {
				fmt.Printf("DBG view %s: %v\n", pid, p.View().Members)
			}
		}
	}
	hv := snap.Histograms["scenario.latency"]
	res := &Result{
		Name:           s.Name,
		Seed:           s.Seed,
		Sent:           uint64(len(arrivals)),
		Delivered:      snap.Counter("scenario.delivered"),
		Shed:           snap.Counter("scenario.shed"),
		Errors:         snap.Counter("scenario.errors"),
		Recovered:      snap.Counter("recovery.rehostings"),
		ValueFaults:    snap.Counter("rm.value_faults"),
		ReconfigFailed: snap.Counter("scenario.reconfig_failed"),
		P50:            hv.Quantile(0.50),
		P99:            hv.Quantile(0.99),
		P999:           hv.Quantile(0.999),
		Mean:           hv.Mean(),
		Events:         s.Schedule.Events(),
		Elapsed:        time.Since(began),
	}
	res.Abandoned = res.Sent - res.Delivered - res.Shed - res.Errors
	for name, v := range snap.Counters {
		if v > 0 && len(name) > len("scenario.err.") && name[:len("scenario.err.")] == "scenario.err." {
			if res.ErrorKinds == nil {
				res.ErrorKinds = map[string]uint64{}
			}
			res.ErrorKinds[name[len("scenario.err."):]] = v
		}
	}
	res.Violations = s.SLO.Check(res)
	return res, nil
}
