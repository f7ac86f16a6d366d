package ring

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"immune/internal/ids"
	"immune/internal/netsim"
	"immune/internal/obs"
	"immune/internal/sec"
	"immune/internal/wire"
)

// recorder collects fault-detector events thread-safely.
type recorder struct {
	mu           sync.Mutex
	activity     int
	invalid      []string
	mutantTokens int
	mutantMsgs   int
}

func (r *recorder) TokenActivity(ids.ProcessorID, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.activity++
}

func (r *recorder) TokenInvalid(p ids.ProcessorID, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invalid = append(r.invalid, fmt.Sprintf("%s: %s", p, reason))
}

func (r *recorder) MutantToken(ids.ProcessorID, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mutantTokens++
}

func (r *recorder) MutantMessage(ids.ProcessorID, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mutantMsgs++
}

func (r *recorder) counts() (invalid, mutantTok, mutantMsg int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.invalid), r.mutantTokens, r.mutantMsgs
}

// node is one simulated processor running a ring participant.
type node struct {
	id       ids.ProcessorID
	ring     *Ring
	ep       *netsim.Endpoint
	rec      *recorder
	reg      *obs.Registry // this node's own ring.* counters
	mu       sync.Mutex
	deliv    []*wire.Regular
	stopFlag atomic.Bool
	done     chan struct{}
}

// testMetrics gives a ring under test its own registry, so its counters
// can be read back through r.m.
func testMetrics() Metrics { return MetricsFrom(obs.NewRegistry(), "") }

func (n *node) deliveredCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.deliv)
}

func (n *node) deliveredSnapshot() []*wire.Regular {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*wire.Regular(nil), n.deliv...)
}

// loop is the node's single event goroutine.
func (n *node) loop() {
	defer close(n.done)
	for !n.stopFlag.Load() {
		f, ok := n.ep.TryRecv()
		if !ok {
			n.ring.Tick()
			time.Sleep(100 * time.Microsecond)
			continue
		}
		kind, err := wire.PeekKind(f.Payload)
		if err != nil {
			continue
		}
		switch kind {
		case wire.KindToken:
			n.ring.HandleToken(f.Payload)
		case wire.KindRegular:
			n.ring.HandleRegular(f.Payload)
		}
	}
}

// cluster wires up n ring participants over a netsim network.
type cluster struct {
	t     *testing.T
	net   *netsim.Network
	nodes []*node
}

// newCluster builds a cluster at the given security level. Keys are
// generated deterministically per processor. Options mutate each node's
// ring Config before construction.
func newCluster(t *testing.T, nProcs int, level sec.Level, netCfg netsim.Config, opts ...func(*Config)) *cluster {
	t.Helper()
	nw := netsim.New(netCfg)
	members := make([]ids.ProcessorID, nProcs)
	for i := range members {
		members[i] = ids.ProcessorID(i + 1)
	}

	keyRing := sec.NewKeyRing()
	keys := make(map[ids.ProcessorID]*sec.KeyPair, nProcs)
	if level >= sec.LevelSignatures {
		for _, p := range members {
			kp, err := sec.GenerateKeyPair(sec.DefaultModulusBits, sec.NewSeededReader(uint64(p)+1000))
			if err != nil {
				t.Fatal(err)
			}
			keys[p] = kp
			keyRing.Register(p, kp.Public())
		}
	}

	c := &cluster{t: t, net: nw}
	for _, p := range members {
		ep, err := nw.Attach(p)
		if err != nil {
			t.Fatal(err)
		}
		suite, err := sec.NewSuite(level, p, keys[p], keyRing)
		if err != nil {
			t.Fatal(err)
		}
		nd := &node{id: p, ep: ep, rec: &recorder{}, reg: obs.NewRegistry(), done: make(chan struct{})}
		cfg := Config{
			Self:    p,
			Members: members,
			Ring:    1,
			Suite:   suite,
			Trans:   ep,
			Obs:     nd.rec,
			// No idle pacing: these clusters spin the token at full speed.
			Knobs:   Knobs{IdleDelay: -1},
			Metrics: MetricsFrom(nd.reg, ""),
			Deliver: func(m *wire.Regular) {
				nd.mu.Lock()
				defer nd.mu.Unlock()
				nd.deliv = append(nd.deliv, m)
			},
		}
		for _, opt := range opts {
			opt(&cfg)
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nd.ring = r
		c.nodes = append(c.nodes, nd)
	}
	return c
}

// start kicks the token off and launches all event loops. Kickstart runs
// before the loops so all protocol-state access stays on one goroutine per
// node (frames it multicasts simply wait in mailboxes).
func (c *cluster) start() {
	c.nodes[0].ring.Kickstart()
	for _, n := range c.nodes {
		go n.loop()
	}
}

// stop terminates the cluster.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		n.stopFlag.Store(true)
	}
	for _, n := range c.nodes {
		<-n.done
	}
	c.net.Close()
}

// waitDelivered blocks until every node has delivered want messages, or
// the deadline passes.
func (c *cluster) waitDelivered(want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, n := range c.nodes {
			if n.deliveredCount() < want {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// checkAgreement verifies Total Order and Integrity (Table 2): every pair
// of nodes delivered identical prefixes, and no node delivered a sequence
// number twice.
func (c *cluster) checkAgreement() {
	c.t.Helper()
	var logs [][]*wire.Regular
	for _, n := range c.nodes {
		log := n.deliveredSnapshot()
		seen := make(map[uint64]bool, len(log))
		for i, m := range log {
			if seen[m.Seq] {
				c.t.Fatalf("node %s delivered seq %d twice", n.id, m.Seq)
			}
			seen[m.Seq] = true
			if i > 0 && log[i-1].Seq >= m.Seq {
				c.t.Fatalf("node %s delivered out of order: %d then %d", n.id, log[i-1].Seq, m.Seq)
			}
		}
		logs = append(logs, log)
	}
	for i := 1; i < len(logs); i++ {
		a, b := logs[0], logs[i]
		min := len(a)
		if len(b) < min {
			min = len(b)
		}
		for j := 0; j < min; j++ {
			if a[j].Seq != b[j].Seq || a[j].Sender != b[j].Sender ||
				string(a[j].Contents) != string(b[j].Contents) {
				c.t.Fatalf("nodes %s and %s disagree at position %d: %v vs %v",
					c.nodes[0].id, c.nodes[i].id, j, a[j], b[j])
			}
		}
	}
}
