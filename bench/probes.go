package main

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"time"

	"immune"
	"immune/internal/group"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/netsim"
	"immune/internal/ring"
	"immune/internal/sec"
	"immune/internal/transport"
	"immune/internal/transport/tcpmesh"
	"immune/internal/voting"
	"immune/internal/wire"
)

// Layer probes: direct timed calls into each layer's exported functions,
// with no System running, from one goroutine, at fixed iteration counts.
// Every figure is the median of probeBatches batches.
const probeBatches = 5

// prober collects probe results. scale divides every iteration count; it
// is 1 except in the smoke test.
type prober struct {
	res   *result
	scale int
}

func (p *prober) iters(n int) int {
	if n /= p.scale; n < 1 {
		return 1
	}
	return n
}

// timeOp reports the median time of one fn call as name, in unit (ns, us
// or ms), over probeBatches batches of n calls. With allocs it also
// reports heap allocations per call as name minus its unit suffix plus
// "_allocs".
func (p *prober) timeOp(name string, n int, allocs bool, fn func()) {
	n = p.iters(n)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := medianOfBatches(probeBatches, func() float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(start)) / float64(n)
	})
	runtime.ReadMemStats(&ms)
	p.setDuration(name, per)
	if allocs {
		base := name[:strings.LastIndexByte(name, '_')]
		p.res.set(base+"_allocs", float64(ms.Mallocs-mallocs)/float64(n*probeBatches), "1/op")
	}
}

// setDuration stores ns under name in the unit name ends with.
func (p *prober) setDuration(name string, ns float64) {
	unit := name[strings.LastIndexByte(name, '_')+1:]
	switch unit {
	case "us":
		ns /= 1e3
	case "ms":
		ns /= 1e6
	}
	p.res.set(name, ns, unit)
}

// divide rescales a stored metric, for a probe whose timed call does the
// named thing several times.
func (p *prober) divide(name string, by float64) {
	m := p.res.Metrics[name]
	m.Value /= by
	p.res.Metrics[name] = m
}

// runProbes fills res with every layer-probe metric of BENCHMARK.json and,
// with sockets, the extra ones that need a loopback interface.
func runProbes(res *result, scale int, sockets bool) error {
	p := &prober{res: res, scale: scale}
	probes := []func() error{p.sec, p.codecs, p.voting, p.ring, p.orb, p.netsim}
	if sockets {
		probes = append(probes, p.sockets)
	}
	for _, f := range probes {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// probeKeys generates n keypairs at the default modulus from fixed seeds
// and registers them for processors 1..n.
func probeKeys(n int) ([]*sec.KeyPair, *sec.KeyRing, error) {
	kr := sec.NewKeyRing()
	keys := make([]*sec.KeyPair, n)
	for i := range keys {
		kp, err := sec.GenerateKeyPair(sec.DefaultModulusBits, sec.NewSeededReader(uint64(i)+7000))
		if err != nil {
			return nil, nil, err
		}
		keys[i] = kp
		kr.Register(ids.ProcessorID(i+1), kp.Public())
	}
	return keys, kr, nil
}

// probeToken is a mid-rotation token carrying a full batch of six digests.
func probeToken(visit uint64) *wire.Token {
	t := &wire.Token{Sender: 1, Ring: 1, Visit: visit, Seq: 6 * visit, Aru: 6*visit - 6, AruSetter: 2,
		PrevTokenDigest: sec.Digest([]byte("prev"))}
	for i := uint64(0); i < 6; i++ {
		t.DigestList = append(t.DigestList, wire.DigestEntry{Seq: t.Aru + 1 + i, Digest: t.PrevTokenDigest})
	}
	return t
}

func (p *prober) sec() error {
	const nKeys = 6
	var keys []*sec.KeyPair
	var kr *sec.KeyRing
	var err error
	p.timeOp("sec.keygen_ms", 1, false, func() {
		// The same seeds every batch, so the prime search does the same work.
		if keys, kr, err = probeKeys(nKeys); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	p.divide("sec.keygen_ms", nKeys)

	signer, err := sec.NewSuite(sec.LevelSignatures, 1, keys[0], kr)
	if err != nil {
		return err
	}
	verifier, err := sec.NewSuite(sec.LevelSignatures, 2, keys[1], kr)
	if err != nil {
		return err
	}
	msg := (&wire.Regular{Sender: 1, Ring: 1, Seq: 7, Contents: make([]byte, 96)}).Marshal()
	var digest [sec.DigestSize]byte
	p.timeOp("sec.digest_ns", 200000, false, func() { digest = sec.Digest(msg) })
	if digest != sec.Digest(msg) {
		return fmt.Errorf("sec probe: the digest of one message changed")
	}

	signed := probeToken(30).SignedPortion()
	var sig []byte
	p.timeOp("sec.sign_ns", 1000, false, func() { sig, err = signer.SignToken(signed) })
	if err != nil {
		return err
	}
	ok := true
	p.timeOp("sec.verify_ns", 4000, false, func() { ok = verifier.VerifyToken(1, signed, sig) && ok })
	items := make([]sec.TokenVerification, 6)
	for i := range items {
		sp := probeToken(uint64(31 + i)).SignedPortion()
		s, err := signer.SignToken(sp)
		if err != nil {
			return err
		}
		items[i] = sec.TokenVerification{Sender: 1, Signed: sp, Sig: s}
	}
	p.timeOp("sec.verify_batch6_ns", 1000, false, func() {
		for _, v := range verifier.VerifyTokenBatch(items) {
			ok = ok && v
		}
	})
	if !ok {
		return fmt.Errorf("sec probe: a valid signature was rejected")
	}
	return nil
}

func (p *prober) codecs() error {
	sig := make([]byte, 38)
	var raw []byte
	p.timeOp("wire.token_marshal_ns", 50000, true, func() {
		t := probeToken(30)
		t.Signature = sig
		raw = t.Marshal()
	})
	var err error
	p.timeOp("wire.token_unmarshal_ns", 50000, true, func() { _, err = wire.UnmarshalToken(raw) })
	if err != nil {
		return err
	}
	contents := make([]byte, 96)
	p.timeOp("wire.regular_marshal_ns", 100000, true, func() {
		raw = (&wire.Regular{Sender: 2, Ring: 1, Seq: 7, Contents: contents}).Marshal()
	})
	p.timeOp("wire.regular_unmarshal_ns", 100000, true, func() { _, err = wire.UnmarshalRegular(raw) })
	if err != nil {
		return err
	}

	req := &iiop.Request{RequestID: 7, ResponseExpected: true, ObjectKey: []byte(objectKey), Operation: opName,
		Body: make([]byte, bodySize)}
	p.timeOp("iiop.request_marshal_ns", 100000, true, func() { raw = req.Marshal() })
	p.timeOp("iiop.request_parse_ns", 100000, true, func() { _, err = iiop.Parse(raw) })
	if err != nil {
		return err
	}

	gm := &group.Message{Kind: group.KindInvocation, Dest: ids.ObjectGroupID(serverGroup),
		Op:     ids.OperationID{ClientGroup: ids.ObjectGroupID(clientGroup), Seq: 7},
		Sender: ids.ReplicaID{Group: ids.ObjectGroupID(clientGroup), Processor: 4}, Payload: raw}
	p.timeOp("group.marshal_ns", 100000, true, func() { raw = gm.Marshal() })
	p.timeOp("group.unmarshal_ns", 100000, true, func() { _, err = group.Unmarshal(raw) })
	return err
}

// voting times three OfferDigest copies to a decision, for a young client
// group (operations 1-8,000, before the voter's sequence window fills) and
// for an old one (past operation 10,000).
func (p *prober) voting() error {
	const (
		young     = 8000
		oldFrom   = 10000
		oldBatch  = 2000
		cgroup    = ids.ObjectGroupID(clientGroup)
		firstProc = ids.ProcessorID(4)
	)
	payload := make([]byte, 64)
	d := sec.Digest(payload)
	undecided := 0
	decide := func(v *voting.Voter, from, to uint64) float64 {
		start := time.Now()
		for seq := from; seq <= to; seq++ {
			op := ids.OperationID{ClientGroup: cgroup, Seq: seq}
			var out voting.Outcome
			for k := ids.ProcessorID(0); k < 3; k++ {
				if o := v.OfferDigest(op, ids.ReplicaID{Group: cgroup, Processor: firstProc + k}, payload, d); o.Decided {
					out = o
				}
			}
			if !out.Decided {
				undecided++
			}
		}
		return float64(time.Since(start)) / float64(to-from+1)
	}
	degree := func(ids.ObjectGroupID) int { return 3 }
	n := uint64(p.iters(young))
	p.setDuration("voting.decide_young_ns", medianOfBatches(probeBatches, func() float64 {
		return decide(voting.NewVoter(degree), 1, n)
	}))
	v := voting.NewVoter(degree)
	decide(v, 1, oldFrom)
	next := uint64(oldFrom)
	batch := uint64(p.iters(oldBatch))
	p.setDuration("voting.decide_ns", medianOfBatches(probeBatches, func() float64 {
		from := next + 1
		next += batch
		return decide(v, from, next)
	}))
	if undecided != 0 {
		return fmt.Errorf("voting probe: %d operations undecided after three equal copies", undecided)
	}
	return nil
}

// memRing is a four-member ring stepped synchronously: every multicast is
// queued and then handed, one private copy each, to the other members.
type memRing struct {
	rings   []*ring.Ring
	queue   []memFrame
	visits  int           // token frames dispatched
	regular time.Duration // time inside HandleRegular, when timeRegular
	handled int           // HandleRegular calls
	timeReg bool
}

type memFrame struct {
	from    int
	payload []byte
}

type memTransport struct {
	net  *memRing
	self int
}

func (t memTransport) Multicast(payload []byte) {
	t.net.queue = append(t.net.queue, memFrame{t.self, payload})
}

func newMemRing(level sec.Level, keys []*sec.KeyPair, kr *sec.KeyRing) (*memRing, error) {
	const members = 4
	m := &memRing{}
	all := make([]ids.ProcessorID, members)
	for i := range all {
		all[i] = ids.ProcessorID(i + 1)
	}
	for i := range all {
		suite, err := sec.NewSuite(level, all[i], keys[i], kr)
		if err != nil {
			return nil, err
		}
		r, err := ring.New(ring.Config{Self: all[i], Members: all, Ring: 1, Suite: suite,
			Trans: memTransport{m, i}, Deliver: func(*wire.Regular) {}})
		if err != nil {
			return nil, err
		}
		m.rings = append(m.rings, r)
	}
	return m, nil
}

// step dispatches queued frames until the token has been passed visits
// more times.
func (m *memRing) step(visits int) error {
	target := m.visits + visits
	for m.visits < target {
		if len(m.queue) == 0 {
			return fmt.Errorf("ring probe: the token was lost after %d visits", m.visits)
		}
		f := m.queue[0]
		m.queue = m.queue[1:]
		kind, err := wire.PeekKind(f.payload)
		if err != nil {
			return err
		}
		if kind == wire.KindToken {
			m.visits++
		}
		for i, r := range m.rings {
			if i == f.from {
				continue
			}
			cp := append([]byte(nil), f.payload...)
			switch {
			case kind == wire.KindToken:
				r.HandleToken(cp)
			case m.timeReg:
				start := time.Now()
				r.HandleRegular(cp)
				m.regular += time.Since(start)
				m.handled++
			default:
				r.HandleRegular(cp)
			}
		}
	}
	return nil
}

// load queues perVisit submissions at every member for each of its holds
// in the next visits visits.
func (m *memRing) load(visits, perVisit int, contents []byte) error {
	for _, r := range m.rings {
		for i := 0; i < perVisit*(visits/len(m.rings)+1); i++ {
			if err := r.Submit(contents); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *prober) ring() error {
	const visitsPerBatch = 400
	keys, kr, err := probeKeys(4)
	if err != nil {
		return err
	}
	contents := make([]byte, 96)
	visits := p.iters(visitsPerBatch)
	for _, c := range []struct {
		name    string
		level   sec.Level
		timeReg bool
	}{
		{"ring.visit_none_ns", sec.LevelNone, false},
		{"ring.visit_sig_ns", sec.LevelSignatures, false},
		{"ring.deliver_ns_per_msg", sec.LevelNone, true},
	} {
		m, err := newMemRing(c.level, keys, kr)
		if err != nil {
			return err
		}
		m.timeReg = c.timeReg
		m.rings[0].Kickstart()
		if err := m.step(8); err != nil { // two rotations, so the aru window has history
			return err
		}
		per := medianOfBatches(probeBatches, func() float64 {
			if err = m.load(visits, ring.DefaultMaxPerVisit, contents); err != nil {
				return 0
			}
			m.regular, m.handled = 0, 0
			start := time.Now()
			if err = m.step(visits); err != nil {
				return 0
			}
			if c.timeReg {
				return ratio(float64(m.regular), float64(m.handled))
			}
			return float64(time.Since(start)) / float64(visits)
		})
		if err != nil {
			return err
		}
		// The last visit's batch is still queued when stepping stops.
		if got, want := m.rings[1].Delivered(), uint64(ring.DefaultMaxPerVisit*(visits*probeBatches-1)); got < want {
			return fmt.Errorf("ring probe %s: delivered %d messages, want at least %d", c.name, got, want)
		}
		if c.timeReg {
			p.res.set(c.name, per, "ns")
		} else {
			p.setDuration(c.name, per)
		}
	}
	return nil
}

// orb times the unreplicated Figure 7 case 1: the single-node baseline
// every replicated number is read against.
func (p *prober) orb() error {
	body := make([]byte, bodySize)
	loop, err := immune.NewBaseline(objectKey, immune.NewPacketSink())
	if err != nil {
		return err
	}
	defer loop.Close()
	obj := loop.Object(objectKey)
	p.timeOp("orb.baseline_oneway_ns", 100000, false, func() { err = obj.InvokeOneWay(opName, body) })
	if err != nil {
		return err
	}
	p.timeOp("orb.baseline_twoway_ns", 100000, false, func() { _, err = obj.Invoke(opName, body) })
	return err
}

// loopbackUp reports whether a TCP connection to this machine itself can
// be made: a sandbox may give the benchmark a network namespace whose
// loopback interface is down, where listening works and connecting does not.
func loopbackUp() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback unavailable: %w", err)
	}
	defer ln.Close()
	c, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		return fmt.Errorf("loopback unavailable: %w", err)
	}
	return c.Close()
}

// mesh opens n tcpmesh endpoints on loopback, completely connected.
func mesh(n int) ([]*tcpmesh.Endpoint, error) {
	listeners := make([]net.Listener, n)
	peers := make(map[ids.ProcessorID]string, n)
	closeAll := func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners[i] = ln
		peers[ids.ProcessorID(i+1)] = ln.Addr().String()
	}
	eps := make([]*tcpmesh.Endpoint, n)
	for i := range eps {
		ep, err := tcpmesh.New(tcpmesh.Config{Self: ids.ProcessorID(i + 1), Peers: peers, Listener: listeners[i], Seed: 1})
		if err != nil {
			closeAll()
			for _, e := range eps[:i] {
				e.Close()
			}
			return nil, err
		}
		eps[i] = ep
	}
	return eps, nil
}

// recvN takes n frames from ep, waiting on its edge trigger.
func recvN(ep transport.Endpoint, n int) error {
	deadline := time.NewTimer(stallLimit)
	defer deadline.Stop()
	for n > 0 {
		if _, ok := ep.TryRecv(); ok {
			n--
			continue
		}
		select {
		case <-ep.Notify():
		case <-deadline.C:
			return fmt.Errorf("transport probe: %d frames never arrived at P%d", n, ep.ID())
		}
	}
	return nil
}

// multicastProbe times one Multicast from eps[0] until every other
// endpoint has received it, amortized over bursts of burst frames.
func (p *prober) multicastProbe(name string, eps []transport.Endpoint, bursts int) error {
	const burst = 100
	payload := make([]byte, 128)
	var err error
	p.timeOp(name, bursts, false, func() {
		for i := 0; i < burst; i++ {
			eps[0].Multicast(payload)
		}
		for _, ep := range eps[1:] {
			if e := recvN(ep, burst); e != nil {
				err = e
			}
		}
	})
	p.divide(name, burst)
	return err
}

func (p *prober) netsim() error {
	nw := netsim.New(netsim.Config{Seed: 1})
	defer nw.Close()
	eps := make([]transport.Endpoint, 6)
	for i := range eps {
		ep, err := nw.Attach(ids.ProcessorID(i + 1))
		if err != nil {
			return err
		}
		eps[i] = ep
	}
	return p.multicastProbe("netsim.multicast_ns", eps, 200)
}

// sockets holds the probes that cross real loopback sockets. They are
// extras like the oneway_none_tcp workload, and not in BENCHMARK.json.
func (p *prober) sockets() error {
	if err := loopbackUp(); err != nil {
		return err
	}
	body := make([]byte, bodySize)
	tcp, err := immune.NewBaselineTCP(objectKey, immune.NewPacketSink())
	if err != nil {
		return err
	}
	defer tcp.Close()
	obj := tcp.Object(objectKey)
	p.timeOp("orb.baseline_tcp_twoway_us", 2000, false, func() { _, err = obj.Invoke(opName, body) })
	if err != nil {
		return err
	}

	pair, err := mesh(2)
	if err != nil {
		return err
	}
	defer pair[0].Close()
	defer pair[1].Close()
	payload := make([]byte, 128)
	pingPong := func() {
		pair[0].Send(2, payload)
		if e := recvN(pair[1], 1); e != nil {
			err = e
		}
		pair[1].Send(1, payload)
		if e := recvN(pair[0], 1); e != nil {
			err = e
		}
	}
	pingPong() // dial both links
	p.timeOp("tcpmesh.rtt_us", 1000, false, pingPong)
	if err != nil {
		return err
	}

	six, err := mesh(6)
	if err != nil {
		return err
	}
	eps := make([]transport.Endpoint, len(six))
	for i, e := range six {
		defer e.Close()
		eps[i] = e
	}
	return p.multicastProbe("tcpmesh.multicast_ns", eps, 20)
}
