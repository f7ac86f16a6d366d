// Benchmarks regenerating the paper's evaluation (§8, Figure 7) and the
// ablations called out in DESIGN.md. Each Figure 7 case measures the
// packet-driver workload: one-way invocations with a small fixed body,
// throughput taken at the (replicated) server. Absolute numbers are
// simulator numbers; the reproduction target is the ordering
// case 1 > case 2 > case 3 >> case 4 and the signature-dominated cost of
// case 4. Run with:
//
//	go test -bench=Figure7 -benchmem .
package immune_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"immune"
	"immune/internal/ids"
	"immune/internal/iiop"
	"immune/internal/sec"
	"immune/internal/wire"
)

const (
	benchSinkGroup   = immune.GroupID(1)
	benchDriverGroup = immune.GroupID(2)
	benchSinkKey     = "sink"
)

// benchSystem is a started 6-processor system with a 3-way replicated
// sink and driver.
type benchSystem struct {
	sys     *immune.System
	sink    *immune.PacketSink
	drivers []*immune.Object
}

func newBenchSystem(b *testing.B, cfg immune.Config, serverDegree int) *benchSystem {
	b.Helper()
	if cfg.Processors == 0 {
		cfg.Processors = 6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 77
	}
	sys, err := immune.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sys.Start()
	b.Cleanup(sys.Stop)

	bs := &benchSystem{sys: sys}
	for i := 0; i < serverDegree; i++ {
		pid := immune.ProcessorID(i + 1)
		p, err := sys.Processor(pid)
		if err != nil {
			b.Fatal(err)
		}
		sink := immune.NewPacketSink()
		if i == 0 {
			bs.sink = sink
		}
		r, err := p.HostServer(benchSinkGroup, benchSinkKey, sink)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.WaitActive(20 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	for pid := immune.ProcessorID(4); pid <= 6; pid++ {
		p, err := sys.Processor(pid)
		if err != nil {
			b.Fatal(err)
		}
		c, err := p.NewClient(benchDriverGroup)
		if err != nil {
			b.Fatal(err)
		}
		c.Bind(benchSinkKey, benchSinkGroup)
		if err := c.Replica().WaitActive(20 * time.Second); err != nil {
			b.Fatal(err)
		}
		bs.drivers = append(bs.drivers, c.Object(benchSinkKey))
	}
	return bs
}

// runPacketDriver pushes b.N one-way invocations from every driver replica
// and waits until the sink has processed them all, so ns/op is the
// amortized per-invocation service time at the server.
func (bs *benchSystem) runPacketDriver(b *testing.B, body []byte) {
	b.Helper()
	base := bs.sink.Received()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range bs.drivers {
			// The loop is unpaced, so past the bounded submit queue the
			// processor sheds with ErrOverloaded: back off and re-send.
			// The re-send is a new invocation at this replica (the shed
			// one used up its operation number), so its later copies pair
			// with its peers' next ones and the sink may decide a few
			// operations beyond b.N; the timer stops at b.N.
			err := d.InvokeOneWay("push", body)
			for wait := 100 * time.Microsecond; errors.Is(err, immune.ErrOverloaded); {
				time.Sleep(wait)
				if wait < 5*time.Millisecond {
					wait *= 2
				}
				err = d.InvokeOneWay("push", body)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	want := base + uint64(b.N)
	deadline := time.Now().Add(5 * time.Minute)
	for bs.sink.Received() < want {
		if time.Now().After(deadline) {
			b.Fatalf("sink stalled at %d of %d", bs.sink.Received(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "invocations/sec")
}

// BenchmarkFigure7Case1 is the unreplicated, no-Immune baseline over the
// in-process loopback ORB.
func BenchmarkFigure7Case1(b *testing.B) {
	sink := immune.NewPacketSink()
	base, err := immune.NewBaseline(benchSinkKey, sink)
	if err != nil {
		b.Fatal(err)
	}
	defer base.Close()
	obj := base.Object(benchSinkKey)
	body := immune.PacketPayload(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.InvokeOneWay("push", body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "invocations/sec")
}

// BenchmarkFigure7Case1TCP is the baseline over genuine IIOP on a TCP
// socket (closer to the paper's VisiBroker deployment).
func BenchmarkFigure7Case1TCP(b *testing.B) {
	sink := immune.NewPacketSink()
	base, err := immune.NewBaselineTCP(benchSinkKey, sink)
	if err != nil {
		b.Fatal(err)
	}
	defer base.Close()
	obj := base.Object(benchSinkKey)
	body := immune.PacketPayload(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.InvokeOneWay("push", body); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "invocations/sec")
}

// BenchmarkFigure7Case2: 3-way active replication, reliable totally
// ordered multicast, no digests or signatures.
func BenchmarkFigure7Case2(b *testing.B) {
	bs := newBenchSystem(b, immune.Config{
		Level: immune.LevelNone,
	}, 3)
	bs.runPacketDriver(b, immune.PacketPayload(16))
}

// BenchmarkFigure7Case3: + majority voting + message digests.
func BenchmarkFigure7Case3(b *testing.B) {
	bs := newBenchSystem(b, immune.Config{
		Level: immune.LevelDigests,
	}, 3)
	bs.runPacketDriver(b, immune.PacketPayload(16))
}

// BenchmarkFigure7Case4: + digitally signed tokens (full Immune).
func BenchmarkFigure7Case4(b *testing.B) {
	bs := newBenchSystem(b, immune.Config{
		Level: immune.LevelSignatures,
	}, 3)
	bs.runPacketDriver(b, immune.PacketPayload(16))
}

// BenchmarkFigure7Calibrated re-runs cases 2-4 with signature cost
// calibrated to the paper's 167 MHz UltraSPARC testbed (CryptoWorkFactor
// 100 ≈ the 1999 ratio of RSA cost to protocol cost). On modern CPUs a
// 300-bit RSA signature is ~1000× cheaper than in 1999 while protocol
// costs shrank far less, so the uncalibrated cases 2-4 are within noise
// of each other; calibration restores the paper's case-4 collapse.
func BenchmarkFigure7Calibrated(b *testing.B) {
	cases := []struct {
		name  string
		level immune.Level
	}{
		{"case2", immune.LevelNone},
		{"case3", immune.LevelDigests},
		{"case4", immune.LevelSignatures},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			bs := newBenchSystem(b, immune.Config{
				Level:            c.level,
				CryptoWorkFactor: 100,
			}, 3)
			bs.runPacketDriver(b, immune.PacketPayload(16))
		})
	}
}

// BenchmarkAblationTokenBatch varies j, the number of messages multicast
// per token visit: one signature is amortized over j messages (§8), so
// throughput at LevelSignatures should rise with j.
func BenchmarkAblationTokenBatch(b *testing.B) {
	for _, j := range []int{1, 3, 6, 12} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			bs := newBenchSystem(b, immune.Config{
				Level:      immune.LevelSignatures,
				TokenBatch: j,
			}, 3)
			bs.runPacketDriver(b, immune.PacketPayload(16))
		})
	}
}

// BenchmarkAblationModulusBits varies the RSA modulus size: signature
// generation time grows with the modulus, trading performance against the
// level of security attained (§8).
func BenchmarkAblationModulusBits(b *testing.B) {
	for _, bits := range []int{300, 512, 1024} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			bs := newBenchSystem(b, immune.Config{
				Level:       immune.LevelSignatures,
				ModulusBits: bits,
			}, 3)
			bs.runPacketDriver(b, immune.PacketPayload(16))
		})
	}
}

// BenchmarkAblationReplication varies the server replication degree: more
// replicas mean more response copies and higher voting thresholds.
func BenchmarkAblationReplication(b *testing.B) {
	for _, r := range []int{1, 3, 5} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			bs := newBenchSystem(b, immune.Config{Level: immune.LevelSignatures}, r)
			bs.runPacketDriver(b, immune.PacketPayload(16))
		})
	}
}

// BenchmarkTwoWayInvoke measures the full replicated RPC path: input
// voting at the servers plus output voting at the clients (Figure 4).
func BenchmarkTwoWayInvoke(b *testing.B) {
	bs := newBenchSystem(b, immune.Config{Level: immune.LevelSignatures}, 3)
	body := immune.PacketPayload(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// All three client replicas issue the same call; wait for all
		// voted replies (the slowest bounds the round).
		errs := make(chan error, len(bs.drivers))
		for _, d := range bs.drivers {
			go func(d *immune.Object) {
				_, err := d.Invoke("push", body)
				errs <- err
			}(d)
		}
		for range bs.drivers {
			if err := <-errs; err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rpc/sec")
}

// --- Hot-path micro-benchmarks ---
//
// The end-to-end Figure 7 cases above measure latency-bound system
// throughput; the micro-benchmarks below isolate the per-operation cost of
// the protocol hot path — token sign/verify (the case-4 tax) and the wire
// and GIOP encode/decode paths — so a regression in any one layer shows up
// directly instead of hiding inside system noise. Run with:
//
//	go test -bench=HotPath -benchmem .

// microSuites builds two signature-level suites (a signer and a verifier)
// sharing one key ring, mirroring a two-processor exchange.
func microSuites(b *testing.B) (signer, verifier *sec.Suite) {
	b.Helper()
	kr := sec.NewKeyRing()
	var kps [2]*sec.KeyPair
	for i := range kps {
		kp, err := sec.GenerateKeyPair(sec.DefaultModulusBits, sec.NewSeededReader(uint64(i)+7000))
		if err != nil {
			b.Fatal(err)
		}
		kps[i] = kp
		kr.Register(ids.ProcessorID(i+1), kp.Public())
	}
	s1, err := sec.NewSuite(sec.LevelSignatures, 1, kps[0], kr)
	if err != nil {
		b.Fatal(err)
	}
	s2, err := sec.NewSuite(sec.LevelSignatures, 2, kps[1], kr)
	if err != nil {
		b.Fatal(err)
	}
	return s1, s2
}

// microToken is a representative mid-rotation token.
func microToken() *wire.Token {
	return &wire.Token{
		Sender: 1, Ring: 1, Visit: 30, Seq: 12, Aru: 10, AruSetter: 2,
		RtrList: []uint64{11},
		DigestList: []wire.DigestEntry{
			{Seq: 11, Digest: sec.Digest([]byte("m11"))},
			{Seq: 12, Digest: sec.Digest([]byte("m12"))},
		},
		PrevTokenDigest: sec.Digest([]byte("prev")),
	}
}

func BenchmarkHotPathTokenSign(b *testing.B) {
	signer, _ := microSuites(b)
	sp := microToken().SignedPortion()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.SignToken(sp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathTokenVerify(b *testing.B) {
	signer, verifier := microSuites(b)
	sp := microToken().SignedPortion()
	sig, err := signer.SignToken(sp)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !verifier.VerifyToken(1, sp, sig) {
			b.Fatal("valid signature rejected")
		}
	}
}

// BenchmarkHotPathTokenVerifyBatch measures the bounded-worker parallel
// fan-out used by the event loop's batch preverification.
func BenchmarkHotPathTokenVerifyBatch(b *testing.B) {
	signer, verifier := microSuites(b)
	const batch = 8
	items := make([]sec.TokenVerification, batch)
	for i := range items {
		tok := microToken()
		tok.Visit += uint64(i)
		sp := tok.SignedPortion()
		sig, err := signer.SignToken(sp)
		if err != nil {
			b.Fatal(err)
		}
		items[i] = sec.TokenVerification{Sender: 1, Signed: sp, Sig: sig}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, okv := range verifier.VerifyTokenBatch(items) {
			if !okv {
				b.Fatal("valid signature rejected")
			}
		}
	}
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "verifies/sec")
}

func BenchmarkHotPathTokenMarshal(b *testing.B) {
	sig := make([]byte, 38)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok := microToken()
		tok.Signature = sig
		_ = tok.Marshal()
	}
}

func BenchmarkHotPathTokenUnmarshal(b *testing.B) {
	tok := microToken()
	tok.Signature = make([]byte, 38)
	raw := tok.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := wire.UnmarshalToken(raw)
		if err != nil {
			b.Fatal(err)
		}
		_ = d.SignedPortion()
	}
}

func BenchmarkHotPathRegularRoundTrip(b *testing.B) {
	raw := (&wire.Regular{Sender: 2, Ring: 1, Seq: 7, Contents: make([]byte, 64)}).Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := wire.UnmarshalRegular(raw)
		if err != nil {
			b.Fatal(err)
		}
		_ = m.Digest()
	}
}

func BenchmarkHotPathRequestMarshal(b *testing.B) {
	req := &iiop.Request{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("group:42"),
		Operation:        "push",
		Principal:        []byte{},
		Body:             make([]byte, 128),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = req.Marshal()
	}
}

func BenchmarkHotPathRequestParse(b *testing.B) {
	req := &iiop.Request{
		RequestID: 7, ResponseExpected: true,
		ObjectKey: []byte("group:42"), Operation: "push",
		Principal: []byte{}, Body: make([]byte, 128),
	}
	raw := req.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := iiop.Parse(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageSizes sweeps the invocation body size at full
// survivability.
func BenchmarkMessageSizes(b *testing.B) {
	for _, size := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("body=%dB", size), func(b *testing.B) {
			bs := newBenchSystem(b, immune.Config{Level: immune.LevelSignatures}, 3)
			b.SetBytes(int64(size))
			bs.runPacketDriver(b, immune.PacketPayload(size))
		})
	}
}
