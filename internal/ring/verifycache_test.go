package ring

import (
	"sync/atomic"
	"testing"

	"immune/internal/ids"
	"immune/internal/sec"
	"immune/internal/wire"
)

// countingSuite wraps a real *sec.Suite and counts VerifyToken calls, so
// tests can pin down exactly how often the RSA machinery runs.
type countingSuite struct {
	inner    *sec.Suite
	verifies atomic.Int64
}

func (c *countingSuite) SecurityLevel() sec.Level { return c.inner.SecurityLevel() }

func (c *countingSuite) SignToken(tokenBytes []byte) ([]byte, error) {
	return c.inner.SignToken(tokenBytes)
}

func (c *countingSuite) VerifyToken(sender ids.ProcessorID, tokenBytes, sig []byte) bool {
	c.verifies.Add(1)
	return c.inner.VerifyToken(sender, tokenBytes, sig)
}

// countingBatchSuite additionally implements BatchVerifier, routing each
// batch item through the counted VerifyToken so batch work is visible too.
type countingBatchSuite struct{ countingSuite }

func (c *countingBatchSuite) VerifyTokenBatch(items []sec.TokenVerification) []bool {
	out := make([]bool, len(items))
	for i, it := range items {
		out[i] = c.VerifyToken(it.Sender, it.Signed, it.Sig)
	}
	return out
}

// signedFixture is a single ring participant at LevelSignatures with a
// counting crypto suite, plus the sender-side suite used to forge tokens
// "from" processor 1. Self is 3 so that accepting a token from 1 never
// makes this ring the holder (successor of 1 is 2): the receive path is
// exercised in isolation.
type signedFixture struct {
	ring   *Ring
	rec    *recorder
	sender *sec.Suite // processor 1's suite, for signing test tokens
}

func newSignedFixture(t *testing.T, wrap func(*sec.Suite) CryptoSuite) *signedFixture {
	t.Helper()
	members := []ids.ProcessorID{1, 2, 3}
	keyRing := sec.NewKeyRing()
	keys := make(map[ids.ProcessorID]*sec.KeyPair, len(members))
	for _, p := range members {
		kp, err := sec.GenerateKeyPair(sec.DefaultModulusBits, sec.NewSeededReader(uint64(p)+2000))
		if err != nil {
			t.Fatal(err)
		}
		keys[p] = kp
		keyRing.Register(p, kp.Public())
	}
	senderSuite, err := sec.NewSuite(sec.LevelSignatures, 1, keys[1], keyRing)
	if err != nil {
		t.Fatal(err)
	}
	selfSuite, err := sec.NewSuite(sec.LevelSignatures, 3, keys[3], keyRing)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	r, err := New(Config{
		Self: 3, Members: members, Ring: 1,
		Suite: wrap(selfSuite), Trans: transportFunc(func([]byte) {}),
		Obs:     rec,
		Deliver: func(*wire.Regular) {},
		Metrics: testMetrics(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &signedFixture{ring: r, rec: rec, sender: senderSuite}
}

// signedToken builds and signs a token from processor 1.
func (f *signedFixture) signedToken(t *testing.T, visit, seq uint64, prev [sec.DigestSize]byte) []byte {
	t.Helper()
	tok := &wire.Token{Sender: 1, Ring: 1, Visit: visit, Seq: seq, PrevTokenDigest: prev}
	sig, err := f.sender.SignToken(tok.SignedPortion())
	if err != nil {
		t.Fatal(err)
	}
	tok.Signature = sig
	return tok.Marshal()
}

// TestVerifyOncePerDistinctToken is the regression net for the verify
// cache: K distinct tokens, each fed three times, must cost exactly K
// signature verifications — retransmitted duplicates are free.
func TestVerifyOncePerDistinctToken(t *testing.T) {
	var cs *countingSuite
	f := newSignedFixture(t, func(s *sec.Suite) CryptoSuite {
		cs = &countingSuite{inner: s}
		return cs
	})

	const k = 5
	var prev [sec.DigestSize]byte
	for v := uint64(1); v <= k; v++ {
		raw := f.signedToken(t, v, 0, prev)
		for rep := 0; rep < 3; rep++ {
			f.ring.HandleToken(append([]byte(nil), raw...))
		}
		prev = sec.Digest(raw)
	}
	if got := f.ring.m.TokenVisits.Load(); got != k {
		t.Fatalf("accepted %d token visits, want %d", got, k)
	}
	if got := cs.verifies.Load(); got != k {
		t.Fatalf("%d signature verifications for %d distinct tokens (x3 arrivals), want exactly %d", got, k, k)
	}
}

// TestMutantDuplicateVerifiedOnce: a validly signed mutant token (same
// visit, different contents) is detected on every arrival but RSA-verified
// only on the first — the cache memoizes the verdict, not the detection.
func TestMutantDuplicateVerifiedOnce(t *testing.T) {
	var cs *countingSuite
	f := newSignedFixture(t, func(s *sec.Suite) CryptoSuite {
		cs = &countingSuite{inner: s}
		return cs
	})

	orig := f.signedToken(t, 1, 0, [sec.DigestSize]byte{})
	f.ring.HandleToken(append([]byte(nil), orig...))
	if f.ring.m.TokenVisits.Load() != 1 {
		t.Fatal("original token not accepted")
	}

	mutant := f.signedToken(t, 1, 1, [sec.DigestSize]byte{}) // same visit, different seq
	for rep := 0; rep < 3; rep++ {
		f.ring.HandleToken(append([]byte(nil), mutant...))
	}
	if _, mt, _ := f.rec.counts(); mt != 3 {
		t.Fatalf("mutant token detected %d times, want 3 (every arrival)", mt)
	}
	// One verify for the original, one for the mutant; the two repeat
	// arrivals of the mutant hit the cache.
	if got := cs.verifies.Load(); got != 2 {
		t.Fatalf("%d signature verifications, want 2 (original + mutant once)", got)
	}
}

// TestForgedTokenNeverAccepted: the cache must never convert a cached
// verdict into acceptance of different bytes. A corrupted signature and a
// mutated signed portion are each rejected on every arrival, and the
// cached negative verdict makes the repeats free.
func TestForgedTokenNeverAccepted(t *testing.T) {
	var cs *countingSuite
	f := newSignedFixture(t, func(s *sec.Suite) CryptoSuite {
		cs = &countingSuite{inner: s}
		return cs
	})

	good := f.signedToken(t, 1, 0, [sec.DigestSize]byte{})

	// Forgery 1: valid fields, corrupted signature (last byte flipped).
	forged := append([]byte(nil), good...)
	forged[len(forged)-1] ^= 0x5a
	for rep := 0; rep < 5; rep++ {
		f.ring.HandleToken(append([]byte(nil), forged...))
	}
	if got := f.ring.m.TokenRejects.Load(); got != 5 {
		t.Fatalf("forged token rejected %d times, want 5", got)
	}
	if got := cs.verifies.Load(); got != 1 {
		t.Fatalf("%d verifications for 5 arrivals of one forgery, want 1 (cached negative)", got)
	}
	if f.ring.m.TokenVisits.Load() != 0 {
		t.Fatal("forged token was accepted")
	}

	// Forgery 2: genuine signature over mutated contents (a byte of the
	// Seq field flipped). The triple (sender, signed bytes, signature)
	// differs from anything cached, so it is verified afresh — and fails.
	mutated := append([]byte(nil), good...)
	mutated[1+4+4+8] ^= 0xff // first byte of Seq
	f.ring.HandleToken(mutated)
	if f.ring.m.TokenVisits.Load() != 0 {
		t.Fatal("mutated token was accepted")
	}
	if got := f.ring.m.TokenRejects.Load(); got != 6 {
		t.Fatalf("rejects = %d, want 6", got)
	}

	// The untampered token still goes through: negative verdicts for the
	// forgeries must not poison the genuine triple.
	f.ring.HandleToken(good)
	if f.ring.m.TokenVisits.Load() != 1 {
		t.Fatal("genuine token rejected after forgeries")
	}
}

// TestPreverifyWarmsCache: a batch preverify pays all the RSA cost; the
// serial HandleToken dispatch that follows finds every verdict memoized.
func TestPreverifyWarmsCache(t *testing.T) {
	var cs *countingBatchSuite
	f := newSignedFixture(t, func(s *sec.Suite) CryptoSuite {
		cs = &countingBatchSuite{countingSuite{inner: s}}
		return cs
	})

	raw1 := f.signedToken(t, 1, 0, [sec.DigestSize]byte{})
	raw2 := f.signedToken(t, 2, 0, sec.Digest(raw1))
	f.ring.PreverifyTokens([][]byte{append([]byte(nil), raw1...), append([]byte(nil), raw2...)})
	if got := cs.verifies.Load(); got != 2 {
		t.Fatalf("preverify ran %d verifications, want 2", got)
	}

	f.ring.HandleToken(raw1)
	f.ring.HandleToken(raw2)
	if got := f.ring.m.TokenVisits.Load(); got != 2 {
		t.Fatalf("accepted %d tokens after preverify, want 2", got)
	}
	if got := cs.verifies.Load(); got != 2 {
		t.Fatalf("dispatch after preverify ran %d extra verifications, want 0", got-2)
	}

	// Preverifying the same batch again is free: every key is cached.
	f.ring.PreverifyTokens([][]byte{raw1, raw2})
	if got := cs.verifies.Load(); got != 2 {
		t.Fatalf("re-preverify ran %d extra verifications, want 0", got-2)
	}
}

// TestVerifyCacheEviction: the clear-at-cap policy must keep the map
// bounded and keep answering correctly afterwards.
func TestVerifyCacheEviction(t *testing.T) {
	c := newVerifyCache()
	for i := 0; i < verifyCacheCap+10; i++ {
		var k verifyKey
		k.sender = ids.ProcessorID(i)
		c.store(k, true)
		if len(c.m) > verifyCacheCap {
			t.Fatalf("cache grew to %d past cap %d", len(c.m), verifyCacheCap)
		}
	}
	var last verifyKey
	last.sender = ids.ProcessorID(verifyCacheCap + 9)
	if v, ok := c.lookup(last); !ok || !v {
		t.Fatal("entry stored after eviction not found")
	}
}
