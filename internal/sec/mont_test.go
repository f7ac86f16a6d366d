package sec

import (
	"bytes"
	"math/big"
	"math/rand/v2"
	"testing"
)

// natInt converts x to a big.Int.
func natInt(x *nat) *big.Int {
	z := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		z.Lsh(z, 64)
		z.Or(z, new(big.Int).SetUint64(x[i]))
	}
	return z
}

// refSign is the math/big oracle for Sign: plain m^d mod N, with d derived
// from the key's primes and public exponent.
func refSign(kp *KeyPair, digest []byte) []byte {
	one := big.NewInt(1)
	p, q := natInt(&kp.p.n), natInt(&kp.q.n)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	d := new(big.Int).ModInverse(kp.pub.E, phi)
	m := new(big.Int).SetBytes(digest)
	m.Mod(m, kp.pub.N)
	return new(big.Int).Exp(m, d, kp.pub.N).Bytes()
}

// refVerify is the math/big oracle for Verify: s^e mod N == digest mod N,
// with s < N and neither input empty.
func refVerify(pk *PublicKey, digest, sig []byte) bool {
	if len(sig) == 0 || len(digest) == 0 {
		return false
	}
	s := new(big.Int).SetBytes(sig)
	if s.Cmp(pk.N) >= 0 {
		return false
	}
	want := new(big.Int).SetBytes(digest)
	want.Mod(want, pk.N)
	return new(big.Int).Exp(s, pk.E, pk.N).Cmp(want) == 0
}

var kernelSizes = []int{64, 65, 127, 128, 129, 191, 192, 300, 512, 1024, 2048}

// edgeDigests are digests at and around N and zero: for the small moduli
// every 16-byte digest is already at least N.
func edgeDigests(n *big.Int) [][]byte {
	var out [][]byte
	for _, delta := range []int64{-1, 0, 1} {
		out = append(out, new(big.Int).Add(n, big.NewInt(delta)).Bytes())
	}
	return append(out,
		new(big.Int).Lsh(n, 1).Bytes(),
		new(big.Int).Mul(n, n).Bytes(),
		[]byte{0}, []byte{0, 0, 1}, bytes.Repeat([]byte{0xff}, 600))
}

func TestSignMatchesReference(t *testing.T) {
	for _, bits := range kernelSizes {
		kp := testKeyPair(t, bits, uint64(bits)*31+1)
		rng := rand.New(rand.NewPCG(uint64(bits), 7))
		digests := edgeDigests(kp.pub.N)
		for i := 0; i < 500; i++ {
			d := make([]byte, 1+rng.IntN(40))
			for j := range d {
				d[j] = byte(rng.Uint32())
			}
			digests = append(digests, d)
		}
		for _, d := range digests {
			got, err := kp.Sign(d)
			if err != nil {
				t.Fatalf("bits=%d: Sign(%x): %v", bits, d, err)
			}
			if want := refSign(kp, d); !bytes.Equal(got, want) {
				t.Fatalf("bits=%d: Sign(%x) = %x, reference %x", bits, d, got, want)
			}
		}
	}
}

func TestVerifyMatchesReference(t *testing.T) {
	for _, bits := range kernelSizes {
		kp := testKeyPair(t, bits, uint64(bits)*31+2)
		other := testKeyPair(t, bits, uint64(bits)*31+3)
		pub := kp.Public()
		byHand := &PublicKey{N: new(big.Int).Set(pub.N), E: new(big.Int).Set(pub.E)}
		n := pub.N
		rng := rand.New(rand.NewPCG(uint64(bits), 8))
		type tc struct{ digest, sig []byte }
		var cases []tc
		for i := 0; i < 50; i++ {
			d := make([]byte, 16)
			for j := range d {
				d[j] = byte(rng.Uint32())
			}
			sig, err := kp.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			forged, err := other.Sign(d)
			if err != nil {
				t.Fatal(err)
			}
			tampered := append([]byte(nil), sig...)
			tampered[rng.IntN(len(tampered))] ^= 1 << rng.IntN(8)
			cases = append(cases,
				tc{d, sig}, tc{d, tampered}, tc{d, forged},
				tc{d, append(make([]byte, 1+rng.IntN(8*maxLimbs+9)), sig...)},
				tc{new(big.Int).Add(new(big.Int).SetBytes(d), n).Bytes(), sig})
		}
		for _, s := range []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).Sub(n, big.NewInt(1)), n, new(big.Int).Add(n, big.NewInt(1))} {
			sb := s.Bytes()
			if len(sb) == 0 {
				sb = []byte{0}
			}
			for _, d := range [][]byte{{0}, {1}, sb, new(big.Int).Sub(n, big.NewInt(1)).Bytes()} {
				cases = append(cases, tc{d, sb}, tc{d, append([]byte{0, 0}, sb...)})
			}
		}
		cases = append(cases, tc{nil, []byte{1}}, tc{[]byte{1}, nil}, tc{nil, nil})
		for _, c := range cases {
			want := refVerify(pub, c.digest, c.sig)
			if got := pub.Verify(c.digest, c.sig); got != want {
				t.Fatalf("bits=%d: Verify(%x, %x) = %v, reference %v", bits, c.digest, c.sig, got, want)
			}
			if got := byHand.Verify(c.digest, c.sig); got != want {
				t.Fatalf("bits=%d: hand-built key Verify(%x, %x) = %v, reference %v", bits, c.digest, c.sig, got, want)
			}
		}
	}
}

func TestGenerateKeyPairRejectsOversizeModulus(t *testing.T) {
	if _, err := GenerateKeyPair(maxModulusBits+1, NewSeededReader(1)); err == nil {
		t.Fatalf("expected error for %d-bit modulus", maxModulusBits+1)
	}
}

func TestSignVerifyAllocs(t *testing.T) {
	kp := testKeyPair(t, DefaultModulusBits, 12)
	d := Digest([]byte("allocation budget"))
	sig, err := kp.Sign(d[:])
	if err != nil {
		t.Fatal(err)
	}
	pub := kp.Public()
	if n := testing.AllocsPerRun(100, func() { pub.Verify(d[:], sig) }); n > 1 {
		t.Errorf("Verify allocates %.1f times per call, budget 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = kp.Sign(d[:]) }); n > 2 {
		t.Errorf("Sign allocates %.1f times per call, budget 2", n)
	}
}

// fuzzKeys are the keys FuzzSignVerify chooses among, one per width class.
var fuzzKeys = func() []*KeyPair {
	var keys []*KeyPair
	for i, bits := range []int{64, 65, 128, 129, 300} {
		kp, err := GenerateKeyPair(bits, NewSeededReader(uint64(i)+900))
		if err != nil {
			panic(err)
		}
		keys = append(keys, kp)
	}
	return keys
}()

// FuzzSignVerify checks Sign and Verify against the math/big oracles on a
// key, digest and signature the fuzz input chooses.
func FuzzSignVerify(f *testing.F) {
	f.Add(uint8(0), []byte("digest"), []byte{1})
	f.Add(uint8(4), bytes.Repeat([]byte{0xff}, 40), []byte{0, 0, 2})
	f.Fuzz(func(t *testing.T, which uint8, digest, sig []byte) {
		kp := fuzzKeys[int(which)%len(fuzzKeys)]
		pub := kp.Public()
		if got, want := pub.Verify(digest, sig), refVerify(pub, digest, sig); got != want {
			t.Fatalf("Verify(%x, %x) = %v, reference %v", digest, sig, got, want)
		}
		if len(digest) == 0 {
			return
		}
		own, err := kp.Sign(digest)
		if err != nil {
			t.Fatal(err)
		}
		if want := refSign(kp, digest); !bytes.Equal(own, want) {
			t.Fatalf("Sign(%x) = %x, reference %x", digest, own, want)
		}
		if got, want := pub.Verify(digest, own), refVerify(pub, digest, own); got != want {
			t.Fatalf("Verify(%x, own signature) = %v, reference %v", digest, got, want)
		}
	})
}
