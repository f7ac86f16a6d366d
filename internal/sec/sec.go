// Package sec provides the cryptographic substrate of the Immune system's
// Secure Multicast Protocols (paper §7): MD4 message digests and an RSA
// public-key cryptosystem in which each processor holds a private key with
// which it digitally signs tokens, and can obtain the public keys of other
// processors to verify signed tokens.
//
// The paper uses CryptoLib RSA with a 300-bit modulus (§8). Go's crypto/rsa
// rejects such small keys, so RSA is implemented directly, on a fixed-width
// Montgomery kernel (mont.go; math/big only generates keys): signing is
// modular exponentiation of the message digest with the private exponent,
// verification with the public exponent — exactly the scheme the
// paper describes ("Signatures are computed by RSA decrypting a message
// digest using the private key, while verification is performed by RSA
// encrypting the signature using the public key"). The asymptotic cost
// profile (signing dominated by modular exponentiation, cost growing with
// modulus size) is therefore faithful to the paper, which is what the
// Figure 7 reproduction depends on. This is NOT a secure RSA implementation
// for real-world use: no padding scheme, tiny moduli.
package sec

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"immune/internal/sec/md4"
)

// Level selects how much of the Secure Multicast Protocols' machinery is
// engaged, matching the survivability cases of the paper's evaluation (§8):
// Case 2 runs with LevelNone, Case 3 with LevelDigests, Case 4 with
// LevelSignatures.
type Level int

const (
	// LevelNone: reliable totally ordered multicast without message
	// digests or token signatures (Figure 7 case 2).
	LevelNone Level = iota + 1
	// LevelDigests: message digests carried in the token (case 3).
	LevelDigests
	// LevelSignatures: message digests plus digitally signed tokens with
	// previous-token digests (case 4).
	LevelSignatures
)

// String returns a human-readable level name.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelDigests:
		return "digests"
	case LevelSignatures:
		return "digests+signatures"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// DigestSize is the size in bytes of a message digest (MD4, paper §8: "the
// message digest is a fixed size (16 bytes)").
const DigestSize = md4.Size

// Digest computes the 16-byte MD4 digest of data.
func Digest(data []byte) [DigestSize]byte { return md4.Sum(data) }

// DefaultModulusBits is the RSA modulus size used by the paper's
// measurements (§8: "a key size with a modulus of 300 bits").
const DefaultModulusBits = 300

// publicExponent is the fixed RSA public exponent.
var publicExponent = big.NewInt(65537)

// PublicKey is the shareable half of a processor's RSA keypair. A key
// built by hand (odd N, positive E) verifies too, at extra cost per call.
type PublicKey struct {
	N *big.Int // modulus
	E *big.Int // public exponent

	mod *modulus // N's Montgomery constants; nil on a key built by hand
}

// SignatureSize returns the size in bytes of signatures produced under this
// key (the modulus size rounded up to whole bytes).
func (pk *PublicKey) SignatureSize() int { return (pk.N.BitLen() + 7) / 8 }

// Verify reports whether sig is a valid signature over digest under this
// public key: it RSA-encrypts the signature with the public exponent and
// compares the result to the digest (reduced mod N, matching Sign).
func (pk *PublicKey) Verify(digest []byte, sig []byte) bool {
	if len(sig) == 0 || len(digest) == 0 {
		return false
	}
	m := pk.mod
	if m == nil {
		if m = new(modulus); !m.set(pk.N) {
			return false
		}
	}
	for len(sig) > 0 && sig[0] == 0 {
		sig = sig[1:]
	}
	if len(sig) > 8*m.k {
		return false
	}
	var s, got, want, t nat
	if load(&s, sig); !m.less(&s) {
		return false
	}
	// Montgomery forms compare as the values do; limbs past k stay zero,
	// as the kernel writes only the first k.
	m.exp(&got, sig, pk.E, &t)
	m.reduce(&want, digest, &t)
	return got == want
}

// Equal reports whether two public keys are the same key.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	if pk == nil || other == nil {
		return pk == other
	}
	return pk.N.Cmp(other.N) == 0 && pk.E.Cmp(other.E) == 0
}

// KeyPair is a processor's RSA keypair. The private key never leaves the
// processor that generated it. It is kept in Chinese-Remainder-Theorem
// form: two half-size exponentiations instead of one full-size one cut
// signing cost by roughly 3-4×.
type KeyPair struct {
	pub PublicKey

	// CRT precomputation: the primes as moduli, d mod p-1, d mod q-1, and
	// q·(q⁻¹ mod p) and p·(p⁻¹ mod q) in Montgomery form mod N.
	p, q   modulus
	dp, dq *big.Int
	cp, cq nat
}

// GenerateKeyPair creates an RSA keypair with a modulus of the given bit
// size, reading randomness from random (crypto/rand.Reader in production;
// a seeded reader in deterministic tests). bits must be at least 64: the
// digest being signed is 128 bits, but a 64-bit floor keeps pathological
// test configurations honest while Sign reduces digests that do not fit;
// 4096, the widest modulus the kernel holds, is the ceiling.
func GenerateKeyPair(bits int, random io.Reader) (*KeyPair, error) {
	if bits < 64 || bits > maxModulusBits {
		return nil, fmt.Errorf("modulus size %d bits outside [64, %d]", bits, maxModulusBits)
	}
	one := big.NewInt(1)
	for attempt := 0; attempt < 64; attempt++ {
		p, err := genPrime(bits/2, random)
		if err != nil {
			return nil, fmt.Errorf("generate prime p: %w", err)
		}
		q, err := genPrime(bits-bits/2, random)
		if err != nil {
			return nil, fmt.Errorf("generate prime q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int)
		if d.ModInverse(publicExponent, phi) == nil {
			continue // gcd(e, phi) != 1; pick new primes
		}
		qinv, pinv := new(big.Int).ModInverse(q, p), new(big.Int).ModInverse(p, q) // distinct primes
		kp := &KeyPair{
			pub: PublicKey{N: n, E: new(big.Int).Set(publicExponent), mod: new(modulus)},
			dp:  new(big.Int).Mod(d, new(big.Int).Sub(p, one)),
			dq:  new(big.Int).Mod(d, new(big.Int).Sub(q, one)),
		}
		kp.pub.mod.set(n)
		kp.p.set(p)
		kp.q.set(q)
		r := new(big.Int).Lsh(one, uint(64*kp.pub.mod.k))
		load(&kp.cp, qinv.Mod(qinv.Mul(qinv.Mul(qinv, q), r), n).Bytes())
		load(&kp.cq, pinv.Mod(pinv.Mul(pinv.Mul(pinv, p), r), n).Bytes())
		return kp, nil
	}
	return nil, errors.New("could not generate suitable RSA primes")
}

// genPrime draws random candidates of exactly the given bit length from
// random and returns the first probable prime. Unlike crypto/rand.Prime it
// is strictly deterministic in the bytes it consumes (crypto/rand.Prime
// deliberately injects scheduling-dependent nondeterminism), which the
// simulation relies on for reproducible runs. The top two bits are forced
// so the product of two such primes has the full modulus length.
func genPrime(bits int, random io.Reader) (*big.Int, error) {
	if bits < 16 {
		return nil, fmt.Errorf("prime size %d bits too small", bits)
	}
	buf := make([]byte, (bits+7)/8)
	p := new(big.Int)
	for attempt := 0; attempt < 100000; attempt++ {
		if _, err := io.ReadFull(random, buf); err != nil {
			return nil, fmt.Errorf("read randomness: %w", err)
		}
		p.SetBytes(buf)
		// Trim to exactly `bits` bits, force the top two bits and oddness.
		for p.BitLen() > bits {
			p.SetBit(p, p.BitLen()-1, 0)
		}
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.SetBit(p, 0, 1)
		if p.ProbablyPrime(20) {
			return new(big.Int).Set(p), nil
		}
	}
	return nil, errors.New("no prime found in candidate budget")
}

// Public returns the shareable public key.
func (kp *KeyPair) Public() *PublicKey { return &kp.pub }

// Sign produces an RSA signature over digest: the digest interpreted as an
// integer (reduced mod N, as in textbook RSA), exponentiated with the
// private exponent modulo N. Because the digest is a fixed 16 bytes, the
// signing time is independent of the size of the original message (§8).
func (kp *KeyPair) Sign(digest []byte) ([]byte, error) {
	if len(digest) == 0 {
		return nil, errors.New("empty digest")
	}
	// CRT: s_p = m^dp mod p and s_q = m^dq mod q, combined mod N as
	// s = s_p·cp + s_q·cq. Reducing the digest mod p and mod q reduces it
	// mod N on the way.
	var sp, sq, t nat
	p, q, n := &kp.p, &kp.q, kp.pub.mod
	p.exp(&sp, digest, kp.dp, &t)
	q.exp(&sq, digest, kp.dq, &t)
	p.mul(&sp, &sp, &nat{1}, &t) // out of Montgomery form
	q.mul(&sq, &sq, &nat{1}, &t)
	n.mul(&sp, &sp, &kp.cp, &t)
	n.mul(&sq, &sq, &kp.cq, &t)
	n.add(&sp, &sq)
	return bytesOf(&sp, n.k), nil
}
