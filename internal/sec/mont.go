// Fixed-width Montgomery arithmetic: every modular exponentiation in Sign
// and Verify runs here, on limbs held on the stack. math/big only computes
// each modulus's constants, once per key.

package sec

import (
	"math/big"
	"math/bits"
)

// maxModulusBits bounds the modulus GenerateKeyPair accepts; maxLimbs hold it.
const maxModulusBits, maxLimbs = 4096, 4096 / 64

// nat is a little-endian number in 64-bit limbs; arithmetic modulo a k-limb
// modulus uses only the first k. The spare limb lets a nat be mul's k+1-limb
// accumulator, declared once per operation so the stack is zeroed once.
type nat [maxLimbs + 1]uint64

// modulus is an odd modulus n > 1 with its Montgomery constants, for
// R = 2^(64k). The Montgomery form of x is x·R mod n.
type modulus struct {
	n, rr nat // n and R² mod n
	k     int
	n0    uint64 // −n⁻¹ mod 2⁶⁴
}

// set loads n into a zero m and computes its constants. It reports false
// for a modulus the kernel cannot take: even, below 3 or too wide.
func (m *modulus) set(n *big.Int) bool {
	if n.Sign() <= 0 || n.Bit(0) == 0 || n.BitLen() < 2 || n.BitLen() > maxModulusBits {
		return false
	}
	m.k = (n.BitLen() + 63) / 64
	load(&m.n, n.Bytes())
	load(&m.rr, new(big.Int).Mod(new(big.Int).Lsh(big.NewInt(1), uint(128*m.k)), n).Bytes())
	m.n0 = -new(big.Int).ModInverse(n, new(big.Int).Lsh(big.NewInt(1), 64)).Uint64()
	return true
}

// mac returns a·b + c + d, which fits in 128 bits, as (hi, lo).
func mac(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var cc uint64
	lo, cc = bits.Add64(lo, c, 0)
	hi += cc
	lo, cc = bits.Add64(lo, d, 0)
	return hi + cc, lo
}

// mul sets z = x·y·R⁻¹ mod n, for x·y below n·R (x < R and y < n
// suffice); z may alias x or y. Each pass adds x·y[i] and u·n, u zeroing
// the low limb, and shifts a limb down: acc stays below x + n < 2R.
func (m *modulus) mul(z, x, y, t *nat) {
	k := m.k
	if k == 3 {
		m.mul3(z, x, y)
		return
	}
	xs, n, acc := x[:k], m.n[:k], t[:k+1]
	for j := range acc {
		acc[j] = 0
	}
	for _, yi := range y[:k] {
		c1, lo := mac(xs[0], yi, acc[0], 0)
		u := lo * m.n0
		c2, _ := mac(u, n[0], lo, 0)
		for j := 1; j < k; j++ {
			c1, lo = mac(xs[j], yi, acc[j], c1)
			c2, acc[j-1] = mac(u, n[j], lo, c2)
		}
		acc[k], acc[k-1] = mac(1, acc[k], c1, c2)
	}
	// acc < 2n: subtract n unless acc is already below it.
	var b uint64
	for j := range n {
		z[j], b = bits.Sub64(acc[j], n[j], b)
	}
	if acc[k] == 0 && b != 0 {
		for j := range n {
			z[j] = acc[j]
		}
	}
}

// mul3 is mul for k = 3, as for the CRT halves of a 300-bit modulus,
// unrolled so that the accumulator stays in registers.
func (m *modulus) mul3(z, x, y *nat) {
	var a0, a1, a2, a3 uint64
	for _, yi := range y[:3] {
		c1, lo := mac(x[0], yi, a0, 0)
		u := lo * m.n0
		c2, _ := mac(u, m.n[0], lo, 0)
		c1, lo = mac(x[1], yi, a1, c1)
		c2, a0 = mac(u, m.n[1], lo, c2)
		c1, lo = mac(x[2], yi, a2, c1)
		c2, a1 = mac(u, m.n[2], lo, c2)
		a3, a2 = mac(1, a3, c1, c2)
	}
	var b uint64
	z[0], b = bits.Sub64(a0, m.n[0], 0)
	z[1], b = bits.Sub64(a1, m.n[1], b)
	z[2], b = bits.Sub64(a2, m.n[2], b)
	if a3 == 0 && b != 0 {
		z[0], z[1], z[2] = a0, a1, a2
	}
}

// add sets z = z + x mod n, for z, x < n.
func (m *modulus) add(z, x *nat) {
	var c, b uint64
	var d nat
	for j := 0; j < m.k; j++ {
		z[j], c = bits.Add64(z[j], x[j], c)
	}
	for j := 0; j < m.k; j++ {
		d[j], b = bits.Sub64(z[j], m.n[j], b)
	}
	if c != 0 || b == 0 {
		copy(z[:m.k], d[:m.k])
	}
}

// less reports whether x < n.
func (m *modulus) less(x *nat) bool {
	var b uint64
	for j := 0; j < m.k; j++ {
		_, b = bits.Sub64(x[j], m.n[j], b)
	}
	return b != 0
}

// reduce sets z to the Montgomery form of b mod n, for big-endian b of any
// length: Horner's rule over k-limb chunks, top chunk first. It writes
// only z's first k limbs.
func (m *modulus) reduce(z *nat, b []byte, t *nat) {
	w := 8 * m.k
	top := max(len(b)-1, 0) / w * w // bytes below the top chunk
	clear(z[:m.k])
	load(z, b[:len(b)-top])
	m.mul(z, z, &m.rr, t)
	for b = b[len(b)-top:]; len(b) > 0; b = b[w:] {
		var c nat
		load(&c, b[:w])
		m.mul(&c, &c, &m.rr, t)
		m.mul(z, z, &m.rr, t)
		m.add(z, &c)
	}
}

// exp sets z to the Montgomery form of x^e mod n, for big-endian x of any
// length and e > 0: left-to-right square-and-multiply.
func (m *modulus) exp(z *nat, x []byte, e *big.Int, t *nat) {
	var xm nat
	m.reduce(&xm, x, t)
	copy(z[:m.k], xm[:m.k])
	for i := e.BitLen() - 2; i >= 0; i-- {
		m.mul(z, z, z, t)
		if e.Bit(i) != 0 {
			m.mul(z, z, &xm, t)
		}
	}
}

// load sets the zero z to the big-endian b, at most 8·len(z) bytes long.
func load(z *nat, b []byte) {
	for i := 0; len(b) > 0; i++ {
		j := max(len(b)-8, 0)
		for _, c := range b[j:] {
			z[i] = z[i]<<8 | uint64(c)
		}
		b = b[:j]
	}
}

// bytesOf returns the first k limbs of x as minimal big-endian bytes, as
// big.Int.Bytes does.
func bytesOf(x *nat, k int) []byte {
	out := make([]byte, 8*k)
	for j := range out {
		out[len(out)-1-j] = byte(x[j/8] >> (8 * (j % 8)))
	}
	for len(out) > 0 && out[0] == 0 {
		out = out[1:]
	}
	return out
}
