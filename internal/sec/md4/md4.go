// Package md4 implements the MD4 message-digest algorithm from RFC 1320.
//
// The Immune system's Secure Multicast Protocols place a 16-byte digest of
// each regular message in the token (paper §7, §7.1). The paper uses MD4 via
// CryptoLib; MD4 is not in the Go standard library, so it is implemented
// here from the RFC. MD4 is cryptographically broken and must not be used
// for new designs; it is reproduced solely for fidelity to the paper.
package md4

import (
	"encoding/binary"
	"math/bits"
)

// Size is the size of an MD4 checksum in bytes.
const Size = 16

// BlockSize is the block size of MD4 in bytes.
const BlockSize = 64

const k2, k3 = 0x5a827999, 0x6ed9eba1 // rounds 2 and 3 (RFC 1320 §3.4)

// Sum returns the MD4 checksum of data. The padded tail (RFC 1320 §3.1-3.2)
// is built on the stack, so a digest allocates nothing.
func Sum(data []byte) [Size]byte {
	s := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	full := len(data) &^ (BlockSize - 1)
	blocks(&s, data[:full])
	var tail [2 * BlockSize]byte
	n := copy(tail[:], data[full:])
	tail[n] = 0x80
	end := (n + 8 + BlockSize) &^ (BlockSize - 1) // one block, or two if the length does not fit
	binary.LittleEndian.PutUint64(tail[end-8:], uint64(len(data))<<3)
	blocks(&s, tail[:end])
	var out [Size]byte
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// blocks processes p, a whole number of 64-byte blocks (RFC 1320 §3.4).
// The round helpers inline, so the 48 steps of a block run fully unrolled
// with constant rotations.
func blocks(s *[4]uint32, p []byte) {
	for ; len(p) >= BlockSize; p = p[BlockSize:] {
		_ = p[BlockSize-1]
		x0, x1, x2, x3 := binary.LittleEndian.Uint32(p[0:]), binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint32(p[8:]), binary.LittleEndian.Uint32(p[12:])
		x4, x5, x6, x7 := binary.LittleEndian.Uint32(p[16:]), binary.LittleEndian.Uint32(p[20:]), binary.LittleEndian.Uint32(p[24:]), binary.LittleEndian.Uint32(p[28:])
		x8, x9, x10, x11 := binary.LittleEndian.Uint32(p[32:]), binary.LittleEndian.Uint32(p[36:]), binary.LittleEndian.Uint32(p[40:]), binary.LittleEndian.Uint32(p[44:])
		x12, x13, x14, x15 := binary.LittleEndian.Uint32(p[48:]), binary.LittleEndian.Uint32(p[52:]), binary.LittleEndian.Uint32(p[56:]), binary.LittleEndian.Uint32(p[60:])
		a, b, c, d := s[0], s[1], s[2], s[3]
		a, b, c, d = round1(a, b, c, d, x0, x1, x2, x3)
		a, b, c, d = round1(a, b, c, d, x4, x5, x6, x7)
		a, b, c, d = round1(a, b, c, d, x8, x9, x10, x11)
		a, b, c, d = round1(a, b, c, d, x12, x13, x14, x15)
		a, b, c, d = round2(a, b, c, d, x0+k2, x4+k2, x8+k2, x12+k2)
		a, b, c, d = round2(a, b, c, d, x1+k2, x5+k2, x9+k2, x13+k2)
		a, b, c, d = round2(a, b, c, d, x2+k2, x6+k2, x10+k2, x14+k2)
		a, b, c, d = round2(a, b, c, d, x3+k2, x7+k2, x11+k2, x15+k2)
		a, b, c, d = round3(a, b, c, d, x0+k3, x8+k3, x4+k3, x12+k3)
		a, b, c, d = round3(a, b, c, d, x2+k3, x10+k3, x6+k3, x14+k3)
		a, b, c, d = round3(a, b, c, d, x1+k3, x9+k3, x5+k3, x13+k3)
		a, b, c, d = round3(a, b, c, d, x3+k3, x11+k3, x7+k3, x15+k3)
		s[0] += a
		s[1] += b
		s[2] += c
		s[3] += d
	}
}

// round1, round2 and round3 each run four steps of their round, with
// F(x,y,z) = (x AND y) OR (NOT x AND z), G(x,y,z) = (x AND y) OR (x AND
// z) OR (y AND z), computed as (x AND y) OR ((x OR y) AND z), and
// H(x,y,z) = x XOR y XOR z. round2's words come with k2 added, round3's
// with k3.
func round1(a, b, c, d, w, x, y, z uint32) (uint32, uint32, uint32, uint32) {
	a = bits.RotateLeft32(a+(b&c|^b&d)+w, 3)
	d = bits.RotateLeft32(d+(a&b|^a&c)+x, 7)
	c = bits.RotateLeft32(c+(d&a|^d&b)+y, 11)
	b = bits.RotateLeft32(b+(c&d|^c&a)+z, 19)
	return a, b, c, d
}

func round2(a, b, c, d, w, x, y, z uint32) (uint32, uint32, uint32, uint32) {
	a = bits.RotateLeft32(a+(b&c|(b|c)&d)+w, 3)
	d = bits.RotateLeft32(d+(a&b|(a|b)&c)+x, 5)
	c = bits.RotateLeft32(c+(d&a|(d|a)&b)+y, 9)
	b = bits.RotateLeft32(b+(c&d|(c|d)&a)+z, 13)
	return a, b, c, d
}

func round3(a, b, c, d, w, x, y, z uint32) (uint32, uint32, uint32, uint32) {
	a = bits.RotateLeft32(a+(b^c^d)+w, 3)
	d = bits.RotateLeft32(d+(a^b^c)+x, 9)
	c = bits.RotateLeft32(c+(d^a^b)+y, 11)
	b = bits.RotateLeft32(b+(c^d^a)+z, 15)
	return a, b, c, d
}
