package md4

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"testing"
	"testing/quick"
)

// rfc1320Vectors are the official test vectors from RFC 1320 appendix A.5.
var rfc1320Vectors = []struct {
	in   string
	want string
}{
	{"", "31d6cfe0d16ae931b73c59d7e0c089c0"},
	{"a", "bde52cb31de33e46245e05fbdbd6fb24"},
	{"abc", "a448017aaf21d8525fc10ae87aa6729d"},
	{"message digest", "d9130a8164549fe818874806e1c7014b"},
	{"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"},
	{
		"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
		"043f8582f241db351ce627e153e7f0e4",
	},
	{
		"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
		"e33b4ddc9c38f2199c3e7b164fcc0536",
	},
}

func TestRFC1320Vectors(t *testing.T) {
	for _, tc := range rfc1320Vectors {
		got := Sum([]byte(tc.in))
		if hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Sum(%q) = %x, want %s", tc.in, got, tc.want)
		}
	}
}

// refSum is the reference MD4: the RFC's padding appended to a copy of the
// message, then refBlock over each block.
func refSum(data []byte) [Size]byte {
	msg := append(append([]byte(nil), data...), 0x80)
	for len(msg)%BlockSize != BlockSize-8 {
		msg = append(msg, 0)
	}
	msg = binary.LittleEndian.AppendUint64(msg, uint64(len(data))<<3)
	s := [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}
	for i := 0; i < len(msg); i += BlockSize {
		refBlock(&s, msg[i:i+BlockSize])
	}
	var out [Size]byte
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// Round shift amounts and message word orders (RFC 1320 §3.4).
var (
	shift1 = [4]uint32{3, 7, 11, 19}
	shift2 = [4]uint32{3, 5, 9, 13}
	shift3 = [4]uint32{3, 9, 11, 15}

	xIndex2 = [16]int{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}
	xIndex3 = [16]int{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}
)

func rotl(x, s uint32) uint32 { return x<<s | x>>(32-s) }

// refBlock processes one 64-byte block in loop-and-table form (RFC 1320
// §3.4): the reference that the unrolled steps of blocks must match.
func refBlock(s *[4]uint32, p []byte) {
	var x [16]uint32
	for i := range x {
		x[i] = binary.LittleEndian.Uint32(p[i*4:])
	}

	a, b, c, dd := s[0], s[1], s[2], s[3]

	// Round 1: F(x,y,z) = (x AND y) OR (NOT x AND z).
	for i := 0; i < 16; i++ {
		f := (b & c) | (^b & dd)
		a = rotl(a+f+x[i], shift1[i%4])
		a, b, c, dd = dd, a, b, c
	}

	// Round 2: G(x,y,z) = (x AND y) OR (x AND z) OR (y AND z).
	for i := 0; i < 16; i++ {
		g := (b & c) | (b & dd) | (c & dd)
		a = rotl(a+g+x[xIndex2[i]]+0x5a827999, shift2[i%4])
		a, b, c, dd = dd, a, b, c
	}

	// Round 3: H(x,y,z) = x XOR y XOR z.
	for i := 0; i < 16; i++ {
		h := b ^ c ^ dd
		a = rotl(a+h+x[xIndex3[i]]+0x6ed9eba1, shift3[i%4])
		a, b, c, dd = dd, a, b, c
	}

	s[0] += a
	s[1] += b
	s[2] += c
	s[3] += dd
}

// TestSumMatchesReference compares Sum with the reference at every length
// up to five blocks, so each tail length meets each block count.
func TestSumMatchesReference(t *testing.T) {
	data := make([]byte, 320)
	for i := range data {
		data[i] = byte(i*151 + 7)
	}
	for n := 0; n <= len(data); n++ {
		if got, want := Sum(data[:n]), refSum(data[:n]); got != want {
			t.Fatalf("len %d: Sum %x, reference %x", n, got, want)
		}
	}
}

// FuzzSum compares Sum with the reference on arbitrary input.
func FuzzSum(f *testing.F) {
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte{'x'}, 56))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := Sum(data), refSum(data); got != want {
			t.Fatalf("len %d: Sum %x, reference %x", len(data), got, want)
		}
	})
}

// TestPaddingBoundaries exercises message lengths around the 56-byte and
// 64-byte padding boundaries, where off-by-one bugs in padding live.
func TestPaddingBoundaries(t *testing.T) {
	for n := 50; n <= 70; n++ {
		msg := bytes.Repeat([]byte{'x'}, n)
		if got, want := Sum(msg), refSum(msg); got != want {
			t.Errorf("len %d: one-shot %x != reference %x", n, got, want)
		}
	}
}

// TestDeterministic verifies the digest is a pure function of the input.
func TestDeterministic(t *testing.T) {
	f := func(data []byte) bool {
		a := Sum(data)
		b := Sum(data)
		return a == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDistinctInputsDistinctDigests is a smoke check that small perturbations
// change the digest (not a collision-resistance proof, just a sanity check
// that all input bytes are absorbed).
func TestDistinctInputsDistinctDigests(t *testing.T) {
	f := func(data []byte, i uint8) bool {
		if len(data) == 0 {
			return true
		}
		idx := int(i) % len(data)
		mutated := append([]byte(nil), data...)
		mutated[idx] ^= 0xff
		return Sum(data) != Sum(mutated)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMD4(b *testing.B) {
	for _, size := range []int{64, 1024, 8192} {
		data := bytes.Repeat([]byte{0xab}, size)
		b.Run("size="+strconv.Itoa(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				Sum(data)
			}
		})
	}
}
