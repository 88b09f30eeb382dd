package simd

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// pad is the kernel's step: a store past either end of a copy would land
// within pad bytes of it.
const pad = 256

// checkCopied fails unless w (dst[lo:lo+len(src)]) holds src and the pad
// bytes on either side of it are still zero.
func checkCopied(t *testing.T, dst []byte, lo int, src []byte) {
	t.Helper()
	hi := lo + len(src)
	if !bytes.Equal(dst[lo:hi], src) {
		t.Fatalf("%d bytes to dst offset %d: copy differs", len(src), lo)
	}
	before, after := dst[max(0, lo-pad):lo], dst[hi:min(len(dst), hi+pad)]
	if !bytes.Equal(before, zeros[:len(before)]) || !bytes.Equal(after, zeros[:len(after)]) {
		t.Fatalf("%d bytes to dst offset %d: a byte outside the copy changed", len(src), lo)
	}
}

var zeros [pad]byte

// TestStreamCopy holds the kernel path to copy at every length up to 4 KiB
// (below streamMin, so the test calls it directly) for every dst offset
// within a cache line, every src offset, and the two moving apart; and
// StreamCopy to copy across the threshold. The kernel aligns on dst alone,
// so the three sets meet every case of head, body and tail.
func TestStreamCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]byte, 64+4096)
	for i := range src {
		src[i] = byte(1 + rng.Intn(255)) // never the zero of an untouched dst byte
	}
	legs(t, func(t *testing.T) {
		if CPU.Stream {
			dst := make([]byte, pad+64+4096+pad)
			for k := 0; k < 64; k++ {
				for _, o := range [][2]int{{k, 0}, {0, k}, {k, 63 - k}} {
					d, s := o[0], o[1]
					clear(dst)
					// Ascending n: dst past the last copy is still zero.
					for n := 0; n <= 4096; n++ {
						streamCopy(dst[pad+d:pad+d+n], src[s:s+n])
						checkCopied(t, dst, pad+d, src[s:s+n])
					}
				}
			}
		}
		for _, c := range []struct{ n, d, s int }{
			{streamMin - 1, 0, 0},
			{streamMin, 5, 0},
			{1<<20 + 17, 0, 0},
			{1<<20 + 17, 33, 7},
			{64<<20 + 1, 13, 51},
		} {
			big := make([]byte, c.s+c.n)
			rng.Read(big)
			dst := make([]byte, pad+c.d+c.n+pad)
			if got := StreamCopy(dst[pad+c.d:pad+c.d+c.n], big[c.s:]); got != c.n {
				t.Fatalf("StreamCopy of %d bytes returned %d", c.n, got)
			}
			checkCopied(t, dst, pad+c.d, big[c.s:])
		}
	})
}

// TestStreamCopyOverlap: overlapping slices move as under copy.
func TestStreamCopyOverlap(t *testing.T) {
	legs(t, func(t *testing.T) {
		for _, shift := range []int{-1, 1, 300} {
			buf := make([]byte, 2<<20)
			rand.New(rand.NewSource(2)).Read(buf)
			want := bytes.Clone(buf)
			lo, hi := 300, 300+shift
			copy(want[hi:], want[lo:lo+1<<20])
			StreamCopy(buf[hi:], buf[lo:lo+1<<20])
			if !bytes.Equal(buf, want) {
				t.Fatalf("copy shifted by %d differs", shift)
			}
		}
	})
}

func FuzzStreamCopy(f *testing.F) {
	for _, n := range []int{255, 256, 511, 4096 + 63} {
		p := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(p)
		f.Add(p, uint8(n), uint8(n/3))
	}
	f.Fuzz(func(t *testing.T, p []byte, dOff, sOff uint8) {
		d, src := int(dOff%64), p[min(len(p), int(sOff%64)):]
		dst := make([]byte, pad+d+len(src)+pad)
		if CPU.Stream {
			streamCopy(dst[pad+d:pad+d+len(src)], src)
		} else {
			StreamCopy(dst[pad+d:pad+d+len(src)], src)
		}
		checkCopied(t, dst, pad+d, src)
	})
}

func TestStreamCopyAllocs(t *testing.T) {
	src, dst := make([]byte, 1<<20+5), make([]byte, 1<<20+5)
	if allocs := testing.AllocsPerRun(20, func() { StreamCopy(dst, src) }); allocs != 0 {
		t.Fatalf("StreamCopy allocates %v per call", allocs)
	}
}

// BenchmarkStreamCopy: copy against StreamCopy into a destination that is
// not in cache, as a RAM device's slot is: each call writes the next piece
// of a 64 MiB region. The sizes straddle streamMin.
func BenchmarkStreamCopy(b *testing.B) {
	const region = 64 << 20
	dst := make([]byte, region)
	for _, size := range []int{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20} {
		src := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(src)
		for _, leg := range []struct {
			name string
			fn   func(dst, src []byte) int
		}{
			{"copy", func(dst, src []byte) int { return copy(dst, src) }},
			{"stream", func(dst, src []byte) int {
				if CPU.Stream {
					streamCopy(dst[:len(src)], src)
					return len(src)
				}
				return copy(dst, src)
			}},
		} {
			b.Run(fmt.Sprintf("%s/%dKiB", leg.name, size>>10), func(b *testing.B) {
				b.SetBytes(int64(size))
				off := 0
				for i := 0; i < b.N; i++ {
					if off+size > region {
						off = 0
					}
					leg.fn(dst[off:], src)
					off += size
				}
			})
		}
	}
}
