package simd

import (
	"bytes"
	"fmt"
	"hash/crc32"
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

// copyCRC is the copy under test: the kernel path itself when both features
// are on (it also runs below streamMin, which StreamCopyCRC would not reach),
// StreamCopyCRC otherwise.
func copyCRC(dst, src []byte, crc uint32) uint32 {
	if CPU.Stream && CPU.Fold {
		return streamCopyCRC(dst[:len(src)], src, crc)
	}
	_, crc = StreamCopyCRC(dst, src, crc)
	return crc
}

// TestStreamCopyCRC holds StreamCopyCRC to copy plus crc32.Update at every
// length up to 4 KiB for every dst offset within a cache line and src offsets
// 0, 5 and 64, and across streamMin at odd offsets; initial CRCs 0 and
// 0xdeadbeef.
func TestStreamCopyCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 64+4096)
	for i := range src {
		src[i] = byte(1 + rng.Intn(255))
	}
	crcLegs(t, func(t *testing.T) {
		dst := make([]byte, pad+64+4096+pad)
		for _, crc := range []uint32{0, 0xdeadbeef} {
			for _, s := range []int{0, 5, 64} {
				want := crc // crc32.Update over src[s:s+n], one byte on per n
				for n := 0; n <= 4096; n++ {
					if n > 0 {
						want = crc32.Update(want, crc32.IEEETable, src[s+n-1:s+n])
					}
					for d := 0; d < 64; d++ {
						if got := copyCRC(dst[pad+d:pad+d+n], src[s:s+n], crc); got != want {
							t.Fatalf("%d bytes from src offset %d to dst offset %d, crc %#x: CRC %#x, want %#x", n, s, d, crc, got, want)
						}
						checkCopied(t, dst, pad+d, src[s:s+n])
						clear(dst[pad+d : pad+d+n])
					}
				}
			}
		}
		for _, c := range []struct{ n, d, s int }{
			{64<<10 - 1, 3, 1},
			{64 << 10, 1, 5},
			{64<<10 + 300, 7, 0},
			{1<<20 + 17, 33, 7},
			{64<<20 + 17, 13, 51},
		} {
			big := make([]byte, c.s+c.n)
			rng.Read(big)
			dst := make([]byte, pad+c.d+c.n+pad)
			for _, crc := range []uint32{0, 0xdeadbeef} {
				n, got := StreamCopyCRC(dst[pad+c.d:pad+c.d+c.n], big[c.s:], crc)
				if want := crc32.Update(crc, crc32.IEEETable, big[c.s:]); n != c.n || got != want {
					t.Fatalf("StreamCopyCRC of %d bytes, crc %#x: returned %d, %#x, want %d, %#x", c.n, crc, n, got, c.n, want)
				}
				checkCopied(t, dst, pad+c.d, big[c.s:])
			}
		}
	})
}

// TestStreamCopyCRCOverlap: overlapping slices move as under copy, and the
// CRC is of the bytes copied.
func TestStreamCopyCRCOverlap(t *testing.T) {
	crcLegs(t, func(t *testing.T) {
		for _, shift := range []int{-1, 1, 300} {
			buf := make([]byte, 2<<20)
			rand.New(rand.NewSource(2)).Read(buf)
			want := bytes.Clone(buf)
			lo, hi := 300, 300+shift
			wantCRC := crc32.ChecksumIEEE(want[lo : lo+1<<20])
			copy(want[hi:], want[lo:lo+1<<20])
			if _, crc := StreamCopyCRC(buf[hi:], buf[lo:lo+1<<20], 0); crc != wantCRC || !bytes.Equal(buf, want) {
				t.Fatalf("copy shifted by %d: CRC %#x, want %#x, or bytes differ", shift, crc, wantCRC)
			}
		}
	})
}

func FuzzStreamCopyCRC(f *testing.F) {
	for _, n := range []int{255, 256, 511, 4096 + 63} {
		p := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(p)
		f.Add(p, uint8(n), uint8(n/3), uint32(n))
	}
	all := CPU
	f.Fuzz(func(t *testing.T, p []byte, dOff, sOff uint8, crc uint32) {
		defer func() { CPU = all }()
		d, src := int(dOff%64), p[min(len(p), int(sOff%64)):]
		want := crc32.Update(crc, crc32.IEEETable, src)
		for _, f := range []Features{all, {}, {Stream: all.Stream}, {Fold: all.Fold}} {
			CPU = f
			dst := make([]byte, pad+d+len(src)+pad)
			if got := copyCRC(dst[pad+d:pad+d+len(src)], src, crc); got != want {
				t.Fatalf("features %+v: CRC %#x, want %#x", f, got, want)
			}
			checkCopied(t, dst, pad+d, src)
		}
	})
}

func TestStreamCopyCRCAllocs(t *testing.T) {
	src, dst := make([]byte, 1<<20+5), make([]byte, 1<<20+5)
	crcLegs(t, func(t *testing.T) {
		var crc uint32
		if allocs := testing.AllocsPerRun(20, func() { _, crc = StreamCopyCRC(dst, src, crc) }); allocs != 0 {
			t.Fatalf("StreamCopyCRC allocates %v per call", allocs)
		}
	})
}

// BenchmarkStreamCopyCRC: CRC32Update then StreamCopy (two reads of the
// piece) against StreamCopyCRC (one), and StreamCopy alone for what the fold
// adds, on 4 MiB pieces that are in no cache: each call reads the next piece
// of one 64 MiB region and writes the next of another.
func BenchmarkStreamCopyCRC(b *testing.B) {
	const region, size = 64 << 20, 4 << 20
	src, dst := make([]byte, region), make([]byte, region)
	rand.New(rand.NewSource(1)).Read(src)
	for _, leg := range []struct {
		name string
		fn   func(dst, src []byte, crc uint32) uint32
	}{
		{"stream", func(dst, src []byte, crc uint32) uint32 {
			StreamCopy(dst, src)
			return crc
		}},
		{"crc+stream", func(dst, src []byte, crc uint32) uint32 {
			crc = CRC32Update(crc, src)
			StreamCopy(dst, src)
			return crc
		}},
		{"fused", func(dst, src []byte, crc uint32) uint32 {
			_, crc = StreamCopyCRC(dst, src, crc)
			return crc
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.SetBytes(size)
			var crc uint32
			for i := 0; i < b.N; i++ {
				off := i * size % region
				crc = leg.fn(dst[off:off+size], src[off:off+size], crc)
			}
			crcSink = crc
		})
	}
}
