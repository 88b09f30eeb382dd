package simd

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

func checkCRC32Update(t *testing.T, crc uint32, p []byte) {
	t.Helper()
	if got, want := CRC32Update(crc, p), crc32.Update(crc, crc32.IEEETable, p); got != want {
		t.Fatalf("CRC32Update(%#x, %d bytes at %p) = %#x, hash/crc32 says %#x", crc, len(p), p, got, want)
	}
}

// TestCRC32Update holds the kernel to hash/crc32 at every length up to 4 KiB
// (the fold starts at foldMin) at every alignment within a cache line.
func TestCRC32Update(t *testing.T) {
	legs(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 64+4096)
		rng.Read(buf)
		for _, crc := range []uint32{0, 0xdeadbeef} {
			for align := 0; align < 64; align++ {
				for n := 0; n <= 4096; n++ {
					checkCRC32Update(t, crc, buf[align:align+n])
				}
			}
		}
		big := make([]byte, 64<<20+17)
		rng.Read(big)
		checkCRC32Update(t, 0, big)
		checkCRC32Update(t, 0xdeadbeef, big[3:])
	})
}

func FuzzCRC32Update(f *testing.F) {
	for _, n := range []int{255, 256, 1023, 1024, 1025} {
		p := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(p)
		f.Add(uint32(n), p)
	}
	f.Fuzz(checkCRC32Update)
}

func TestCRC32UpdateAllocs(t *testing.T) {
	p := make([]byte, 256<<10+5)
	var crc uint32
	if allocs := testing.AllocsPerRun(20, func() { crc = CRC32Update(crc, p) }); allocs != 0 {
		t.Fatalf("crc32Update allocates %v per call", allocs)
	}
}

// BenchmarkCRC32Update: hash/crc32 against crc32Update on a piece in cache.
func BenchmarkCRC32Update(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10} {
		p := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(p)
		for _, leg := range []struct {
			name string
			fn   func(uint32, []byte) uint32
		}{
			{"stdlib", func(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }},
			{"kernel", CRC32Update},
		} {
			b.Run(fmt.Sprintf("%s/%dKiB", leg.name, size>>10), func(b *testing.B) {
				b.SetBytes(int64(size))
				var crc uint32
				for i := 0; i < b.N; i++ {
					crc = leg.fn(crc, p)
				}
				crcSink = crc
			})
		}
	}
}

var crcSink uint32
