package core

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

func checkCRC32Combine(t *testing.T, p []byte, split int) {
	t.Helper()
	a, b := p[:split], p[split:]
	got := crc32Combine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
	if want := crc32.ChecksumIEEE(p); got != want {
		t.Fatalf("combine over %d‖%d bytes = %#x, stdlib says %#x", len(a), len(b), got, want)
	}
}

func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 4096, 1<<20 + 3} {
		p := make([]byte, n)
		rng.Read(p)
		for _, split := range []int{0, n / 3, n / 2, n - 1, n} {
			if split >= 0 {
				checkCRC32Combine(t, p, split)
			}
		}
		for i := 0; i < 20 && n > 0; i++ {
			checkCRC32Combine(t, p, rng.Intn(n+1))
		}
	}
}

func FuzzCRC32Combine(f *testing.F) {
	f.Add([]byte("header|bitmap|chunks"), uint16(7))
	f.Add([]byte{}, uint16(0))
	f.Add(make([]byte, 300), uint16(299))
	f.Fuzz(func(t *testing.T, p []byte, at uint16) {
		checkCRC32Combine(t, p, int(at)%(len(p)+1))
	})
}
