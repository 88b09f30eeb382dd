package core

import (
	"hash/maphash"
	"slices"
	"testing"
)

// TestGranuleHash: granuleHash equals maphash.Bytes under the same seed for
// every granule of 1–128 bytes, where maphash.Bytes also makes one runtime
// call; on a 64 KiB granule, one flipped bit at either side of that 128-byte
// boundary or at the last byte changes the hash; one seed always gives one
// value for the same bytes; and a call allocates nothing.
func TestGranuleHash(t *testing.T) {
	seed := maphash.MakeSeed()
	g := payload(1, 64<<10)
	for n := 1; n <= 128; n++ {
		if got, want := granuleHash(seed, g[:n]), maphash.Bytes(seed, g[:n]); got != want {
			t.Fatalf("%d bytes: granuleHash %#x, maphash.Bytes %#x", n, got, want)
		}
	}
	h := granuleHash(seed, g)
	for _, off := range []int{0, 127, 128, len(g) - 1} {
		g[off] ^= 1
		flipped := granuleHash(seed, g)
		g[off] ^= 1
		if flipped == h {
			t.Errorf("flipping a bit of byte %d leaves the hash at %#x", off, h)
		}
	}
	for i := 0; i < 3; i++ {
		if again := granuleHash(seed, slices.Clone(g)); again != h {
			t.Fatalf("one seed hashes the same bytes to %#x, then %#x", h, again)
		}
	}
	var sink uint64
	if allocs := testing.AllocsPerRun(100, func() { sink ^= granuleHash(seed, g) }); allocs != 0 {
		t.Errorf("granuleHash makes %.1f allocations, want 0", allocs)
	}
}
