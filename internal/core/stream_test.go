package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"pccheck/internal/storage"
)

// TestStreamReaders: stream's readers split the logical payload, not a link,
// so a chain read by one, two, three or four of them must land the same bytes
// — and nothing past len(dst) — and reach the same verdict on every damage:
// the bad headers every read path is held to, and one flipped stored byte in
// the keyframe and in each delta's head, first run and last run.
func TestStreamReaders(t *testing.T) {
	full := Config{Concurrent: 1, SlotBytes: 1 << 20, VerifyPayload: true}
	delta := Config{Concurrent: 1, SlotBytes: 1 << 20, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 8}
	fine := delta
	fine.SlotBytes = 8192 // 64-byte granules
	const n = 1<<20 - 5
	images := []struct {
		name  string
		cfg   Config
		sizes []int // one save each
	}{
		{"full", full, []int{1 << 20}},
		{"full, unaligned", full, []int{1<<20 - 4093}},
		{"keyframe + 8 deltas", delta, []int{n, n, n, n, n, n, n, n, n}},
		{"grow", delta, []int{600 << 10, 700<<10 + 1, 1<<20 - 3}},
		{"shrink", delta, []int{900 << 10, 1 << 20, 300<<10 + 7}},
		{"64-byte granules", fine, []int{6000, 7001, 3001, 5555}},
	}
	for _, im := range images {
		c, dev := deltaEngine(t, im.cfg)
		want := sparsePayload(1, 0, im.sizes[0])
		for i, size := range im.sizes {
			if i > 0 {
				want = append(want[:min(size, len(want))], payload(int64(i), max(0, size-len(want)))...)
				mutateSparse(want, 1, uint64(i))
			}
			if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		sb, chain, _, err := newest(dev)
		if err != nil {
			t.Fatal(err)
		}
		if links := len(im.sizes); im.cfg.DeltaKeyframe > 0 && len(chain) != links {
			t.Fatalf("%s: chain of %d links, want %d", im.name, len(chain), links)
		}

		// agree streams chain with one to four readers: all must serve want,
		// or all reject it — corrupt-classified when damaged.
		arena := make([]byte, len(want)+4096)
		agree := func(what string, chain []checkMeta, damaged bool) (ok bool) {
			for readers := 1; readers <= 4; readers++ {
				for i := range arena {
					arena[i] = 0xEE
				}
				err := stream(dev, sb, chain, arena[:len(want)], nil, readers)
				served := err == nil && bytes.Equal(arena[:len(want)], want)
				if i := slices.IndexFunc(arena[len(want):], func(b byte) bool { return b != 0xEE }); i >= 0 {
					t.Errorf("%s, %s, %d readers: wrote past len(dst) at %d", im.name, what, readers, len(want)+i)
				}
				if damaged && !storage.IsCorrupt(err) {
					t.Errorf("%s, %s, %d readers: %v, want corrupt", im.name, what, readers, err)
				}
				if readers == 1 {
					ok = served
				} else if served != ok {
					t.Errorf("%s, %s: %d readers served=%v, one reader %v", im.name, what, readers, served, ok)
				}
			}
			return ok
		}

		tip := chain[len(chain)-1]
		honest := make([]byte, slotHeaderSize)
		if err := dev.ReadAt(honest, slotBase(sb, tip.slot)); err != nil {
			t.Fatal(err)
		}
		for _, tc := range badHeaders {
			hb := slices.Clone(honest)
			forged := slices.Clone(chain)
			if tc.forge != nil {
				hdr, _ := decodeSlotHeader(hb)
				tc.forge(&hdr, &forged[len(forged)-1], sb)
				hb = encodeSlotHeader(hdr)
			}
			if tc.tear != nil {
				tc.tear(hb)
			}
			if err := dev.WriteAt(hb, slotBase(sb, tip.slot)); err != nil {
				t.Fatal(err)
			}
			if ok := agree(tc.name, forged, false); ok != tc.ok {
				t.Errorf("%s, %s: served=%v, want %v", im.name, tc.name, ok, tc.ok)
			}
			if err := dev.WriteAt(honest, slotBase(sb, tip.slot)); err != nil {
				t.Fatal(err)
			}
		}

		gran := int64(deltaGranularity(sb.slotBytes))
		for i, m := range chain {
			offs := map[string]int64{"keyframe": m.size / 2}
			if m.kind == slotKindDelta {
				head := int64(deltaHdrSize + (ceilDiv(m.fullSize, int(gran))+7)/8)
				offs = map[string]int64{"head": 5, "first run": head, "last run": m.size - 1}
			}
			for where, off := range offs {
				flipByte(t, dev, payloadBase(sb, m.slot)+off)
				agree(fmt.Sprintf("link %d, %s byte flipped", i, where), chain, true)
				flipByte(t, dev, payloadBase(sb, m.slot)+off)
			}
		}
	}
}

// TestLaneLoopsAllocateNothing: how many readers a stream runs, or lanes a
// ship copies on, does not change what the call allocates — its lanes are
// built once, not per call. An 8 MiB keyframe is streamed into a buffer on one
// reader and on two, and copied to a second device as one page (one lane) and
// whole (two lanes).
func TestLaneLoopsAllocateNothing(t *testing.T) {
	const size = 8 << 20
	cfg := Config{Concurrent: 1, SlotBytes: size, VerifyPayload: true}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, size))); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sb, chain, _, err := newest(dev)
	if err != nil {
		t.Fatal(err)
	}
	// What every call allocates is what the least of single calls does: under
	// the race detector sync.Pool drops a quarter of what is put back, and a
	// stream whose work area was dropped builds a new one.
	least := func(f func()) float64 {
		n := math.Inf(1)
		for range 20 {
			n = min(n, testing.AllocsPerRun(1, f))
		}
		return n
	}
	dst := make([]byte, size)
	read := func(readers int) float64 {
		return least(func() {
			if err := stream(dev, sb, chain, dst, nil, readers); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, two := read(1), read(2); two != one {
		t.Errorf("a stream makes %.1f allocations on two readers, %.1f on one", two, one)
	}

	tier := storage.NewRAM(dev.Size())
	var cp copier
	cp.buffers(sb)
	at := payloadBase(sb, chain[0].slot)
	ship := func(n int64) float64 {
		return least(func() {
			if _, err := cp.span(dev, at, tier, at, n, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, two := ship(pageBytes), ship(size); one != 0 || two != 0 {
		t.Errorf("a span makes %.1f allocations on one lane, %.1f on two; want none", one, two)
	}
}

// BenchmarkStream reads a committed chain with as many readers as -cpu gives
// it, past minBytesPerCore — the evidence the floor is set from: full
// checkpoints of 4 to 128 MiB and a keyframe plus 8 deltas of 64 MiB, on
// storage.RAM and on a storage.SSD file on tmpfs (/dev/shm when there is
// one), each into a buffer that is already faulted in.
//
//	go test -run '^$' -bench Stream -cpu 1,2 ./internal/core/
func BenchmarkStream(b *testing.B) {
	devices := []struct {
		name string
		open func(b *testing.B, size int64) storage.Device
	}{
		{"ram", func(_ *testing.B, size int64) storage.Device { return storage.NewRAM(size) }},
		{"ssd", func(b *testing.B, size int64) storage.Device {
			dir, err := os.MkdirTemp("/dev/shm", "pccheck-stream-")
			if err != nil {
				dir = b.TempDir()
			}
			dev, err := storage.OpenSSD(filepath.Join(dir, "stream.pcc"), size)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				dev.Close()
				os.RemoveAll(dir)
			})
			return dev
		}},
	}
	chains := []struct {
		name  string
		sizes []int
		saves int
	}{
		{"full", []int{4, 16, 32, 64, 128}, 1},
		{"chain", []int{64}, 9},
	}
	for _, dv := range devices {
		for _, ch := range chains {
			for _, mib := range ch.sizes {
				b.Run(fmt.Sprintf("%s/%s/%dMiB", ch.name, dv.name, mib), func(b *testing.B) {
					size := mib << 20
					cfg := Config{Concurrent: 1, SlotBytes: int64(size), ChunkBytes: 4 << 20, VerifyPayload: true}
					if ch.saves > 1 {
						cfg.DeltaKeyframe = ch.saves - 1
					}
					dev := dv.open(b, DeviceBytesFor(cfg))
					c, err := New(dev, cfg)
					if err != nil {
						b.Fatal(err)
					}
					p := payload(1, size)
					for i := 0; i < ch.saves; i++ {
						dirty5(p, i)
						if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
							b.Fatal(err)
						}
					}
					if err := c.Close(); err != nil {
						b.Fatal(err)
					}
					sb, chain, _, err := newest(dev)
					if err != nil || len(chain) != ch.saves {
						b.Fatalf("chain of %d links (err %v), want %d", len(chain), err, ch.saves)
					}
					dst := make([]byte, size)
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := stream(dev, sb, chain, dst, nil, runtime.GOMAXPROCS(0)); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
