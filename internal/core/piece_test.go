package core

import (
	"context"
	"fmt"
	"hash/crc32"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// TestPieceCut holds cutPieces to its contract over a grid of sizes, chunk
// sizes, lane counts and both alignments: the pieces tile the payload, none
// exceeds the chunk, all but the last are aligned and within one unit of each
// other, and their count is a multiple of p whenever the payload and the
// chunk each hold p units. Its two other uses, laneCut's shares of a pass,
// are held to theirs in the "lanes" subtests.
func TestPieceCut(t *testing.T) {
	t.Run("lanes", testLaneCut)
	for _, chunk := range []int64{192, 3000, 4 << 10, 64 << 10, 100 << 10, 1 << 20} {
		for _, align := range []int64{pageBytes, 1 << 10} {
			for p := 1; p <= 4; p++ {
				sizes := []int64{0, 1, 2, chunk - 1, chunk, chunk + 1, 12_345, 13 * chunk, 13*64<<10 + 7, 32 << 20,
					int64(p)*align - 1, int64(p) * align, int64(p)*chunk + 1}
				for _, size := range sizes {
					if size < 0 {
						continue
					}
					t.Run(fmt.Sprintf("chunk=%d/align=%d/p=%d/size=%d", chunk, align, p, size), func(t *testing.T) {
						checkCut(t, size, chunk, p, align)
					})
				}
			}
		}
	}
}

func checkCut(t *testing.T, size, chunk int64, p int, align int64) {
	pc := cutPieces(size, chunk, p, align)
	unit := pc.unit
	if align%unit != 0 || chunk%unit != 0 || (chunk%align == 0 && unit != align) {
		t.Fatalf("unit %d is not gcd(%d, %d)", unit, align, chunk)
	}
	var lens []int64
	off := int64(0)
	for i := int64(0); off < size; i++ {
		if pc.start(i) != off {
			t.Fatalf("piece %d starts at %d, want %d", i, pc.start(i), off)
		}
		n := pc.start(i+1) - off
		if n <= 0 || n > chunk {
			t.Fatalf("piece %d at %d is %d bytes, want 1..%d", i, off, n, chunk)
		}
		lens = append(lens, n)
		off += n
	}
	if off != size {
		t.Fatalf("pieces cover %d of %d bytes", off, size)
	}
	k := int64(len(lens))
	if pc.k != max(k, 1) {
		t.Fatalf("cut says %d pieces, tiles %d", pc.k, k)
	}
	if least := (size + chunk - 1) / chunk; k < least || k > least+int64(p)-1 {
		t.Fatalf("%d pieces, want %d..%d", k, least, least+int64(p)-1)
	}
	if size >= int64(p)*unit && chunk >= int64(p)*unit && k%int64(p) != 0 {
		t.Fatalf("%d pieces for %d lanes", k, p)
	}
	if k < 2 {
		return
	}
	lo, hi := lens[0], lens[0]
	for _, n := range lens[:k-1] {
		if n%unit != 0 {
			t.Fatalf("pieces %v: %d is not a multiple of %d", lens, n, unit)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > unit || lens[k-1] > hi {
		t.Fatalf("pieces %v differ by more than one %d-byte unit", lens, unit)
	}
}

// testLaneCut: stream's readers take laneCut(size, p, granule) and diffAll's
// workers laneCut(size, p, 8 granules) — at most p ranges, p once size holds
// p units, that cover [0, size) exactly, each a whole number of its unit but a
// clipped tail, so no two lanes share a granule (readers) or a bitmap byte
// (diff workers).
func testLaneCut(t *testing.T) {
	for _, gran := range []int64{64, 1 << 10, 64 << 10} {
		for _, align := range []int64{gran, 8 * gran} {
			for p := 1; p <= 4; p++ {
				for _, size := range []int64{0, 1, gran - 1, gran, gran + 1, align*int64(p) - 1, align * int64(p),
					align*int64(p) + 1, 7*align + 3, 1<<20 - 5, 32 << 20, 64<<20 + gran/2} {
					cut := laneCut(size, p, align)
					if cut.k > int64(p) || size >= int64(p)*align && cut.k != int64(p) {
						t.Fatalf("gran %d, align %d, p %d, size %d: %d ranges", gran, align, p, size, cut.k)
					}
					for i := int64(0); i < cut.k; i++ {
						lo, hi := cut.start(i), cut.start(i+1)
						if lo%align != 0 || hi < lo || (hi-lo)%align != 0 && hi != size {
							t.Fatalf("gran %d, align %d, p %d, size %d: range %d is [%d, %d)", gran, align, p, size, i, lo, hi)
						}
					}
					if cut.start(0) != 0 || cut.start(cut.k) != size {
						t.Fatalf("gran %d, align %d, p %d, size %d: ranges span [%d, %d)", gran, align, p, size, cut.start(0), cut.start(cut.k))
					}
				}
			}
		}
	}
}

// TestSavePiecesFillEveryLane: a save through three writers is persisted in a
// multiple of three pieces of nearly equal size — in place, staged and as a
// delta keyframe — so no writer lane idles through the save's last round.
// 13 pieces of 64 KiB would leave two lanes idle for one. Pieces are within
// one 4 KiB page of each other, except an in-place keyframe's: its writers
// diff the pieces they persist, so a piece is whole bytes of the dirty bitmap
// — units of 8 granules of 1 KiB here, an 8 KiB cut unit.
func TestSavePiecesFillEveryLane(t *testing.T) {
	const chunk, size = 64 << 10, 13 * 64 << 10
	for _, tc := range []struct {
		name   string
		delta  bool
		source func([]byte) Source
		unit   int64
	}{
		{"in-place", false, BytesSource, 4 << 10},
		{"staged", false, staged, 4 << 10},
		{"keyframe/in-place", true, BytesSource, 8 << 10},
		{"keyframe/staged", true, staged, 4 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.DefaultCapacity)
			cfg := Config{Concurrent: 1, SlotBytes: 1 << 20, Writers: 3, ChunkBytes: chunk, VerifyPayload: true, Observer: rec}
			if tc.delta {
				cfg.DeltaKeyframe = 4
			}
			dev := storage.NewRAM(DeviceBytesFor(cfg))
			c, err := New(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			counter, err := c.Checkpoint(context.Background(), tc.source(payload(3, size)))
			if err != nil {
				t.Fatal(err)
			}
			if tc.delta && c.Stats().KeyframeSaves != 1 {
				t.Fatalf("first delta-mode save was not a keyframe: %+v", c.Stats())
			}
			var lens []int64
			var sum int64
			for _, ev := range rec.TakeEvents() {
				if ev.Phase == obs.PhasePersist && ev.Counter == counter {
					lens = append(lens, ev.Bytes)
					sum += ev.Bytes
				}
			}
			lo, hi := lens[0], lens[0]
			for _, n := range lens {
				lo, hi = min(lo, n), max(hi, n)
			}
			if len(lens)%3 != 0 || hi-lo > tc.unit || sum != size {
				t.Fatalf("%d pieces of %d..%d bytes (%d in all), want a multiple of 3 within %d bytes of each other covering %d",
					len(lens), lo, hi, sum, tc.unit, size)
			}
		})
	}
}

// TestWriterChecksums: the writer that persists a piece folds its CRC, and
// the save joins the pieces' CRCs in order. For full, keyframe and delta
// saves, in place and staged, on 1–3 writers, with and without
// VerifyPayload, at sizes that are no multiple of ChunkBytes (one under a
// page), the slot header's payload CRC is the CRC of the stored bytes read
// back (0 when off), and with VerifyPayload a byte flipped on the device in
// the last piece makes Recover fail corrupt.
func TestWriterChecksums(t *testing.T) {
	const chunk = 16 << 10
	for _, mode := range []struct {
		name string
		cfg  Config
		kind uint8
	}{
		{"full", Config{}, slotKindFull},
		// Both saves keyframes: the second diffs against the first's hashes.
		{"keyframe", Config{DeltaKeyframe: 4, DeltaEvery: 1 << 30}, slotKindFull},
		{"delta", Config{DeltaKeyframe: 4}, slotKindDelta},
	} {
		for _, src := range []struct {
			name string
			of   func([]byte) Source
		}{{"view", BytesSource}, {"staged", staged}} {
			for writers := 1; writers <= 3; writers++ {
				for _, verify := range []bool{true, false} {
					for _, size := range []int{3001, 5*chunk + 1234} {
						name := fmt.Sprintf("%s/%s/p=%d/verify=%v/size=%d", mode.name, src.name, writers, verify, size)
						t.Run(name, func(t *testing.T) {
							cfg := mode.cfg
							cfg.Concurrent, cfg.SlotBytes, cfg.Writers, cfg.ChunkBytes, cfg.VerifyPayload = 1, 256<<10, writers, chunk, verify
							c, dev := deltaEngine(t, cfg)
							defer c.Close()
							p := sparsePayload(5, 0, size)
							for step := uint64(0); step < 2; step++ {
								if step > 0 {
									mutateSparse(p, 5, step)
								}
								if _, err := c.Checkpoint(context.Background(), src.of(p)); err != nil {
									t.Fatalf("save %d: %v", step, err)
								}
							}
							hdr, stored := slotRecord(t, c, dev)
							var want uint32
							if verify {
								want = crc32.ChecksumIEEE(stored)
							}
							if hdr.kind != mode.kind || hdr.hasCRC != verify || hdr.payloadCRC != want {
								t.Fatalf("header kind %d hasCRC %v payloadCRC %#x, want kind %d, %v, %#x of the %d stored bytes",
									hdr.kind, hdr.hasCRC, hdr.payloadCRC, mode.kind, verify, want, len(stored))
							}
							if !verify {
								return
							}
							last := payloadBase(c.sb, c.checkAddr.Load().slot) + hdr.size - 1
							if err := dev.WriteAt([]byte{stored[len(stored)-1] ^ 0x10}, last); err != nil {
								t.Fatal(err)
							}
							if _, _, err := Recover(dev); !storage.IsCorrupt(err) {
								t.Fatalf("recover of a flipped last piece: err = %v, want a corrupt-classified error", err)
							}
						})
					}
				}
			}
		}
	}
}

// BenchmarkLanedSave is a full save through p = 3 writer lanes paced at
// 48 MiB/s each onto storage.RAM, in 1 MiB chunks: the paper's regime, where
// the lanes, not memory, set the save time. x-model is the save time over the
// model's size/(3 × 48 MiB/s). A lane slot is 1 MiB/(48 MiB/s) ≈ 20.8 ms; cut
// evenly, the saves take 1.33, 4.33 and 10.67 slots, where 1 MiB pieces from
// one queue take 2, 5 and 11.
//
//	go test -run '^$' -bench LanedSave -benchtime 10x ./internal/core/
func BenchmarkLanedSave(b *testing.B) {
	const lanes, laneBW = 3, 48 << 20
	for _, size := range []int{4 << 20, 13 << 20, 32 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			cfg := Config{Concurrent: 1, SlotBytes: int64(size), Writers: lanes, ChunkBytes: 1 << 20, PerWriterBW: laneBW}
			c, err := New(storage.NewRAM(DeviceBytesFor(cfg)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			p := payload(1, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
					b.Fatal(err)
				}
			}
			perSave := time.Since(start) / time.Duration(b.N)
			model := time.Duration(float64(size) / (lanes * laneBW) * float64(time.Second))
			b.ReportMetric(float64(perSave)/float64(time.Millisecond), "ms/op")
			b.ReportMetric(float64(perSave)/float64(model), "x-model")
		})
	}
}
