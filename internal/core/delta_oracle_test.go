package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync/atomic"
	"testing"

	"pccheck/internal/storage"
)

// The reference encoder: the staged, whole-payload-in-memory delta encoder
// the engine shipped before the streaming deltaPass, kept as the oracle the
// property test compares on-device records against (FNV hashes and all — the
// record bytes do not depend on the hash function).

// chunkHashes returns the FNV-1a 64 hash of each granularity-sized chunk
// of p (the last chunk may be short). FNV is not collision-proof; a silent
// collision would drop a changed chunk from a delta. The crash sweep's
// byte-equality oracle bounds that risk in testing, and trainers that
// cannot tolerate it feed the DirtyTracker instead (explicit marks never
// consult hashes).
func chunkHashes(p []byte, gran int) []uint64 {
	n := ceilDiv(int64(len(p)), gran)
	hs := make([]uint64, n)
	for i := 0; i < n; i++ {
		lo := i * gran
		hi := lo + gran
		if hi > len(p) {
			hi = len(p)
		}
		hs[i] = fnv64a(p[lo:hi])
	}
	return hs
}

func fnv64a(p []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range p {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// dirtySet is one save's diff decision: which chunks to persist and the
// refreshed per-chunk hash state.
type dirtySet struct {
	dirty  []bool
	hashes []uint64
	ndirty int
}

// computeDirty decides which chunks of buf changed since the previous
// checkpoint (whose size was lastSize and whose chunk hashes are
// oldHashes). With a fed tracker the marks are trusted and only marked
// chunks are rehashed; otherwise every chunk is hashed and diffed.
//
// Boundary rule: when the payload length changed, every chunk from
// min(size, lastSize)/gran onward is dirty regardless of marks or hashes.
// Growth appends bytes no mark covers (the old image simply ended), and
// shrinkage re-shapes the final partial chunk; both tails must travel with
// the delta for apply to reconstruct the exact new length.
func computeDirty(buf []byte, gran int, lastSize int64, oldHashes []uint64, marks [][2]int64, all, fed bool) dirtySet {
	size := int64(len(buf))
	nchunk := ceilDiv(size, gran)
	dirty := make([]bool, nchunk)

	if size != lastSize {
		from := min(size, lastSize) / int64(gran)
		for i := int(from); i < nchunk; i++ {
			dirty[i] = true
		}
	}

	var hashes []uint64
	if fed && !all {
		for _, r := range marks {
			off, n := r[0], r[1]
			if off < 0 {
				n += off
				off = 0
			}
			if n <= 0 || off >= size {
				continue
			}
			end := off + n
			if end > size {
				end = size
			}
			for i := int(off / int64(gran)); i < nchunk && int64(i)*int64(gran) < end; i++ {
				dirty[i] = true
			}
		}
		// Refresh hash state only for the chunks being persisted; clean
		// chunks keep their prior hashes (trusted-marks mode is documented
		// as such on DirtyTracker).
		hashes = make([]uint64, nchunk)
		copy(hashes, oldHashes)
		for i, d := range dirty {
			if d {
				lo := i * gran
				hi := min(lo+gran, int(size))
				hashes[i] = fnv64a(buf[lo:hi])
			}
		}
	} else {
		hashes = chunkHashes(buf, gran)
		for i := range dirty {
			if all || i >= len(oldHashes) || hashes[i] != oldHashes[i] {
				dirty[i] = true
			}
		}
	}

	nd := 0
	for _, d := range dirty {
		if d {
			nd++
		}
	}
	return dirtySet{dirty: dirty, hashes: hashes, ndirty: nd}
}

// encodeDelta serializes a delta record for payload against the
// checkpoint baseCounter.
func encodeDelta(payload []byte, baseCounter uint64, gran int, ds dirtySet) []byte {
	nchunk := len(ds.dirty)
	bmLen := (nchunk + 7) / 8
	total := deltaHdrSize + bmLen
	for i, d := range ds.dirty {
		if d {
			total += chunkLen(int64(len(payload)), gran, i)
		}
	}
	rec := make([]byte, total)
	binary.LittleEndian.PutUint32(rec[0:], deltaMagic)
	binary.LittleEndian.PutUint32(rec[4:], deltaVersion)
	binary.LittleEndian.PutUint64(rec[8:], baseCounter)
	binary.LittleEndian.PutUint64(rec[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(rec[24:], uint32(gran))
	binary.LittleEndian.PutUint32(rec[28:], uint32(nchunk))
	binary.LittleEndian.PutUint32(rec[32:], uint32(ds.ndirty))
	bm := rec[deltaHdrSize : deltaHdrSize+bmLen]
	pos := deltaHdrSize + bmLen
	for i, d := range ds.dirty {
		if !d {
			continue
		}
		bm[i/8] |= 1 << (i % 8)
		lo := i * gran
		pos += copy(rec[pos:], payload[lo:min(lo+gran, len(payload))])
	}
	binary.LittleEndian.PutUint32(rec[36:], deltaCRC(rec))
	return rec
}

// chunkLen is the byte length of chunk i of a fullSize-byte payload.
func chunkLen(fullSize int64, gran, i int) int {
	l := fullSize - int64(i)*int64(gran)
	if l > int64(gran) {
		l = int64(gran)
	}
	if l < 0 {
		l = 0
	}
	return int(l)
}

// decodeDelta validates a whole in-memory record: the reference for the
// checks stream makes as a link's pieces pass.
func decodeDelta(rec []byte) (deltaRecord, error) {
	d, err := decodeDeltaHead(rec)
	if err == nil && d.recLen != int64(len(rec)) {
		err = fmt.Errorf("core: delta record is %d bytes, its bitmap describes %d", len(rec), d.recLen)
	}
	return d, err
}

// applyDelta is the in-memory reference for a delta link in recover.go's
// stream, and the form the codec tests were written against: a fresh
// d.fullSize buffer seeded with base, every dirty chunk copied into place out of a record decodeDelta
// accepted, and an error for a clean chunk that reaches past the base (the
// grow/shrink boundary rule).
func applyDelta(base []byte, d deltaRecord) ([]byte, error) {
	out := make([]byte, d.fullSize)
	copy(out, base)
	rest := d.data
	for i := 0; i < d.nchunk; i++ {
		lo := i * d.gran
		hi := lo + chunkLen(d.fullSize, d.gran, i)
		if d.dirtyAt(i) {
			rest = rest[copy(out[lo:hi], rest[:hi-lo]):]
		} else if hi > len(base) {
			return nil, fmt.Errorf("delta leaves chunk %d (bytes %d–%d) undefined: base is only %d bytes", i, lo, hi, len(base))
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("delta record has %d trailing bytes", len(rest))
	}
	return out, nil
}

// slotRecord reads the published slot's header and stored bytes off dev.
func slotRecord(t *testing.T, c *Checkpointer, dev storage.Device) (slotHeader, []byte) {
	t.Helper()
	m := c.checkAddr.Load()
	hb := make([]byte, slotHeaderSize)
	if err := dev.ReadAt(hb, slotBase(c.sb, m.slot)); err != nil {
		t.Fatal(err)
	}
	hdr, ok := decodeSlotHeader(hb)
	if !ok || hdr.counter != m.counter {
		t.Fatalf("published slot %d header: ok=%v counter=%d want %d", m.slot, ok, hdr.counter, m.counter)
	}
	rec := make([]byte, hdr.size)
	if err := dev.ReadAt(rec, payloadBase(c.sb, m.slot)); err != nil {
		t.Fatal(err)
	}
	return hdr, rec
}

// TestDeltaRecordsMatchOracle is the equivalence property of the streaming
// delta pass: over seeded save sequences (sparse, dense, grow, shrink,
// empty, sub-granule) crossed with pipeline chunkings and tracker modes,
// every slot holds byte-for-byte what the reference encoder produces from
// the whole payload in memory, under a payload CRC of exactly those bytes.
func TestDeltaRecordsMatchOracle(t *testing.T) {
	const slotBytes = 8192
	gran := deltaGranularity(slotBytes)
	type step struct {
		name string
		next func(p []byte, i uint64) ([]byte, [][2]int64) // new payload + exact mutated ranges
	}
	sparse := step{"sparse", func(p []byte, i uint64) ([]byte, [][2]int64) { return p, mutateSparse(p, 3, i) }}
	resize := func(n int) step {
		return step{fmt.Sprintf("resize-%d", n), func(p []byte, i uint64) ([]byte, [][2]int64) {
			q := append(append([]byte(nil), p[:min(n, len(p))]...), payload(int64(i), max(0, n-len(p)))...)
			if len(q) > 0 {
				q[0] ^= 1
			}
			return q, [][2]int64{{0, 1}}
		}}
	}
	dense := step{"dense", func(p []byte, i uint64) ([]byte, [][2]int64) {
		return payload(int64(100+i), len(p)), [][2]int64{{0, int64(len(p))}}
	}}
	steps := []step{sparse, sparse, dense, sparse, sparse, resize(7000), sparse, resize(3000), sparse,
		resize(0), resize(40), resize(5000), sparse, sparse, sparse, sparse, sparse, sparse}

	for _, chunk := range []int{0, 96, 200, 32} {
		for _, mode := range []string{"unfed", "fed", "markall"} {
			t.Run(fmt.Sprintf("chunk%d/%s", chunk, mode), func(t *testing.T) {
				cfg := Config{Concurrent: 1, SlotBytes: slotBytes, ChunkBytes: chunk, Writers: 2,
					VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 4}
				c, dev := deltaEngine(t, cfg)
				tr := c.DirtyTracker()
				var prev []byte
				var prevCounter uint64
				p := sparsePayload(3, 0, 6000)
				deltas := 0
				for i := 0; i <= len(steps); i++ {
					var marks [][2]int64
					name := "initial"
					if i > 0 {
						name = steps[i-1].name
						p, marks = steps[i-1].next(p, uint64(i))
					}
					all, fed := mode == "markall" && i%3 == 0, mode != "unfed"
					switch {
					case all:
						tr.MarkAll()
					case fed:
						for _, r := range marks {
							tr.MarkRange(r[0], r[1])
						}
						tr.MarkRange(-5, 3)        // clamped away
						tr.MarkRange(1<<40, 1<<40) // past the payload
					}
					saveAndRecover(t, c, dev, p, name)
					hdr, rec := slotRecord(t, c, dev)
					want := p
					if hdr.kind == slotKindDelta {
						deltas++
						if !fed {
							marks = nil
						}
						ds := computeDirty(p, gran, int64(len(prev)), chunkHashes(prev, gran), marks, all, fed)
						want = encodeDelta(p, prevCounter, gran, ds)
					}
					if !bytes.Equal(rec, want) {
						t.Fatalf("save %d (%s, kind %d): slot holds %d bytes that differ from the oracle's %d", i, name, hdr.kind, len(rec), len(want))
					}
					if !hdr.hasCRC || hdr.payloadCRC != crc32.ChecksumIEEE(rec) {
						t.Fatalf("save %d (%s): header CRC %#x, stored bytes hash to %#x", i, name, hdr.payloadCRC, crc32.ChecksumIEEE(rec))
					}
					if hdr.fullSize != int64(len(p)) && hdr.kind == slotKindDelta {
						t.Fatalf("save %d (%s): header fullSize %d, payload %d", i, name, hdr.fullSize, len(p))
					}
					if free, wantFree := c.FreeSlots(), c.TotalSlots()-c.PinnedSlots(); free != wantFree {
						t.Fatalf("save %d (%s): %d free slots, want %d", i, name, free, wantFree)
					}
					if err := c.checkSlots(); err != nil {
						t.Fatalf("save %d (%s): %v", i, name, err)
					}
					prev, prevCounter = append(prev[:0], p...), hdr.counter
				}
				if deltas == 0 {
					t.Fatal("sequence produced no delta records")
				}
			})
		}
	}
}

// countingSource counts the payload bytes the engine pulls.
type countingSource struct {
	Source
	read atomic.Int64
}

func (s *countingSource) ReadInto(p []byte, off int64) error {
	s.read.Add(int64(len(p)))
	return s.Source.ReadInto(p, off)
}

// countingDevice counts the bytes WriteAt puts on the device: payload pieces
// and delta record heads (slot headers and pointer records go via Persist).
type countingDevice struct {
	storage.Device
	wrote atomic.Int64
}

func (d *countingDevice) WriteAt(p []byte, off int64) error {
	d.wrote.Add(int64(len(p)))
	return d.Device.WriteAt(p, off)
}

// TestDeltaDenseFallback: a staged source's first dense save may read the
// source twice (an aborted delta pass, then the keyframe pass into the same
// slot); an in-memory payload is diffed before its first write, so its first
// dense save writes one payload and no abandoned record. While updates stay
// dense each save is one pass; the first sparse save after that is still a
// one-pass keyframe, and deltas resume on the next.
func TestDeltaDenseFallback(t *testing.T) {
	const n = 32 << 10
	for _, tc := range []struct {
		name       string
		inPlace    bool
		firstDense float64 // passes the first dense save may take
	}{{"staged", false, 2}, {"in place", true, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Concurrent: 1, SlotBytes: n, ChunkBytes: 4096, VerifyPayload: true, DeltaKeyframe: 8}
			dev := &countingDevice{Device: storage.NewRAM(DeviceBytesFor(cfg))}
			c, err := New(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			head := int64(deltaHdrSize + (ceilDiv(n, deltaGranularity(n))+7)/8)
			p := sparsePayload(9, 0, n)
			save := func(tag string, wantPasses float64, wantKind uint8) {
				t.Helper()
				counted := &countingSource{Source: BytesSource(p)}
				var src Source = counted
				if tc.inPlace {
					src = BytesSource(p)
				}
				wrote := dev.wrote.Load()
				if _, err := c.Checkpoint(context.Background(), src); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if got := float64(counted.read.Load()) / n; !tc.inPlace && got > wantPasses {
					t.Errorf("%s: read the source %.2f times, want at most %.0f", tag, got, wantPasses)
				}
				// A save writes at most its passes' payloads plus one record head.
				if got := float64(dev.wrote.Load()-wrote-head) / n; tc.inPlace && got > wantPasses {
					t.Errorf("%s: wrote %.3f payloads to the device, want at most %.0f", tag, got, wantPasses)
				}
				if hdr, _ := slotRecord(t, c, dev); hdr.kind != wantKind {
					t.Errorf("%s: stored kind %d, want %d", tag, hdr.kind, wantKind)
				}
				if free, want := c.FreeSlots(), c.TotalSlots()-c.PinnedSlots(); free != want {
					t.Errorf("%s: %d free slots, want %d", tag, free, want)
				}
				if got, _, err := Recover(dev); err != nil || !bytes.Equal(got, p) {
					t.Fatalf("%s: recover: err=%v equal=%v", tag, err, bytes.Equal(got, p))
				}
			}
			save("initial keyframe", 1, slotKindFull)
			mutateSparse(p, 9, 1)
			save("sparse delta", 1, slotKindDelta)
			p = payload(50, n)
			save("first dense", tc.firstDense, slotKindFull)
			p = payload(51, n)
			save("second dense", 1, slotKindFull)
			p[100] ^= 1
			save("sparse after dense", 1, slotKindFull)
			p[200] ^= 1
			save("deltas resume", 1, slotKindDelta)
		})
	}
}

// TestDeltaFailedSaveLeavesNoTrace: a save that fails before publishing must
// not consume a DeltaEvery cadence step or touch the diff state. With
// DeltaEvery=2 the saves alternate keyframe, delta; a fault on the third
// save (a keyframe by cadence) must leave its retry a keyframe too.
func TestDeltaFailedSaveLeavesNoTrace(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, ChunkBytes: 1024, VerifyPayload: true, DeltaEvery: 2, DeltaKeyframe: 8}
	dev := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := sparsePayload(4, 0, 6000)
	wantKinds := []uint8{slotKindFull, slotKindDelta, slotKindFull, slotKindDelta, slotKindFull}
	for i, want := range wantKinds {
		if i > 0 {
			mutateSparse(p, 4, uint64(i))
		}
		if i == 2 {
			hashes, lastSize, seq := append([]uint64(nil), c.hashes...), c.lastSize, c.saveSeq
			dev.FailAfter(storage.OpWrite, 3, nil)
			if _, err := c.Checkpoint(ctx, BytesSource(p)); !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("faulted save: err = %v, want injected", err)
			}
			dev.Clear()
			if c.saveSeq != seq || c.lastSize != lastSize || !slices.Equal(c.hashes, hashes) {
				t.Fatalf("failed save moved the diff state: saveSeq %d→%d lastSize %d→%d hashes equal=%v",
					seq, c.saveSeq, lastSize, c.lastSize, slices.Equal(c.hashes, hashes))
			}
			if free, want := c.FreeSlots(), c.TotalSlots()-c.PinnedSlots(); free != want {
				t.Fatalf("after failed save: %d free slots, want %d", free, want)
			}
		}
		saveAndRecover(t, c, dev, p, fmt.Sprintf("save %d", i))
		if hdr, _ := slotRecord(t, c, dev); hdr.kind != want {
			t.Fatalf("save %d stored kind %d, want %d (cadence drifted)", i, hdr.kind, want)
		}
	}
}

// TestReadLatestStaysInsideLen: a chain whose keyframe is larger than its
// tip (a shrink) must not be applied in the caller's spare capacity —
// ReadLatest owns dst[:len(dst)] and nothing past it.
func TestReadLatestStaysInsideLen(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, ChunkBytes: 1024, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 8}
	c, dev := deltaEngine(t, cfg)
	p := sparsePayload(6, 0, 6000)
	ctx := context.Background()
	if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
		t.Fatal(err)
	}
	p = p[:3000]
	p[10] ^= 1
	if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
		t.Fatal(err)
	}
	if hdr, _ := slotRecord(t, c, dev); hdr.kind != slotKindDelta {
		t.Fatalf("shrink stored kind %d, want a delta tip over the larger keyframe", hdr.kind)
	}
	arena := bytes.Repeat([]byte{0xEE}, 8000)
	_, n, err := c.ReadLatest(arena[:3000])
	if err != nil || n != 3000 || !bytes.Equal(arena[:3000], p) {
		t.Fatalf("ReadLatest: n=%d err=%v equal=%v", n, err, bytes.Equal(arena[:3000], p))
	}
	for i, b := range arena[3000:] {
		if b != 0xEE {
			t.Fatalf("ReadLatest wrote past len(dst): arena[%d] = %#x", 3000+i, b)
		}
	}
}

// TestApplyLinkRejectsBadRecords forges delta records into the tip's slot,
// each under a slot header (and payload CRC) that describes it faithfully, and
// checks that chain recovery, which reads a link's chunks straight into the
// payload, classifies every inconsistent one corrupt and serves the honest
// one byte for byte.
func TestApplyLinkRejectsBadRecords(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, ChunkBytes: 1024, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 8}
	c, dev := deltaEngine(t, cfg)
	gran := deltaGranularity(cfg.SlotBytes)
	base := sparsePayload(8, 0, 6000)
	ctx := context.Background()
	for _, p := range [][]byte{base, append(append([]byte(nil), base...), 7)} {
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	hdr, _ := slotRecord(t, c, dev)
	if hdr.kind != slotKindDelta || len(c.chain) != 2 {
		t.Fatalf("tip kind %d over a chain of %d, want a delta over its keyframe", hdr.kind, len(c.chain))
	}
	key := c.chain[0].counter
	next := append(append([]byte(nil), base...), payload(9, 1000)...)
	next[100] ^= 1
	diff := func(lastSize int) dirtySet {
		return computeDirty(next, gran, int64(lastSize), chunkHashes(next[:lastSize], gran), [][2]int64{{100, 1}}, false, true)
	}
	good := encodeDelta(next, key, gran, diff(len(base)))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	cases := []struct {
		name     string
		rec      []byte
		fullSize int
		crc      uint32
		ok       bool
	}{
		{"honest", good, len(next), crc32.ChecksumIEEE(good), true},
		{"wrong base", encodeDelta(next, key+1, gran, diff(len(base))), len(next), 0, false},
		{"header disagrees on size", good, len(next) - 1, crc32.ChecksumIEEE(good), false},
		{"negative size in header", good, -1, crc32.ChecksumIEEE(good), false},
		{"clean chunk past base", encodeDelta(next, key, gran, diff(len(next))), len(next), 0, false},
		{"truncated", good[:len(good)-1], len(next), crc32.ChecksumIEEE(good[:len(good)-1]), false},
		{"cut inside bitmap", good[:deltaHdrSize+1], len(next), crc32.ChecksumIEEE(good[:deltaHdrSize+1]), false},
		{"trailing byte", append(append([]byte(nil), good...), 0), len(next), 0, false},
		{"flipped chunk byte", flipped, len(next), crc32.ChecksumIEEE(good), false},
	}
	for _, tc := range cases {
		if tc.crc == 0 {
			tc.crc = crc32.ChecksumIEEE(tc.rec)
		}
		tip := c.chain[1]
		tip.size, tip.fullSize = int64(len(tc.rec)), int64(tc.fullSize)
		h := slotHeader{counter: tip.counter, size: tip.size, payloadCRC: tc.crc, hasCRC: true, epoch: c.sb.epoch,
			kind: slotKindDelta, base: key, fullSize: tip.fullSize}
		if err := dev.WriteAt(encodeSlotHeader(h), slotBase(c.sb, tip.slot)); err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteAt(tc.rec, payloadBase(c.sb, tip.slot)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(next))
		err := stream(dev, c.sb, []checkMeta{c.chain[0], tip}, got, nil, 0)
		switch {
		case tc.ok && (err != nil || !bytes.Equal(got, next)):
			t.Errorf("%s: err=%v, payload equal=%v", tc.name, err, bytes.Equal(got, next))
		case !tc.ok && !storage.IsCorrupt(err):
			t.Errorf("%s: err=%v, want a corrupt-classified error", tc.name, err)
		}
	}
}
