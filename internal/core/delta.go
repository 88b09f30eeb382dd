// Delta checkpointing (ROADMAP: "incremental + delta checkpoints").
//
// Most of a training checkpoint is unchanged between adjacent iterations
// (GoCkpt, FastPersist make the same observation): the bytes pushed to the
// device per save, not the snapshot, gate the achievable frequency f* in
// the §3.4 model. When Config.DeltaKeyframe is set, the engine divides the
// payload into fixed-size chunks and persists only the chunks that changed
// since the previous checkpoint, as a self-describing delta record:
//
//	0   magic "PCDL" u32
//	4   version u32
//	8   baseCounter u64  — chain predecessor (must match the slot header)
//	16  fullSize u64     — logical payload length after applying the chain
//	24  granularity u32  — chunk size this record was diffed at
//	28  nchunk u32       — ceil(fullSize/granularity)
//	32  ndirty u32       — population count of the bitmap
//	36  hdrCRC u32       — CRC32 over bytes [0,36) + the bitmap
//	40  bitmap, ceil(nchunk/8) bytes, chunk i at byte i/8 bit i%8
//	..  dirty chunk payloads, ascending chunk index, each
//	    min(granularity, fullSize − i·granularity) bytes
//
// The header CRC is always present (independent of Config.VerifyPayload):
// a delta record that cannot be decoded poisons every later link of its
// chain, so decode failures must be detectable, not just torn-payload
// detectable. Chunk data is additionally covered by the slot payload CRC
// when VerifyPayload is on, and by the protocol ordering (payload persists
// before the header, the header before the pointer record) otherwise.
//
// Every K-th save is forced to be a full keyframe, bounding recovery to
// one keyframe read plus at most K delta applications, and bounding the
// pinned slot set to K+1.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/simd"
)

const (
	deltaMagic   = 0x4c444350 // "PCDL" little-endian
	deltaVersion = 1
	deltaHdrSize = 40

	// deltaMaxGran bounds the stored granularity field so a corrupt record
	// cannot make decode allocate absurd chunk geometry.
	deltaMaxGran = 1 << 30
)

// deltaGranularity picks the diff chunk size for a slot capacity: about
// 1/1024th of the slot, rounded up to a 64-byte multiple and clamped to
// [64 B, 64 KiB]. Small enough that scattered sparse updates (embedding
// rows, adapter blocks) don't dirty megabyte chunks, large enough that the
// bitmap and per-chunk hash state stay negligible (≤ 1024 chunks ⇒ 128 B
// bitmap, 8 KiB of hashes).
func deltaGranularity(slotBytes int64) int {
	g := slotBytes / 1024
	if rem := g % 64; rem != 0 {
		g += 64 - rem
	}
	if g < 64 {
		g = 64
	}
	if g > 64<<10 {
		g = 64 << 10
	}
	return int(g)
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a int64, b int) int {
	return int((a + int64(b) - 1) / int64(b))
}

// DirtyTracker accumulates the byte ranges a trainer touched since the
// last checkpoint, so delta encoding can skip hashing entirely. The
// checkpointer consumes the accumulated marks at each save.
//
// Coherence contract: marks are trusted. Between two Checkpoint calls the
// trainer must MarkRange every byte it mutated, and must feed marks from
// the same serialization domain that mutates the state and captures the
// snapshot (e.g. the training goroutine marking before it hands the
// snapshot to Save). Saves against a fed tracker must themselves be
// serialized by the caller: marks taken by save n describe the diff from
// save n−1, which is only true when saves complete in mutation order. An
// unmarked mutated range silently disappears from the delta; an over-wide
// or stale mark merely persists extra chunks. When in doubt, don't feed
// the tracker — the engine then falls back to content hashes, which need
// no contract. Size changes need no marks either way: any save whose
// payload length differs from the previous one has its tail re-diffed
// unconditionally.
type DirtyTracker struct {
	mu     sync.Mutex
	ranges [][2]int64 // {offset, length}, unmerged
	all    bool
	fed    bool
}

// trackerMaxRanges caps the unmerged mark list; past it the tracker
// degrades to MarkAll (correct, just no longer sparse).
const trackerMaxRanges = 4096

// MarkRange records that [off, off+n) was mutated. Out-of-payload offsets
// are harmless (clamped at encode time).
func (t *DirtyTracker) MarkRange(off, n int64) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fed = true
	if t.all {
		return
	}
	if len(t.ranges) >= trackerMaxRanges {
		t.all = true
		t.ranges = nil
		return
	}
	t.ranges = append(t.ranges, [2]int64{off, n})
}

// MarkAll records that the whole payload may have changed — the next save
// diffs nothing and persists a keyframe-equivalent delta or a keyframe.
func (t *DirtyTracker) MarkAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fed = true
	t.all = true
	t.ranges = nil
}

// take drains the accumulated marks. fed reports whether the trainer said
// anything at all since the last take — false means "fall back to hashes".
func (t *DirtyTracker) take() (ranges [][2]int64, all, fed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ranges, all, fed = t.ranges, t.all, t.fed
	t.ranges, t.all, t.fed = nil, false, false
	return ranges, all, fed
}

// restore re-merges marks a failed save took, so the retry still knows
// what was dirty. Marks fed concurrently since the take are kept too.
func (t *DirtyTracker) restore(ranges [][2]int64, all, fed bool) {
	if !fed {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fed = true
	if all || t.all || len(t.ranges)+len(ranges) > trackerMaxRanges {
		t.all = true
		t.ranges = nil
		return
	}
	t.ranges = append(t.ranges, ranges...)
}

// errDenseDelta ends a staged delta pass whose record would not beat the payload.
var errDenseDelta = errors.New("core: delta record would not be smaller than the payload")

// deltaPass is the hash/diff stage writePayload runs in delta mode: diff
// hashes granules, compares them with the tip's hashes and marks the dirty
// ones; with filter on, compact copies those into a pooled chunk so only they
// reach the writers. An in-memory delta is diffed whole up front on p workers
// (diffAll), a staged payload piece by piece, and an in-memory keyframe by the
// writers as they persist it (hashPiece). With filter off (a keyframe) the
// diff collects the hashes and counts what a delta would have persisted. The
// engine reuses one deltaPass under deltaMu, so a save allocates nothing here.
//
// Hashes are granuleHash under a per-engine random seed and live only in DRAM
// (an attach starts with a keyframe). A 64-bit collision (2^-64 per compared
// granule) drops a changed granule from a delta; trainers that cannot accept
// that feed the DirtyTracker, whose marks never consult hashes.
type deltaPass struct {
	seed maphash.Seed
	gran int

	filter   bool       // persist a delta record; off = keyframe
	base     uint64     // chain predecessor the record is diffed against
	old      []uint64   // the tip's granule hashes; nil = nothing to diff against
	lastSize int64      // the tip's logical size
	marks    [][2]int64 // tracker marks, trusted when trust is set
	all      bool       // MarkAll: every granule is dirty
	trust    bool       // fed tracker: only marked granules are dirty (or even read)

	next   []uint64 // this save's hashes; swapped with the engine's at publish
	head   []byte   // record header ‖ bitmap; bits accumulate as granules are diffed
	recLen int64    // record length so far (what a delta would persist)
	encNS  int64    // summed diff+compact time, for PhaseDeltaEncode

	// The up-front diff (diffAll): its workers, the payload they split, and
	// the dirty bytes they (or a keyframe's writers) count.
	fan   fanout
	src   []byte
	dirty atomic.Int64
}

// begin resets the pass for a size-byte payload and presets the bitmap bits
// no hash can clear: everything when there is nothing to diff against, the
// trusted marks, and the boundary rule — when the payload length changed,
// every granule from min(size, lastSize)/gran onward is dirty (growth appends
// bytes no mark covers, shrinkage reshapes the final partial granule; both
// tails must travel for apply to rebuild the exact new length).
func (dp *deltaPass) begin(size int64) {
	n := ceilDiv(size, dp.gran)
	dp.head = slices.Grow(dp.head[:0], deltaHdrSize+(n+7)/8)[:deltaHdrSize+(n+7)/8]
	dp.next = slices.Grow(dp.next[:0], n)[:n]
	clear(dp.head)
	clear(dp.next)
	dp.recLen = int64(len(dp.head))
	from := 0
	if dp.old != nil && !dp.all {
		from = n
		if size != dp.lastSize {
			from = int(min(size, dp.lastSize) / int64(dp.gran))
		}
	}
	for i := from; i < n; i++ {
		dp.mark(i)
	}
	if !dp.trust {
		return
	}
	for _, r := range dp.marks {
		lo, hi := max(r[0], 0), min(r[0]+r[1], size)
		for i := int(lo / int64(dp.gran)); int64(i)*int64(dp.gran) < hi; i++ {
			dp.mark(i)
		}
	}
}

func (dp *deltaPass) mark(i int)        { dp.head[deltaHdrSize+i/8] |= 1 << (i % 8) }
func (dp *deltaPass) marked(i int) bool { return dp.head[deltaHdrSize+i/8]&(1<<(i%8)) != 0 }

// skipsClean: a delta against trusted marks reads only the marked granules.
func (dp *deltaPass) skipsClean() bool { return dp.filter && dp.trust }

// fill is the staged path's source read of payload[off, off+len(buf)) and
// returns the bytes read: all of buf, except that a pass that skipsClean
// reads only the marked granules, one source read per run, each where it
// belongs in buf. A nil pass (full mode) is the plain read.
func (dp *deltaPass) fill(src Source, buf []byte, off int64) (int, error) {
	if dp == nil || !dp.skipsClean() {
		return len(buf), src.ReadInto(buf, off)
	}
	read, first := 0, int(off/int64(dp.gran))
	for lo := 0; lo < len(buf); {
		hi := lo
		for hi < len(buf) && dp.marked(first+hi/dp.gran) {
			hi = min(hi+dp.gran, len(buf))
		}
		if hi > lo {
			if err := src.ReadInto(buf[lo:hi], off+int64(lo)); err != nil {
				return 0, err
			}
			read += hi - lo
		}
		lo = hi + dp.gran
	}
	return read, nil
}

// diff hashes the granules of payload[off, off+len(in)) held in in, compares
// each with the tip's hash, marks the dirty ones and returns their bytes
// (preset bits count too). in is only read, its clean granules not even that
// when the pass skipsClean. Concurrent calls are safe on ranges that share no
// bitmap byte.
func (dp *deltaPass) diff(in []byte, off int64) int64 {
	var dirty int64
	first := int(off / int64(dp.gran))
	for lo := 0; lo < len(in); lo += dp.gran {
		i, g := first+lo/dp.gran, in[lo:min(lo+dp.gran, len(in))]
		marked := dp.marked(i)
		if !marked && dp.skipsClean() {
			dp.next[i] = dp.old[i]
			continue
		}
		dp.next[i] = granuleHash(dp.seed, g)
		if !marked && (dp.trust || dp.next[i] == dp.old[i]) {
			continue
		}
		dp.mark(i)
		dirty += int64(len(g))
	}
	return dirty
}

// compact copies the marked granules of payload[off, off+len(in)), held in
// in, to the front of out and returns their bytes. in is only read (it may be
// the caller's own memory); a staged piece passes its chunk as both.
func (dp *deltaPass) compact(in, out []byte, off int64) int {
	w, first := 0, int(off/int64(dp.gran))
	for lo := 0; lo < len(in); lo += dp.gran {
		if dp.marked(first + lo/dp.gran) {
			w += copy(out[w:], in[lo:min(lo+dp.gran, len(in))])
		}
	}
	return w
}

// diffAll diffs the whole in-memory payload b on p workers, over ranges cut on
// multiples of 8 granules so no two write one bitmap byte, and sums their
// dirty bytes into recLen.
func (dp *deltaPass) diffAll(b []byte, p int) {
	dp.src = b
	dp.fan.run(laneCut(int64(len(b)), p, 8*int64(dp.gran)), p, dp) //nolint:errcheck // a diff cannot fail
	dp.recLen += dp.dirty.Swap(0)
	dp.src = nil // the caller's buffer is not kept past the save
}

// hashPiece is a keyframe writer's diff of its piece payload[off, off+len(in)),
// each granule folded into the CRC (with verify) while in cache; adds to dirty.
func (dp *deltaPass) hashPiece(in []byte, off int64, verify bool) (crc uint32) {
	var dirty int64
	for lo := 0; lo < len(in); lo += dp.gran {
		g := in[lo:min(lo+dp.gran, len(in))]
		dirty += dp.diff(g, off+int64(lo))
		if verify {
			crc = simd.CRC32Update(crc, g)
		}
	}
	dp.dirty.Add(dirty)
	return crc
}

// piece is a diffAll worker's range of the payload.
func (dp *deltaPass) piece(_ int, lo, hi int64) (uint32, error) {
	dp.dirty.Add(dp.diff(dp.src[lo:hi], lo))
	return 0, nil
}

// finish completes the record header once the bitmap is final.
func (dp *deltaPass) finish(size int64) []byte {
	h := dp.head
	ndirty := 0
	for _, b := range h[deltaHdrSize:] {
		ndirty += bits.OnesCount8(b)
	}
	binary.LittleEndian.PutUint32(h[0:], deltaMagic)
	binary.LittleEndian.PutUint32(h[4:], deltaVersion)
	binary.LittleEndian.PutUint64(h[8:], dp.base)
	binary.LittleEndian.PutUint64(h[16:], uint64(size))
	binary.LittleEndian.PutUint32(h[24:], uint32(dp.gran))
	binary.LittleEndian.PutUint32(h[28:], uint32(ceilDiv(size, dp.gran)))
	binary.LittleEndian.PutUint32(h[32:], uint32(ndirty))
	binary.LittleEndian.PutUint32(h[36:], deltaCRC(h))
	return h
}

// deltaCRC covers the header (minus the CRC field itself) and the bitmap.
func deltaCRC(rec []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(rec[:36]), crc32.IEEETable, rec[deltaHdrSize:deltaHdrSize+bitmapLen(rec)])
}

func bitmapLen(rec []byte) int {
	return (int(binary.LittleEndian.Uint32(rec[28:])) + 7) / 8
}

// deltaRecord is a decoded, validated delta record header and bitmap.
// recLen is the record length they imply (header, bitmap, every dirty chunk);
// data is whatever followed the bitmap in the decoded bytes.
type deltaRecord struct {
	base     uint64
	fullSize int64
	gran     int
	nchunk   int
	bitmap   []byte
	recLen   int64
	data     []byte
}

// dirtyAt reports whether chunk i is present in the record.
func (d deltaRecord) dirtyAt(i int) bool {
	return d.bitmap[i/8]&(1<<(i%8)) != 0
}

// decodeDeltaHead parses and validates a record's header and bitmap, all
// that head (which may stop right after the bitmap) must hold. Every length
// is cross-checked before any slice is taken, so arbitrary input cannot
// panic (FuzzDeltaDecode holds it to that).
func decodeDeltaHead(head []byte) (deltaRecord, error) {
	if len(head) < deltaHdrSize {
		return deltaRecord{}, fmt.Errorf("core: delta record truncated: %d bytes", len(head))
	}
	if m := binary.LittleEndian.Uint32(head[0:]); m != deltaMagic {
		return deltaRecord{}, fmt.Errorf("core: bad delta magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != deltaVersion {
		return deltaRecord{}, fmt.Errorf("core: unsupported delta version %d", v)
	}
	d := deltaRecord{
		base:     binary.LittleEndian.Uint64(head[8:]),
		fullSize: int64(binary.LittleEndian.Uint64(head[16:])),
		gran:     int(binary.LittleEndian.Uint32(head[24:])),
		nchunk:   int(binary.LittleEndian.Uint32(head[28:])),
	}
	if d.gran < 1 || d.gran > deltaMaxGran {
		return deltaRecord{}, fmt.Errorf("core: implausible delta granularity %d", d.gran)
	}
	if d.fullSize < 0 || d.fullSize > math.MaxInt64-int64(d.gran) {
		return deltaRecord{}, fmt.Errorf("core: implausible delta size %d", d.fullSize)
	}
	if d.nchunk != ceilDiv(d.fullSize, d.gran) {
		return deltaRecord{}, fmt.Errorf("core: delta chunk count %d does not cover %d bytes at granularity %d", d.nchunk, d.fullSize, d.gran)
	}
	bmLen := (d.nchunk + 7) / 8
	if len(head) < deltaHdrSize+bmLen {
		return deltaRecord{}, fmt.Errorf("core: delta bitmap truncated")
	}
	d.bitmap = head[deltaHdrSize : deltaHdrSize+bmLen]
	if got, want := binary.LittleEndian.Uint32(head[36:]), deltaCRC(head); got != want {
		return deltaRecord{}, fmt.Errorf("core: delta header checksum mismatch")
	}
	pop := 0
	for _, b := range d.bitmap {
		pop += bits.OnesCount8(b)
	}
	if ndirty := int(binary.LittleEndian.Uint32(head[32:])); pop != ndirty {
		return deltaRecord{}, fmt.Errorf("core: delta bitmap population %d != recorded %d", pop, ndirty)
	}
	d.recLen = int64(deltaHdrSize+bmLen) + int64(pop)*int64(d.gran)
	if d.nchunk > 0 && d.dirtyAt(d.nchunk-1) {
		d.recLen -= int64(d.nchunk)*int64(d.gran) - d.fullSize // the last chunk is short
	}
	d.data = head[deltaHdrSize+bmLen:]
	return d, nil
}

// DirtyTracker returns the engine's dirty-range tracker, or nil when the
// engine is not in delta mode. Feeding it is optional (see its contract);
// an unfed tracker leaves the engine on content-hash fallback.
func (c *Checkpointer) DirtyTracker() *DirtyTracker { return c.tracker }

// checkpointDelta is the delta-mode save path. Saves are serialized under
// deltaMu — each one is diffed against the previous — so the CAS machinery
// of the concurrent path collapses to a plain publish: the tip only ever
// moves forward, one save at a time. Concurrent Checkpoint callers queue
// on the mutex (the paper's slot-wait, one level up). The payload streams
// through writePayload as in full mode with the deltaPass stage on; nothing
// it computes reaches the engine until the slot header has persisted.
func (c *Checkpointer) checkpointDelta(ctx context.Context, src Source) (uint64, error) {
	c.deltaMu.Lock()
	defer c.deltaMu.Unlock()

	start := time.Now()
	obsStart := c.obsNow()
	size := src.Size()
	counter := c.gCounter.Add(1)

	slot, err := c.acquireSlot(ctx, counter, obsStart)
	if err != nil {
		return 0, err
	}

	// A save is a delta when there is hash state to diff against, the chain
	// has room under K, the DeltaEvery cadence selects it and the previous
	// save was not dense. A staged pass whose record stops being smaller than
	// the payload restarts as a keyframe into the same slot (an in-memory one
	// is diffed up front and never does); saves then stay one-pass keyframes
	// until one counts a record that would win again.
	marks, all, fed := c.tracker.take()
	dp := &c.pass
	dp.old, dp.lastSize = c.hashes, c.lastSize
	dp.marks, dp.all, dp.trust = marks, all, fed && !all
	dp.filter = c.hashes != nil && !c.dense && len(c.chain) <= c.cfg.DeltaKeyframe &&
		(c.cfg.DeltaEvery <= 1 || (c.saveSeq+1)%uint64(c.cfg.DeltaEvery) == 0)
	if dp.filter {
		dp.base = c.chain[len(c.chain)-1].counter
	}
	stored, payloadCRC, err := c.writePayload(ctx, slot, src, counter, dp)
	if errors.Is(err, errDenseDelta) {
		dp.filter = false
		stored, payloadCRC, err = c.writePayload(ctx, slot, src, counter, dp)
	}
	if err != nil {
		c.tracker.restore(marks, all, fed)
		c.failSlot(slot, counter)
		return 0, err
	}
	cur := &checkMeta{slot: slot, counter: counter, size: stored, fullSize: size}
	if dp.filter {
		cur.kind, cur.base = slotKindDelta, dp.base
		c.emit(obs.Event{TS: obsStart, Dur: dp.encNS, Counter: counter, Bytes: stored, Value: size,
			Phase: obs.PhaseDeltaEncode, Slot: int32(slot), Writer: -1, Rank: -1})
	}
	hdr := slotHeader{counter: counter, size: stored, payloadCRC: payloadCRC, kind: cur.kind, base: cur.base, fullSize: size}
	if err := c.sealSlot(ctx, slot, hdr); err != nil {
		c.tracker.restore(marks, all, fed)
		return 0, err
	}

	// Publish. Serialized saves mean no CAS loop and no obsolete outcome:
	// the tip is ours by construction.
	oldChain := c.chain
	c.checkAddr.Store(cur)
	if cur.kind == slotKindFull {
		c.chain = nil // oldChain keeps the superseded links for the barrier below
	}
	c.chain = append(c.chain, *cur)
	// The tip moved, so the diff state follows it even if the pointer
	// record below fails — the next save diffs against what is in the
	// slots, not against what is durably pointed at.
	c.saveSeq++
	c.dense = c.hashes != nil && dp.recLen >= size
	c.hashes, dp.next = dp.next, c.hashes
	c.lastSize = size

	barrierStart := c.obsNow()
	rerr := c.persistRecord(ctx, *cur)
	c.span(obs.PhaseBarrier, barrierStart, counter, slot, 0, 0)
	if cur.kind == slotKindFull {
		// A keyframe supersedes the whole previous chain; if the record
		// failed, the durable pointer may still reference it.
		for _, m := range oldChain {
			c.retire(m.slot, rerr)
		}
	}
	if rerr != nil {
		// Delta case: nothing is freed — the old record points into a chain
		// prefix whose slots are all still held in c.chain.
		c.stats.FailedSaves.Add(1)
		c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
		return 0, rerr
	}

	c.stats.Checkpoints.Add(1)
	if cur.kind == slotKindDelta {
		c.stats.DeltaSaves.Add(1)
	} else {
		c.stats.KeyframeSaves.Add(1)
		c.instant(obs.PhaseKeyframe, counter, slot, size, 0)
	}
	c.saveDone(obs.PhasePublish, start, obsStart, counter, slot, stored, size)
	return counter, nil
}
