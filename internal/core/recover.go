package core

import (
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"

	"pccheck/internal/storage"
)

// The read side (§4.2) is two steps over one predicate: resolve turns the
// pointer records (or a requested counter) into the newest complete
// keyframe→delta chain — a full checkpoint is a chain of one — and stream
// turns a chain into bytes, or only verifies it. Slot headers are judged by
// slotHeld alone, so cold recovery, live reads, the recovery iterator,
// Inspect and the scrubber accept exactly the same slots.

var (
	// errSlotRecycled: the slot's header does not describe the checkpoint the
	// caller resolved. Under live concurrency a newer checkpoint recycled the
	// slot mid-read (retry against fresh metadata); during crash recovery the
	// record and slot disagree. errSlotTorn: it does not even decode.
	errSlotRecycled = errors.New("core: slot recycled during read")
	errSlotTorn     = fmt.Errorf("%w: header torn", errSlotRecycled)
	// errSlotQuarantined: a scrubber tombstone — known bad, not fresh damage.
	errSlotQuarantined = errors.New("core: slot is quarantined")
)

// streamPiece is how much stream reads at a time. A piece is folded into the
// slot CRC right after it lands, so it has to still be in cache then.
const streamPiece = 256 << 10

// minBytesPerCore is the fewest bytes a pass over a payload (stream's reads,
// the up-front delta diff) gives a core of its own. Below 32 MiB a second
// reader does not pay reliably on 2 vCPUs: across BenchmarkStream runs it
// read a 16 MiB tmpfs file at 0.85–1.9× one.
const minBytesPerCore = 16 << 20

// coresFor is how many goroutines a pass over size bytes gets: one per
// minBytesPerCore, at most GOMAXPROCS, at least one.
func coresFor(size int64) int {
	return max(1, min(runtime.GOMAXPROCS(0), int(size/minBytesPerCore)))
}

// readSuperblock reads and validates the device's superblock.
func readSuperblock(dev storage.Device) (superblock, error) {
	head := make([]byte, 64)
	if err := dev.ReadAt(head, superOff); err != nil {
		return superblock{}, err
	}
	return decodeSuperblock(head)
}

// meta is the checkpoint a decoded slot header describes.
func (h slotHeader) meta(slot int) checkMeta {
	return checkMeta{slot: slot, counter: h.counter, size: h.size, kind: h.kind, base: h.base, fullSize: h.fullSize}
}

// checkPayload judges the CRC folded over a slot's stored bytes (written
// without VerifyPayload, there is none). A mismatch is classified corrupt,
// not transient: re-reading the same bytes will not heal them.
func (h slotHeader) checkPayload(crc uint32) error {
	if h.hasCRC && crc != h.payloadCRC {
		return storage.Corrupt(fmt.Errorf("core: checkpoint %d payload checksum mismatch", h.counter))
	}
	return nil
}

// slotHeld reads the header of slot and says whether the slot holds
// checkpoint counter with size stored bytes (counter 0, which no checkpoint
// carries, and a negative size each accept any): the header must decode,
// carry the live epoch — one from a previous format generation describes a
// dead image — a known kind, sizes the slot can hold and no tombstone. The
// decoded header is returned even when rejected. A read failure comes back
// as the device reported it; every rejection wraps errSlotRecycled, except a
// tombstone: errSlotQuarantined, classified corrupt (a retry reads it again).
func slotHeld(dev storage.Device, sb superblock, slot int, counter uint64, size int64) (slotHeader, error) {
	return slotHeldIn(dev, sb, slot, counter, size, make([]byte, slotHeaderSize))
}

// slotHeldIn is slotHeld reading through buf, which keeps the stored header.
func slotHeldIn(dev storage.Device, sb superblock, slot int, counter uint64, size int64, buf []byte) (slotHeader, error) {
	if slot < 0 || slot >= sb.slots {
		return slotHeader{}, fmt.Errorf("%w: slot %d of %d", errSlotRecycled, slot, sb.slots)
	}
	if err := dev.ReadAt(buf, slotBase(sb, slot)); err != nil {
		return slotHeader{}, err
	}
	hdr, ok := decodeSlotHeader(buf)
	switch {
	case !ok:
		return slotHeader{}, fmt.Errorf("%w (slot %d)", errSlotTorn, slot)
	case hdr.quarantined():
		return hdr, storage.Corrupt(fmt.Errorf("%w: checkpoint %d in slot %d", errSlotQuarantined, hdr.counter, slot))
	case hdr.epoch != sb.epoch:
		return hdr, fmt.Errorf("%w: slot %d header from format epoch %d, device is epoch %d", errSlotRecycled, slot, hdr.epoch, sb.epoch)
	case hdr.size < 0 || hdr.size > sb.slotBytes || hdr.kind > slotKindDelta ||
		(hdr.kind == slotKindDelta && (hdr.fullSize < 0 || hdr.fullSize > sb.slotBytes)):
		// No writer produces this under a valid header CRC.
		return hdr, storage.Corrupt(fmt.Errorf("%w: slot %d header implausible (%d stored, %d logical bytes of %d, kind %d)",
			errSlotRecycled, slot, hdr.size, hdr.fullSize, sb.slotBytes, hdr.kind))
	case counter != 0 && hdr.counter != counter, size >= 0 && hdr.size != size:
		return hdr, fmt.Errorf("%w: slot %d holds counter %d/size %d, want %d/%d", errSlotRecycled, slot, hdr.counter, hdr.size, counter, size)
	}
	return hdr, nil
}

// unreadable: slotHeld could not read the header, as opposed to rejecting it.
func unreadable(err error) bool {
	return err != nil && !errors.Is(err, errSlotRecycled) && !errors.Is(err, errSlotQuarantined)
}

// resolve finds the newest complete chain, keyframe first and tip last,
// without touching a payload. With counter 0 the tip comes from the pointer
// records (kept in recs), and loc says which location held it (0 = A, 1 = B)
// so an engine resumes alternating correctly; otherwise it is the slot
// holding counter.
//
// The records are tried highest counter first. A record is only durable
// after every link of its chain is (headers persist before the record, and
// chain slots are never recycled while a durable record references them), so
// a tip or link slotHeld rejects means this record is the torn or stale one
// and the other names the newest complete chain. An unreadable record or
// header is skipped likewise; its error surfaces only if nothing resolves.
func resolve(dev storage.Device, sb superblock, counter uint64, recs *[2 * recordSize]byte) (chain []checkMeta, loc int, err error) {
	type candidate struct {
		meta checkMeta
		loc  int
	}
	failure := ErrNoCheckpoint // or the first read error met on the way
	skip := func(err error) {
		if failure == ErrNoCheckpoint && unreadable(err) {
			failure = err
		}
	}
	cands := append(make([]candidate, 0, 2), candidate{meta: checkMeta{slot: -1, counter: counter}})
	if counter == 0 {
		cands = cands[:0]
		recs = cmp.Or(recs, new([2 * recordSize]byte))
		for loc, off := range recordOffs {
			rec := recs[loc*recordSize:][:recordSize]
			if err := dev.ReadAt(rec, off); err != nil {
				skip(err)
			} else if m, ok := decodeRecord(rec); ok && m.size >= 0 { // a negative size would ask slotHeld for "any"
				cands = append(cands, candidate{m, loc})
			}
		}
		if len(cands) == 2 && cands[1].meta.counter > cands[0].meta.counter {
			cands[0], cands[1] = cands[1], cands[0]
		}
	}
	// Predecessors and requested versions are found by counter: every slot
	// header is read once, on first need, however long the chain.
	var held []checkMeta
	find := func(counter uint64) (checkMeta, bool) {
		if held == nil {
			held = make([]checkMeta, 0, sb.slots)
			for slot := 0; slot < sb.slots; slot++ {
				hdr, err := slotHeld(dev, sb, slot, 0, -1)
				if err != nil {
					skip(err)
					continue
				}
				held = append(held, hdr.meta(slot))
			}
		}
		for _, m := range held {
			if m.counter == counter {
				return m, true
			}
		}
		return checkMeta{}, false
	}
	for _, cand := range cands {
		tip, ok := cand.meta, false
		if tip.slot < 0 {
			tip, ok = find(tip.counter)
		} else {
			hdr, err := slotHeld(dev, sb, tip.slot, tip.counter, tip.size)
			skip(err)
			tip, ok = hdr.meta(tip.slot), err == nil
		}
		chain := []checkMeta{tip}
		for cur := tip; ok && cur.kind == slotKindDelta; {
			// Strictly decreasing counters and a depth bound of the slot
			// count: a corrupted base pointer cannot loop.
			if ok = len(chain) <= sb.slots && cur.base != 0 && cur.base < cur.counter; !ok {
				break
			}
			if cur, ok = find(cur.base); ok {
				chain = append(chain, cur)
			}
		}
		if !ok {
			continue
		}
		slices.Reverse(chain)
		return chain, cand.loc, nil
	}
	return nil, 0, failure
}

// heldAt is checkpoint counter as dev holds it, wherever it is stored: a
// lower tier's slot indices are its own, so a copy there is found by counter.
func heldAt(dev storage.Device, sb superblock, counter uint64) (checkMeta, bool) {
	chain, _, err := resolve(dev, sb, counter, nil)
	if err != nil {
		return checkMeta{}, false
	}
	return chain[len(chain)-1], true
}

// newest reads the superblock and resolves the newest chain under it. sb is
// valid when err is nil or ErrNoCheckpoint.
func newest(dev storage.Device) (sb superblock, chain []checkMeta, loc int, err error) {
	if sb, err = readSuperblock(dev); err == nil {
		chain, loc, err = resolve(dev, sb, 0, nil)
	}
	return sb, chain, loc, err
}

// pieces takes stored bytes off a device streamPiece at a time, folding crc.
type pieces struct {
	dev     storage.Device
	scratch []byte // bytes nobody keeps pass through here; made on first use
	crc     uint32
	n       int64 // bytes folded
}

// read takes n bytes at off: the first len(dst) land in dst, all are folded.
func (p *pieces) read(dst []byte, off, n int64) error {
	for n > 0 {
		buf := dst
		if len(buf) == 0 {
			if p.scratch == nil {
				p.scratch = make([]byte, streamPiece)
			}
			buf = p.scratch
		}
		buf = buf[:min(int64(len(buf)), n, streamPiece)]
		if err := p.dev.ReadAt(buf, off); err != nil {
			return err
		}
		p.crc = crc32.Update(p.crc, crc32.IEEETable, buf)
		dst = dst[min(len(dst), len(buf)):]
		off, n, p.n = off+int64(len(buf)), n-int64(len(buf)), p.n+int64(len(buf))
	}
	return nil
}

// planned is a judged link: its granules (a keyframe is one) stored from off.
type planned struct {
	hdr  slotHeader
	rec  deltaRecord
	off  int64
	head uint32 // CRC of what is stored before off: a delta's header and bitmap
}

// whole is a keyframe's bitmap: one granule, present.
var whole = []byte{1}

// streamWork is what one stream call works in, pooled so that a sweep that
// verifies slot after slot, or a small read, allocates none of it.
type streamWork struct {
	plan []planned
	got  []pieces // link i as reader r of n read it, at i*n+r
	fan  fanout   // the readers
	// The running stream's.
	dev          storage.Device
	dst, scratch []byte
	n            int
}

var streamWorks = sync.Pool{New: func() any { return new(streamWork) }}

// piece is reader r of n: in chain order, it reads every planned link's runs
// of present granules in logical bytes [lo, hi) into dst, or through a scratch
// past its end (the first reader's is the caller's). A granule is stored after
// one granule per present granule before it.
func (w *streamWork) piece(r int, lo, hi int64) (uint32, error) {
	var buf []byte
	if r == 0 {
		buf = w.scratch
	}
	for i, l := range w.plan {
		rd := &w.got[i*w.n+r]
		*rd = pieces{dev: w.dev, scratch: buf}
		d, g, pos, end := l.rec, int64(l.rec.gran), l.off, min(hi, l.rec.fullSize)
		for j := 0; int64(j)*g < end; j++ {
			if !d.dirtyAt(j) {
				continue
			}
			k := j + 1
			for int64(k)*g < end && d.dirtyAt(k) {
				k++
			}
			a, b := max(lo, int64(j)*g), max(lo, min(end, int64(k)*g))
			if err := rd.read(w.dst[min(a, int64(len(w.dst))):min(b, int64(len(w.dst)))], pos+a-int64(j)*g, b-a); err != nil {
				return 0, err
			}
			pos, j = pos+int64(k-j)*g, k
		}
		buf = rd.scratch
	}
	return 0, nil
}

// stream reads chain into dst: plan, read, judge (docs/ALGORITHM.md). The plan
// re-judges each link's header with slotHeld (a live reader's slot can be
// recycled under it) and checks each delta's header and bitmap. Then readers
// goroutines (0: coresFor the largest link's logical bytes) walk every link
// in chain order, each clipped to its own granule-aligned range, so later
// links overwrite earlier ones and each stored byte is folded once; each
// link's CRCs are joined in record order and judged.
// Only dst[:len(dst)] is written: dst need only hold the tip (no clean chunk
// of a delta reaches past its base), and bytes past it go through a reader's
// scratch (the first's is scratch). With dst nil stream only verifies, on one
// reader unless told otherwise; chain may then be one delta, without its base.
func stream(dev storage.Device, sb superblock, chain []checkMeta, dst, scratch []byte, readers int) error {
	if len(chain) == 0 || (len(dst) > 0 && chain[0].kind != slotKindFull) {
		return storage.Corrupt(fmt.Errorf("core: delta chain does not start at a keyframe"))
	}
	w := streamWorks.Get().(*streamWork)
	defer func() { // pooled empty: it must not keep devices or buffers alive
		clear(w.plan)
		clear(w.got)
		w.dev, w.dst, w.scratch = nil, nil, nil
		streamWorks.Put(w)
	}()
	w.plan = slices.Grow(w.plan[:0], len(chain))[:len(chain)]
	var size int64 // the largest link's logical bytes
	for i, link := range chain {
		hdr, err := slotHeld(dev, sb, link.slot, link.counter, link.size)
		if err != nil {
			return err
		}
		l := &w.plan[i]
		l.hdr, l.off, l.rec = hdr, payloadBase(sb, link.slot), deltaRecord{fullSize: hdr.size, gran: int(max(hdr.size, 1)), bitmap: whole}
		if i > 0 || link.kind != slotKindFull {
			// Header and bitmap come off the device through a few bytes.
			head := make([]byte, min(hdr.size, deltaHdrSize))
			err = dev.ReadAt(head, l.off)
			if bm := hdr.size - deltaHdrSize; err == nil && bm > 0 {
				head = append(head, make([]byte, min(bm, int64(bitmapLen(head))))...)
				err = dev.ReadAt(head[deltaHdrSize:], l.off+deltaHdrSize)
			}
			if err != nil {
				return err
			}
			prev, baseLen := link.base, int64(math.MaxInt64)
			if i > 0 {
				prev, baseLen = chain[i-1].counter, chain[i-1].logicalSize()
			}
			d, err := decodeDeltaHead(head)
			if err == nil && (d.base != prev || d.fullSize != link.fullSize || d.recLen != hdr.size) {
				err = fmt.Errorf("core: delta %d encodes base %d, %d logical and %d stored bytes; its chain and slot header say %d, %d and %d",
					link.counter, d.base, d.fullSize, d.recLen, prev, link.fullSize, hdr.size)
			}
			for j := 0; err == nil && j < d.nchunk; j++ {
				lo := int64(j) * int64(d.gran)
				if hi := min(lo+int64(d.gran), d.fullSize); !d.dirtyAt(j) && hi > baseLen {
					err = fmt.Errorf("core: delta leaves chunk %d (bytes %d–%d) undefined: base is only %d bytes", j, lo, hi, baseLen)
				}
			}
			if err != nil {
				return storage.Corrupt(err)
			}
			l.rec, l.off, l.head = d, l.off+int64(len(head)), crc32.ChecksumIEEE(head)
		}
		size = max(size, l.rec.fullSize)
	}
	if readers == 0 && dst != nil {
		readers = coresFor(size)
	}
	cut := laneCut(size, max(readers, 1), int64(deltaGranularity(sb.slotBytes)))
	n := int(cut.k)
	w.got = slices.Grow(w.got[:0], len(chain)*n)[:len(chain)*n]
	w.dev, w.dst, w.scratch, w.n = dev, dst, scratch, n
	if err := w.fan.run(cut, n, w); err != nil {
		return err
	}
	for i, l := range w.plan {
		crc := l.head
		for _, rd := range w.got[i*n : (i+1)*n] {
			crc = crc32Combine(crc, rd.crc, rd.n)
		}
		if err := l.hdr.checkPayload(crc); err != nil {
			return err
		}
	}
	return nil
}

// load streams chain into a fresh buffer and returns the tip's payload.
func load(dev storage.Device, sb superblock, chain []checkMeta) ([]byte, error) {
	dst := make([]byte, chain[len(chain)-1].logicalSize())
	if err := stream(dev, sb, chain, dst, nil, 0); err != nil {
		return nil, err
	}
	return dst, nil
}

// Recover reads the latest fully persisted checkpoint from a formatted
// device without constructing an engine — the restart path (§4.2): the
// persistent pointer identifies the checkpoint, the payload is loaded, and
// the caller hands it to the training job to resume.
//
// A tiered device (anything implementing TierReader, e.g. storage.Tiered)
// is recovered as RecoverTiered recovers its levels, so losing the fast tier
// falls back to whatever the drainer last acknowledged below it.
func Recover(dev storage.Device) (payload []byte, counter uint64, err error) {
	if tr, ok := dev.(TierReader); ok {
		return RecoverTiered(tr.Tiers()...)
	}
	return RecoverTiered(dev)
}

// RecoverVersion reads the checkpoint with the given counter while its whole
// chain is still resident and intact. The engine only *guarantees* the newest
// published checkpoint, but the N+1 slots usually retain several
// predecessors, which distributed restores exploit when a worker's local
// latest has advanced past the group's agreed checkpoint (§3.1).
// ErrNoCheckpoint means the version is no longer resident.
func RecoverVersion(dev storage.Device, counter uint64) ([]byte, error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, err
	}
	payload, _, err := loadVersion(dev, sb, counter)
	return payload, err
}

// loadVersion also reports the chain read, for a live reader's seqlock check.
func loadVersion(dev storage.Device, sb superblock, counter uint64) ([]byte, []checkMeta, error) {
	if counter == 0 {
		return nil, nil, ErrNoCheckpoint // resolve would read 0 as "the newest"
	}
	chain, _, err := resolve(dev, sb, counter, nil)
	if err != nil {
		return nil, nil, err
	}
	payload, err := load(dev, sb, chain)
	if err != nil {
		return nil, nil, ErrNoCheckpoint // e.g. an in-flight overwrite tore it
	}
	return payload, chain, nil
}
