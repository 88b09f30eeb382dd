package core

import (
	"errors"
	"fmt"
	"hash/crc32"

	"pccheck/internal/storage"
)

// errSlotRecycled reports that a slot's header no longer matches the
// metadata the caller resolved. Under live concurrency this means a newer
// checkpoint recycled the slot mid-read (retry against fresh metadata);
// during crash recovery it means the record and slot disagree.
var errSlotRecycled = errors.New("core: slot recycled during read")

// readSuperblock reads and validates the device's superblock.
func readSuperblock(dev storage.Device) (superblock, error) {
	head := make([]byte, 64)
	if err := dev.ReadAt(head, superOff); err != nil {
		return superblock{}, err
	}
	return decodeSuperblock(head)
}

// recoverPointer reads both pointer records and returns the newest valid,
// fully persisted checkpoint, plus which record location held it (0 = A,
// 1 = B) so the engine resumes alternating correctly. A record is accepted
// only if its slot header agrees (same counter and size) — defense in depth
// against device corruption beyond what the write protocol can cause.
func recoverPointer(dev storage.Device, sb superblock) (*checkMeta, int, error) {
	type candidate struct {
		meta checkMeta
		loc  int
	}
	var candidates []candidate
	for loc, off := range []int64{recordAOff, recordBOff} {
		buf := make([]byte, recordSize)
		if err := dev.ReadAt(buf, off); err != nil {
			return nil, 0, err
		}
		if m, ok := decodeRecord(buf); ok {
			candidates = append(candidates, candidate{m, loc})
		}
	}
	if len(candidates) == 2 && candidates[1].meta.counter > candidates[0].meta.counter {
		candidates[0], candidates[1] = candidates[1], candidates[0]
	}
	// Prefer the highest counter; fall back to the other record if the
	// winner fails slot validation — including, for a delta tip, validation
	// of its whole keyframe→delta chain. A record is only durable after
	// every link of its chain is (headers persist before the record, and
	// chain slots are never recycled while a durable record references
	// them), so a broken chain means this record is the torn/stale one and
	// the other record identifies the newest *complete* chain.
	for _, cand := range candidates {
		hdr, err := validateSlot(dev, sb, cand.meta)
		if err != nil {
			continue
		}
		m := cand.meta
		m.kind, m.base, m.fullSize = hdr.kind, hdr.base, hdr.fullSize
		if m.kind == slotKindDelta {
			if _, err := chainMetas(dev, sb, m); err != nil {
				continue
			}
		}
		return &m, cand.loc, nil
	}
	return nil, 0, ErrNoCheckpoint
}

// validateSlot checks that the slot a pointer record references really holds
// the checkpoint the record describes, and returns the slot header so
// callers can pick up the delta fields the record itself does not carry.
func validateSlot(dev storage.Device, sb superblock, meta checkMeta) (slotHeader, error) {
	if meta.slot < 0 || meta.slot >= sb.slots {
		return slotHeader{}, fmt.Errorf("core: record references slot %d of %d", meta.slot, sb.slots)
	}
	if meta.size < 0 || meta.size > sb.slotBytes {
		return slotHeader{}, fmt.Errorf("core: record size %d outside slot capacity %d", meta.size, sb.slotBytes)
	}
	buf := make([]byte, slotHeaderSize)
	if err := dev.ReadAt(buf, slotBase(sb, meta.slot)); err != nil {
		return slotHeader{}, err
	}
	hdr, ok := decodeSlotHeader(buf)
	if !ok {
		return slotHeader{}, fmt.Errorf("core: slot %d header corrupt", meta.slot)
	}
	if hdr.quarantined() {
		// A scrubber tombstone: the copy is known-bad with no healthy source.
		// Rejecting it here makes recoverPointer fall back to the other
		// record without ever touching the payload.
		return slotHeader{}, fmt.Errorf("core: slot %d is quarantined", meta.slot)
	}
	if hdr.epoch != sb.epoch {
		return slotHeader{}, fmt.Errorf("core: slot %d header from format epoch %d, device is epoch %d",
			meta.slot, hdr.epoch, sb.epoch)
	}
	if hdr.counter != meta.counter || hdr.size != meta.size {
		return slotHeader{}, fmt.Errorf("core: slot %d holds counter %d/size %d, record says %d/%d",
			meta.slot, hdr.counter, hdr.size, meta.counter, meta.size)
	}
	if hdr.kind > slotKindDelta {
		return slotHeader{}, fmt.Errorf("core: slot %d has unknown payload kind %d", meta.slot, hdr.kind)
	}
	return hdr, nil
}

// findChainHeader resolves a checkpoint's counter (a chain predecessor, a
// requested version) to the slot currently holding it: the header must
// decode, carry the live epoch (one from a previous format generation
// describes a dead image), a plausible size and no tombstone, and match the
// counter exactly. No such slot is ErrNoCheckpoint.
func findChainHeader(dev storage.Device, sb superblock, counter uint64) (slotHeader, int, error) {
	buf := make([]byte, slotHeaderSize)
	for slot := 0; slot < sb.slots; slot++ {
		if err := dev.ReadAt(buf, slotBase(sb, slot)); err != nil {
			return slotHeader{}, 0, err
		}
		hdr, ok := decodeSlotHeader(buf)
		if !ok || hdr.counter != counter || hdr.epoch != sb.epoch || hdr.quarantined() {
			continue
		}
		if hdr.size < 0 || hdr.size > sb.slotBytes || hdr.kind > slotKindDelta {
			continue
		}
		return hdr, slot, nil
	}
	return slotHeader{}, 0, fmt.Errorf("%w: no slot holds checkpoint %d", ErrNoCheckpoint, counter)
}

// chainMetas walks a delta tip back to its keyframe and returns the chain
// in application order (keyframe first, tip last). The walk enforces
// strictly decreasing counters and a depth bound of the slot count, so a
// corrupted base pointer cannot loop.
func chainMetas(dev storage.Device, sb superblock, tip checkMeta) ([]checkMeta, error) {
	chain := []checkMeta{tip}
	cur := tip
	for cur.kind == slotKindDelta {
		if len(chain) > sb.slots {
			return nil, fmt.Errorf("core: delta chain at counter %d exceeds %d slots", tip.counter, sb.slots)
		}
		if cur.base == 0 || cur.base >= cur.counter {
			return nil, fmt.Errorf("core: delta %d has implausible base %d", cur.counter, cur.base)
		}
		hdr, slot, err := findChainHeader(dev, sb, cur.base)
		if err != nil {
			return nil, err
		}
		cur = checkMeta{slot: slot, counter: hdr.counter, size: hdr.size, kind: hdr.kind, base: hdr.base, fullSize: hdr.fullSize}
		chain = append(chain, cur)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// reconstructPayload reads a keyframe→delta chain off the device and
// applies it in place, returning the tip's logical payload. The keyframe is
// read once into dst — reallocated when len(dst) (never its spare capacity)
// cannot hold the chain's largest link — and every link's dirty chunks are
// read straight into it: a chain of any length costs one payload buffer.
func reconstructPayload(dev storage.Device, sb superblock, chain []checkMeta, dst []byte) ([]byte, error) {
	if len(chain) == 0 || chain[0].kind != slotKindFull {
		return nil, fmt.Errorf("core: delta chain does not start at a keyframe")
	}
	cur := chain[0].size
	need := cur
	for _, m := range chain[1:] {
		need = max(need, m.fullSize)
	}
	if dst == nil || int64(len(dst)) < need {
		dst = make([]byte, need)
	}
	if err := readSlotPayload(dev, sb, chain[0], dst[:cur]); err != nil {
		return nil, err
	}
	for i, link := range chain[1:] {
		if err := applyLink(dev, sb, link, chain[i].counter, dst, cur); err != nil {
			return nil, err
		}
		cur = link.fullSize
	}
	return dst[:cur], nil
}

// applyLink turns out[:baseLen], the payload of checkpoint prev, into delta
// link's (out holds link.fullSize bytes) without a record-sized buffer: header
// and bitmap come off the device through a few bytes, every run of adjacent
// dirty chunks with one ReadAt into the bytes of out it replaces, and the
// slot CRC is folded over the pieces in record order. A clean (absent) chunk
// that extends past the base payload means the chain is inconsistent — the
// encoder's boundary rule always marks grown tails dirty — so stale bytes a
// shrink left behind are never served.
func applyLink(dev storage.Device, sb superblock, link checkMeta, prev uint64, out []byte, baseLen int64) error {
	hdr, err := liveSlotHeader(dev, sb, link)
	if err != nil {
		return err
	}
	base := payloadBase(sb, link.slot)
	head := make([]byte, min(link.size, deltaHdrSize))
	if err := dev.ReadAt(head, base); err != nil {
		return err
	}
	if bm := link.size - deltaHdrSize; bm > 0 {
		head = append(head, make([]byte, min(bm, int64(bitmapLen(head))))...)
		if err := dev.ReadAt(head[deltaHdrSize:], base+deltaHdrSize); err != nil {
			return err
		}
	}
	d, err := decodeDeltaHead(head)
	if err == nil && (d.base != prev || d.fullSize != link.fullSize || d.recLen != link.size) {
		err = fmt.Errorf("core: delta %d encodes base %d, %d logical and %d stored bytes; its chain and slot header say %d, %d and %d",
			link.counter, d.base, d.fullSize, d.recLen, prev, link.fullSize, link.size)
	}
	crc, pos := crc32.ChecksumIEEE(head), base+int64(len(head))
	for i := 0; err == nil && i < d.nchunk; i++ {
		lo := int64(i) * int64(d.gran)
		if !d.dirtyAt(i) {
			if hi := min(lo+int64(d.gran), d.fullSize); hi > baseLen {
				err = fmt.Errorf("core: delta leaves chunk %d (bytes %d–%d) undefined: base is only %d bytes", i, lo, hi, baseLen)
			}
			continue
		}
		for i+1 < d.nchunk && d.dirtyAt(i+1) {
			i++
		}
		run := out[lo:min(int64(i+1)*int64(d.gran), d.fullSize)]
		if err := dev.ReadAt(run, pos); err != nil {
			return err
		}
		crc, pos = crc32.Update(crc, crc32.IEEETable, run), pos+int64(len(run))
	}
	if err == nil && hdr.hasCRC && crc != hdr.payloadCRC {
		err = fmt.Errorf("core: checkpoint %d payload checksum mismatch", link.counter)
	}
	if err != nil {
		return storage.Corrupt(err)
	}
	return nil
}

// liveSlotHeader reads the header of meta's slot and checks that the slot
// still holds that checkpoint, un-quarantined.
func liveSlotHeader(dev storage.Device, sb superblock, meta checkMeta) (slotHeader, error) {
	buf := make([]byte, slotHeaderSize)
	if err := dev.ReadAt(buf, slotBase(sb, meta.slot)); err != nil {
		return slotHeader{}, err
	}
	hdr, ok := decodeSlotHeader(buf)
	if !ok || hdr.counter != meta.counter || hdr.epoch != sb.epoch {
		return slotHeader{}, fmt.Errorf("%w: slot %d no longer holds checkpoint %d", errSlotRecycled, meta.slot, meta.counter)
	}
	if hdr.quarantined() {
		// Tombstoned under a live reader: the data is known-bad and must not
		// be served. Classified corrupt, not recycled — a retry reads the
		// same tombstone.
		return slotHeader{}, storage.Corrupt(fmt.Errorf("core: checkpoint %d in slot %d is quarantined", meta.counter, meta.slot))
	}
	return hdr, nil
}

// readSlotPayload copies a checkpoint payload out of its slot, verifying the
// payload CRC when the checkpoint was written with verification enabled.
func readSlotPayload(dev storage.Device, sb superblock, meta checkMeta, dst []byte) error {
	hdr, err := liveSlotHeader(dev, sb, meta)
	if err != nil {
		return err
	}
	if err := dev.ReadAt(dst, payloadBase(sb, meta.slot)); err != nil {
		return err
	}
	if hdr.hasCRC && crc32.ChecksumIEEE(dst) != hdr.payloadCRC {
		// Classified corrupt (not transient): re-reading the same bytes
		// will not heal a bad payload, and callers must know the data
		// cannot be trusted.
		return storage.Corrupt(fmt.Errorf("core: checkpoint %d payload checksum mismatch", meta.counter))
	}
	return nil
}

// Recover reads the latest fully persisted checkpoint from a formatted
// device without constructing an engine — the restart path (§4.2): the
// persistent pointer identifies the checkpoint, the payload is loaded, and
// the caller hands it to the training job to resume.
//
// A tiered device (anything implementing TierReader, e.g. storage.Tiered)
// is walked newest-reachable-first: every level is probed and the highest
// recoverable counter wins, so losing the fast tier falls back to whatever
// the drainer last acknowledged below it.
func Recover(dev storage.Device) (payload []byte, counter uint64, err error) {
	if tr, ok := dev.(TierReader); ok {
		return RecoverTiered(tr.Tiers()...)
	}
	return recoverDevice(dev)
}

// recoverDevice is single-level Recover.
func recoverDevice(dev storage.Device) (payload []byte, counter uint64, err error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, 0, err
	}
	meta, _, err := recoverPointer(dev, sb)
	if err != nil {
		return nil, 0, err
	}
	// A full checkpoint is a chain of one.
	chain, err := chainMetas(dev, sb, *meta)
	if err != nil {
		return nil, 0, err
	}
	if payload, err = reconstructPayload(dev, sb, chain, nil); err != nil {
		return nil, 0, err
	}
	return payload, meta.counter, nil
}

// RecoverVersion reads the checkpoint with the given counter if a slot still
// holds it intact. The engine only *guarantees* the newest published
// checkpoint, but the N+1 slots usually retain several predecessors, which
// distributed restores exploit when a worker's local latest has advanced
// past the group's agreed checkpoint (§3.1). ErrNoCheckpoint means the
// version is no longer resident.
func RecoverVersion(dev storage.Device, counter uint64) ([]byte, error) {
	sb, err := readSuperblock(dev)
	if err != nil {
		return nil, err
	}
	if sb.deltaKeyframe > 0 {
		return recoverVersionDelta(dev, sb, counter)
	}
	payload, _, err := recoverVersionSlot(dev, sb, counter)
	return payload, err
}

// recoverVersionDelta serves a by-counter read on a delta-formatted device:
// the version is resident only while its whole chain still is.
func recoverVersionDelta(dev storage.Device, sb superblock, counter uint64) ([]byte, error) {
	hdr, slot, err := findChainHeader(dev, sb, counter)
	if err != nil {
		return nil, ErrNoCheckpoint
	}
	tip := checkMeta{slot: slot, counter: hdr.counter, size: hdr.size, kind: hdr.kind, base: hdr.base, fullSize: hdr.fullSize}
	chain, err := chainMetas(dev, sb, tip)
	if err != nil {
		return nil, ErrNoCheckpoint // a link was recycled; the version is gone
	}
	return reconstructPayload(dev, sb, chain, nil)
}

// recoverVersionSlot also reports which slot held the version, so live
// readers can validate it against the slot seqlock.
func recoverVersionSlot(dev storage.Device, sb superblock, counter uint64) ([]byte, int, error) {
	hdr, slot, err := findChainHeader(dev, sb, counter)
	if errors.Is(err, ErrNoCheckpoint) {
		return nil, 0, ErrNoCheckpoint // bare, as callers comparing with == expect
	} else if err != nil {
		return nil, 0, err
	}
	payload := make([]byte, hdr.size)
	if err := readSlotPayload(dev, sb, checkMeta{slot: slot, counter: counter, size: hdr.size}, payload); err != nil {
		return nil, 0, ErrNoCheckpoint // e.g. an in-flight overwrite tore it
	}
	return payload, slot, nil
}
