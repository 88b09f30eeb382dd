package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pccheck/internal/storage"
)

// Recovery iterator (§4.2): "PCcheck loads the checkpoint that corresponds
// to CHECK_ADDR from persistent storage into GPU memory with the help of a
// persistent iterator, which logs data read locations."
//
// For multi-gigabyte checkpoints the restore itself takes long enough that a
// second failure during recovery is a real possibility (spot clusters
// preempt in bulk). The iterator reads the payload in chunks and durably
// logs its cursor in a reserved header cell, so a restarted recovery resumes
// where the previous one stopped instead of re-reading from byte zero.
//
// Cursor record layout at cursorOff (64 bytes reserved after record B):
//
//	counter  u64   the checkpoint being restored
//	position u64   bytes already delivered to the consumer
//	crc      u32   over the first 16 bytes
const cursorOff = 192

// RecoveryIterator streams one checkpoint's payload with durable progress.
type RecoveryIterator struct {
	dev       storage.Device
	sb        superblock
	meta      checkMeta
	size      int64      // logical payload length
	hdr       slotHeader // a full tip's header: Next serves the slot itself
	rd        pieces     // a full tip's reads; rd.crc covers the first pos bytes
	mem       []byte     // reconstructed payload when the tip is a delta chain
	pos       int64
	chunk     int
	logEveryN int64
	sinceLog  int64
}

// cursor is the persisted progress record.
type cursor struct {
	counter  uint64
	position int64
}

func encodeCursor(c cursor) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], c.counter)
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.position))
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[:16]))
	return buf
}

func decodeCursor(buf []byte) (cursor, bool) {
	if len(buf) < 24 {
		return cursor{}, false
	}
	if binary.LittleEndian.Uint32(buf[16:]) != crc32.ChecksumIEEE(buf[:16]) {
		return cursor{}, false
	}
	return cursor{
		counter:  binary.LittleEndian.Uint64(buf[0:]),
		position: int64(binary.LittleEndian.Uint64(buf[8:])),
	}, true
}

// NewRecoveryIterator opens an iterator over the latest persisted
// checkpoint on dev. chunkBytes sets the read granularity (default 1 MiB);
// the cursor persists every logEvery bytes delivered (default: every
// chunk). If a previous recovery of the same checkpoint left a cursor, the
// iterator resumes from it.
func NewRecoveryIterator(dev storage.Device, chunkBytes int, logEvery int64) (*RecoveryIterator, error) {
	sb, chain, _, err := newest(dev)
	if err != nil {
		return nil, err
	}
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	if logEvery <= 0 {
		logEvery = int64(chunkBytes)
	}
	meta := chain[len(chain)-1]
	it := &RecoveryIterator{
		dev:       dev,
		sb:        sb,
		meta:      meta,
		size:      meta.logicalSize(),
		rd:        pieces{dev: dev},
		chunk:     chunkBytes,
		logEveryN: logEvery,
	}
	if meta.kind == slotKindDelta {
		// A delta tip has no contiguous on-device payload: reconstruct the
		// chain once up front and serve chunks from memory. The cursor still
		// persists, so a re-crashed restore resumes its *delivery* position
		// (the re-read of the chain is device-sequential and cheap relative
		// to the consumer-side restore the cursor protects).
		if it.mem, err = load(dev, sb, chain); err != nil {
			return nil, err
		}
	} else if it.hdr, err = slotHeld(dev, sb, meta.slot, meta.counter, meta.size); err != nil {
		return nil, err
	}
	// Resume a matching cursor; ignore cursors for other checkpoints.
	buf := make([]byte, 24)
	if err := dev.ReadAt(buf, cursorOff); err == nil {
		if c, ok := decodeCursor(buf); ok && c.counter == meta.counter &&
			c.position >= 0 && c.position <= it.size {
			it.pos = c.position
		}
	}
	if it.mem == nil {
		// Bytes a previous restore delivered still count towards the slot CRC.
		if err := it.rd.read(nil, payloadBase(sb, meta.slot), it.pos); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// Counter returns the checkpoint being restored.
func (it *RecoveryIterator) Counter() uint64 { return it.meta.counter }

// Size returns the checkpoint's logical payload length (the reconstructed
// size when the latest checkpoint is a delta).
func (it *RecoveryIterator) Size() int64 { return it.size }

// Position returns the bytes delivered so far (including any resumed
// progress).
func (it *RecoveryIterator) Position() int64 { return it.pos }

// Done reports whether the payload is fully delivered.
func (it *RecoveryIterator) Done() bool { return it.pos >= it.size }

// Next delivers the next chunk into p and durably advances the cursor per
// the configured cadence. It returns the number of bytes delivered; n == 0
// with nil error means the payload is exhausted. The slot CRC is folded as
// chunks are delivered: a damaged payload surfaces as a corrupt-classified
// error from the Next that would have completed it, voiding what came before.
func (it *RecoveryIterator) Next(p []byte) (int, error) {
	if it.Done() {
		return 0, nil
	}
	n := it.chunk
	if n > len(p) {
		n = len(p)
	}
	if rem := it.size - it.pos; int64(n) > rem {
		n = int(rem)
	}
	if n == 0 {
		return 0, fmt.Errorf("core: zero-length destination buffer")
	}
	if it.mem != nil {
		copy(p[:n], it.mem[it.pos:])
	} else {
		crc := it.rd.crc
		err := it.rd.read(p[:n], payloadBase(it.sb, it.meta.slot)+it.pos, int64(n))
		if err == nil && it.pos+int64(n) == it.size {
			err = it.hdr.checkPayload(it.rd.crc)
		}
		if err != nil {
			it.rd.crc = crc // Next may be called again: these bytes must not fold twice
			return 0, err
		}
	}
	it.pos += int64(n)
	it.sinceLog += int64(n)
	if it.sinceLog >= it.logEveryN || it.Done() {
		if err := it.persistCursor(); err != nil {
			return 0, err
		}
		it.sinceLog = 0
	}
	return n, nil
}

// persistCursor durably records the read position.
func (it *RecoveryIterator) persistCursor() error {
	return it.dev.Persist(encodeCursor(cursor{counter: it.meta.counter, position: it.pos}), cursorOff)
}

// Reset rewinds the iterator (and its durable cursor) to the beginning —
// used when the consumer's partial restore state was itself lost.
func (it *RecoveryIterator) Reset() error {
	it.pos, it.sinceLog, it.rd.crc = 0, 0, 0
	return it.persistCursor()
}

// ClearCursor invalidates the durable cursor after a completed restore so a
// future recovery of a *newer* checkpoint starts clean. (A stale cursor for
// an older counter is ignored anyway; clearing keeps the header tidy.)
func (it *RecoveryIterator) ClearCursor() error {
	zero := make([]byte, 24)
	return it.dev.Persist(zero, cursorOff)
}
