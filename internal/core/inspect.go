package core

import (
	"errors"

	"pccheck/internal/storage"
)

// Inspection: a read-only, non-destructive dump of a checkpoint device's
// on-disk structures — superblock, both pointer records, every slot header,
// the recovery cursor — for operators debugging a device and for the
// pccheck-inspect command.

// RecordInfo describes one pointer record location.
type RecordInfo struct {
	// Valid reports whether the record decodes (magic + CRC + non-zero).
	Valid bool
	// Counter, Slot and Size are the record's contents when valid.
	Counter uint64
	Slot    int
	Size    int64
}

// SlotInfo describes one checkpoint slot.
type SlotInfo struct {
	// Index is the slot number.
	Index int
	// HeaderValid reports whether the slot header decodes.
	HeaderValid bool
	// Counter and Size are the header's contents when valid.
	Counter uint64
	Size    int64
	// Epoch is the format generation the header was written under;
	// EpochStale marks a header surviving from a previous format, whose
	// payload recovery will never serve.
	Epoch      uint64
	EpochStale bool
	// HasChecksum reports whether the payload carries a CRC.
	HasChecksum bool
	// PayloadOK is set only when verify was requested, a checksum exists
	// and the header is one recovery would accept (live epoch, no
	// tombstone): true = the payload matches its CRC.
	PayloadOK *bool
	// Published marks the slot the recovered pointer references.
	Published bool
	// Kind is the payload kind (0 = full, 1 = delta record); BaseCounter
	// and FullSize carry the delta header's chain predecessor and logical
	// size when Kind is delta.
	Kind        uint8
	BaseCounter uint64
	FullSize    int64
	// InChain marks slots holding a link of the recoverable delta chain.
	InChain bool
	// Quarantined marks a slot the scrubber tombstoned: the copy was
	// damaged with no healthy source to repair from, and recovery skips it.
	Quarantined bool
}

// ChainLink is one link of the recoverable keyframe→delta chain.
type ChainLink struct {
	Counter uint64
	Slot    int
	// Kind is slot payload kind; the first link is always a keyframe (0).
	Kind uint8
	// Size is the stored record length (keyframe payload or delta record).
	Size int64
}

// CursorInfo describes a persisted recovery-iterator cursor.
type CursorInfo struct {
	// Counter is the checkpoint the interrupted restore was reading.
	Counter uint64
	// Position is how many bytes it had delivered.
	Position int64
}

// Report is the full inspection result.
type Report struct {
	// Slots is the slot count (N+1); SlotBytes the per-slot capacity m.
	Slots     int
	SlotBytes int64
	// Epoch is the device's current format generation.
	Epoch uint64
	// Records holds both pointer record locations (A then B).
	Records [2]RecordInfo
	// Latest is the checkpoint recovery would return; Recoverable reports
	// whether one exists.
	Latest      RecordInfo
	Recoverable bool
	// DeltaKeyframe is K when the device is delta-formatted, 0 otherwise.
	DeltaKeyframe int
	// LatestFullSize is the logical size of the recoverable checkpoint
	// (equals Latest.Size except for a delta tip).
	LatestFullSize int64
	// Chain is the recoverable keyframe→delta chain, keyframe first; on a
	// delta device with a recoverable full tip it holds that single link.
	Chain []ChainLink
	// SlotInfos describes each slot.
	SlotInfos []SlotInfo
	// Cursor is a pending recovery cursor, if any.
	Cursor *CursorInfo
}

// Healthy reports whether the device is in a state recovery can serve
// confidently: either a checkpoint is recoverable with its payload (and,
// for a delta tip, every chain link) intact, or the device is legitimately
// empty — no pointer record claims a checkpoint. A valid record that
// recovery nonetheless rejects (stale epoch, counter mismatch, broken
// chain) and a published or chain slot whose verified payload fails its
// CRC both make the report unhealthy; torn payloads in unpublished slots
// are normal crash debris and do not.
func (r Report) Healthy() bool {
	if !r.Recoverable && (r.Records[0].Valid || r.Records[1].Valid) {
		return false
	}
	for _, s := range r.SlotInfos {
		if (s.Published || s.InChain) && s.PayloadOK != nil && !*s.PayloadOK {
			return false
		}
	}
	return true
}

// Inspect reads a formatted device's structures. With verify set, slot
// payloads carrying checksums are read fully and validated (expensive for
// large slots).
func Inspect(dev storage.Device, verify bool) (Report, error) {
	sb, chain, _, err := newest(dev)
	if err != nil && err != ErrNoCheckpoint {
		return Report{}, err
	}
	rep := Report{Slots: sb.slots, SlotBytes: sb.slotBytes, Epoch: sb.epoch, DeltaKeyframe: sb.deltaKeyframe}

	for i, off := range []int64{recordAOff, recordBOff} {
		buf := make([]byte, recordSize)
		if err := dev.ReadAt(buf, off); err != nil {
			return Report{}, err
		}
		if m, ok := decodeRecord(buf); ok {
			rep.Records[i] = RecordInfo{Valid: true, Counter: m.counter, Slot: m.slot, Size: m.size}
		}
	}

	chainSlots := make(map[int]bool)
	if err == nil {
		latest := chain[len(chain)-1]
		rep.Recoverable = true
		rep.Latest = RecordInfo{Valid: true, Counter: latest.counter, Slot: latest.slot, Size: latest.size}
		rep.LatestFullSize = latest.logicalSize()
		if sb.deltaKeyframe > 0 {
			for _, m := range chain {
				rep.Chain = append(rep.Chain, ChainLink{Counter: m.counter, Slot: m.slot, Kind: m.kind, Size: m.size})
				chainSlots[m.slot] = true
			}
		}
	}

	var scratch []byte // one piece verifies every slot
	if verify {
		scratch = make([]byte, streamPiece)
	}
	for i := 0; i < sb.slots; i++ {
		info := SlotInfo{Index: i}
		hdr, herr := slotHeld(dev, sb, i, 0, -1)
		if unreadable(herr) {
			return Report{}, herr
		}
		if !errors.Is(herr, errSlotTorn) {
			info.HeaderValid = true
			info.Counter = hdr.counter
			info.Size = hdr.size
			info.HasChecksum = hdr.hasCRC
			info.Epoch = hdr.epoch
			info.EpochStale = hdr.epoch != sb.epoch
			info.Kind = hdr.kind
			info.Quarantined = hdr.quarantined()
			if hdr.kind == slotKindDelta {
				info.BaseCounter = hdr.base
				info.FullSize = hdr.fullSize
			}
			if verify && hdr.hasCRC && herr == nil {
				// A read failure leaves the verdict open; anything else
				// stream rejects is a payload recovery would not serve.
				err := stream(dev, sb, []checkMeta{hdr.meta(i)}, nil, scratch, 0)
				if ok := err == nil; ok || storage.IsCorrupt(err) {
					info.PayloadOK = &ok
				}
			}
		}
		info.Published = rep.Recoverable && i == rep.Latest.Slot
		info.InChain = chainSlots[i]
		rep.SlotInfos = append(rep.SlotInfos, info)
	}

	cbuf := make([]byte, 24)
	if err := dev.ReadAt(cbuf, cursorOff); err == nil {
		if c, ok := decodeCursor(cbuf); ok && c.counter != 0 {
			rep.Cursor = &CursorInfo{Counter: c.counter, Position: c.position}
		}
	}
	return rep, nil
}
