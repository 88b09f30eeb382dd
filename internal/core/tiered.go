package core

import (
	"errors"
	"sort"

	"pccheck/internal/storage"
)

// The checkpoint core owns the on-device format, so it registers the shipper
// a storage.Tiered drains with, and the size probe ReopenSSD uses to validate
// a reopened file against its superblock: a recognised superblock pins the
// exact device size the geometry requires, and a truncated or grown file
// fails at open time with a classified Corrupt error instead of surfacing
// later as a range error mid-recovery.
func init() {
	storage.RegisterShipper(func() storage.Shipper {
		return &shipper{tiers: make(map[storage.Device]*tierImage)}
	})
	storage.RegisterSizeProbe(func(header []byte) (int64, bool) {
		sb, err := decodeSuperblock(header)
		if err != nil {
			return 0, false
		}
		need := headerSize + int64(sb.slots)*slotStride(sb.slotBytes)
		if sb.blackBoxBytes > 0 {
			need = blackBoxBase(sb) + sb.blackBoxBytes
		}
		return need, true
	})
}

// TierReader is the optional interface tiered devices implement so recovery
// can walk their levels. storage.Tiered satisfies it.
type TierReader interface {
	Tiers() []storage.Device
}

// RecoverTiered reads the newest recoverable checkpoint across a set of
// durability tiers, fastest-first — the restart path when tier 0 may be
// gone. Every level is resolved (records and slot headers only; unreachable
// or unformatted levels are skipped), and the payload is read from the level
// with the highest counter alone (on a tie, the faster tier), or the
// next-best if it fails verification. The cross-tier durability floor is
// therefore max over reachable tiers of each tier's drained watermark: as
// long as one tier the drainer acknowledged survives, its checkpoints do.
//
// A live level may recycle a slot under the resolve or the read, but only
// after a newer record is durable; so unchanged records mean the verdict is
// the level's (damage, not a race), and moved ones a second try.
func RecoverTiered(levels ...storage.Device) (payload []byte, counter uint64, err error) {
	type level struct {
		i     int // index in levels
		dev   storage.Device
		sb    superblock
		chain []checkMeta
		recs  [2 * recordSize]byte // as resolve read them
	}
	tip := func(l *level) uint64 { return l.chain[len(l.chain)-1].counter }
	// settle resolves l and, with read, streams it (the first read by the
	// ranking resolve), again while the records move or a slot is lost: ≤ 3×.
	settle := func(l *level, read bool) (payload []byte, err error) {
		for attempt := 1; ; attempt++ {
			if attempt > 1 || !read {
				if l.sb, err = readSuperblock(l.dev); err == nil {
					l.chain, _, err = resolve(l.dev, l.sb, 0, &l.recs)
				}
			}
			if err == nil && read {
				payload, err = load(l.dev, l.sb, l.chain)
			}
			if attempt == 3 || err == nil && !read {
				return payload, err
			}
			resolved := l.recs
			for loc, off := range recordOffs { // a failed read leaves the record as resolve saw it
				l.dev.ReadAt(l.recs[loc*recordSize:][:recordSize], off) //nolint:errcheck
			}
			if l.recs == resolved && !errors.Is(err, errSlotRecycled) {
				return payload, err
			}
		}
	}
	errs := make([]error, len(levels))
	var found []*level
	for i, dev := range levels {
		if dev == nil {
			continue
		}
		l := &level{i: i, dev: dev}
		if _, errs[i] = settle(l, false); errs[i] == nil {
			found = append(found, l)
		}
	}
	sort.SliceStable(found, func(a, b int) bool { return tip(found[a]) > tip(found[b]) })
	for _, l := range found {
		if payload, err = settle(l, true); err == nil {
			return payload, tip(l), nil
		}
		errs[l.i] = err
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err // the fastest level's reason
		}
	}
	return nil, 0, ErrNoCheckpoint
}
