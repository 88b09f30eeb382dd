package core

import (
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
func RecoverTiered(levels ...storage.Device) (payload []byte, counter uint64, err error) {
	type level struct {
		i     int // index in levels
		dev   storage.Device
		sb    superblock
		chain []checkMeta
	}
	tip := func(l level) uint64 { return l.chain[len(l.chain)-1].counter }
	errs := make([]error, len(levels))
	var found []level
	for i, dev := range levels {
		if dev == nil {
			continue
		}
		l := level{i: i, dev: dev}
		if l.sb, l.chain, _, errs[i] = newest(dev); errs[i] == nil {
			found = append(found, l)
		}
	}
	sort.SliceStable(found, func(a, b int) bool { return tip(found[a]) > tip(found[b]) })
	for _, l := range found {
		if payload, err = load(l.dev, l.sb, l.chain); err == nil {
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
