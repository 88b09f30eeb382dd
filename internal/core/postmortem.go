package core

import (
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

// PostMortem decodes the black-box telemetry region of a formatted
// device: the crash-surviving record of what the process was doing —
// flight-ring tail (policy decisions included), goodput report — as of the
// last completed flush. Torn frames and frames from a previous format
// epoch are silently skipped, mirroring recovery's slot-epoch rule; the
// surviving frames are CRC-valid and strictly sequence-monotonic.
//
// Devices formatted without a region (pre-forensics images, or BlackBox
// disabled) return blackbox.ErrNoRegion. Like Recover, a tiered device
// (TierReader) is dispatched to PostMortemTiered so a replica can answer
// forensics for a rank whose tier 0 vanished.
func PostMortem(dev storage.Device) (*blackbox.PostMortem, error) {
	if tr, ok := dev.(TierReader); ok {
		return PostMortemTiered(tr.Tiers()...)
	}
	return postMortemDevice(dev)
}

func postMortemDevice(dev storage.Device) (*blackbox.PostMortem, error) {
	head := make([]byte, 64)
	if err := dev.ReadAt(head, superOff); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(head)
	if err != nil {
		return nil, err
	}
	if sb.blackBoxBytes == 0 {
		return nil, blackbox.ErrNoRegion
	}
	return blackbox.Decode(dev, blackBoxBase(sb), sb.blackBoxBytes, sb.epoch)
}

// PostMortemTiered decodes the black box across durability tiers,
// fastest-first, and returns the one holding the most recent telemetry
// (highest newest frame sequence). Unreachable or regionless tiers are
// skipped; when every tier lacks a region the first error (or
// blackbox.ErrNoRegion) is returned.
func PostMortemTiered(levels ...storage.Device) (*blackbox.PostMortem, error) {
	var (
		best     *blackbox.PostMortem
		firstErr error
	)
	for _, dev := range levels {
		if dev == nil {
			continue
		}
		pm, err := postMortemDevice(dev)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || pm.LastSeq() > best.LastSeq() {
			best = pm
		}
	}
	if best != nil {
		return best, nil
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return nil, blackbox.ErrNoRegion
}
