// ScrubSweep: the latent-fault counterpart of ExploreCrashes. Where the
// crash explorer proves the write protocol survives power loss at any
// instant, this harness proves the scrubber survives the other failure
// mode — bytes that went durable and then rotted.
//
// Each case builds a tiered engine over fault-injecting devices, commits a
// few self-verifying checkpoints, lets the drainer converge, then injects
// one seeded latent fault into a committed structure: a pointer record, the
// front copy of a published slot or chain link, a lower tier's copy, or —
// the unrepairable scenario — every copy of the newest checkpoint at once.
// Faults come in three flavors (bit flip, sector zeroing, unreadable
// sectors) crossed with full and delta/keyframe formats and 2- or 3-deep
// tier stacks.
//
// One scrub sweep must then detect every injected fault and heal it: repair
// from the newest healthy tier, schedule a resync, or quarantine when no
// healthy copy exists. The harness asserts detection, asserts nothing was
// left unrepaired, asserts a second sweep finds the device clean, and —
// the property everything else exists for — asserts that no read path ever
// returns corrupt bytes: ReadLatest and a post-shutdown RecoverTiered must
// produce a payload that validates against its embedded seed, or a
// classified error, never garbage.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pccheck/internal/storage"
)

// ScrubSweepOptions configures a sweep.
type ScrubSweepOptions struct {
	// Seed makes the sweep reproducible.
	Seed int64
	// Cases is how many injection cases to run (one engine and at least
	// one injected fault each). Default 60 — one full pass over the
	// scenario × mode × format × depth matrix.
	Cases int
	// Log, when non-nil, receives per-case progress lines.
	Log func(format string, args ...any)
}

// ScrubSweepResult aggregates a sweep.
type ScrubSweepResult struct {
	// Cases is how many cases ran; Injected how many faults they planted.
	Cases    int
	Injected int
	// Detected / Repaired / Quarantined / Resynced total the scrubber's
	// findings across all cases.
	Detected    int
	Repaired    int
	Quarantined int
	Resynced    int
	// Violations lists every broken invariant, one line each.
	Violations []string
}

// Ok reports whether every case held every invariant.
func (r ScrubSweepResult) Ok() bool { return len(r.Violations) == 0 }

// Injection scenarios. The case index walks the full matrix so even short
// sweeps cover every combination.
const (
	scrubScenRecord    = iota // damage one pointer-record location
	scrubScenFrontSlot        // damage the front copy of a committed slot
	scrubScenTierSlot         // damage a lower tier's copy
	scrubScenDouble           // damage a record AND a front slot
	scrubScenTombstone        // damage every copy of the newest checkpoint
	scrubScenCount
)

func scrubScenName(s int) string {
	switch s {
	case scrubScenRecord:
		return "record"
	case scrubScenFrontSlot:
		return "front-slot"
	case scrubScenTierSlot:
		return "tier-slot"
	case scrubScenDouble:
		return "record+slot"
	case scrubScenTombstone:
		return "tombstone"
	default:
		return fmt.Sprintf("scen-%d", s)
	}
}

// ScrubSweep runs the latent-fault matrix and reports every violated
// invariant. A non-nil error means a case could not even be set up.
func ScrubSweep(opts ScrubSweepOptions) (ScrubSweepResult, error) {
	if opts.Cases <= 0 {
		opts.Cases = 60
	}
	res := ScrubSweepResult{Cases: opts.Cases}
	for ci := 0; ci < opts.Cases; ci++ {
		if err := runScrubCase(opts, ci, &res); err != nil {
			return res, fmt.Errorf("scrub sweep case %d: %w", ci, err)
		}
	}
	return res, nil
}

// scrubCaseShape is the deterministic part of one case, derived from the
// case index so the matrix is covered in order.
type scrubCaseShape struct {
	scen   int
	mode   int // 0 bit-flip, 1 sector-zero, 2 poison
	delta  bool
	nTiers int
}

func scrubShape(ci int) scrubCaseShape {
	return scrubCaseShape{
		scen:   ci % scrubScenCount,
		mode:   (ci / scrubScenCount) % 3,
		delta:  (ci/(scrubScenCount*3))%2 == 1,
		nTiers: 2 + (ci/(scrubScenCount*3*2))%2,
	}
}

func (sh scrubCaseShape) String() string {
	mode := [...]string{"bitflip", "sectorzero", "poison"}[sh.mode]
	format := "full"
	if sh.delta {
		format = "delta"
	}
	return fmt.Sprintf("%s/%s/%s/%d-tier", scrubScenName(sh.scen), mode, format, sh.nTiers)
}

func runScrubCase(opts ScrubSweepOptions, ci int, res *ScrubSweepResult) (err error) {
	sh := scrubShape(ci)
	violate := func(format string, args ...any) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("case %d (%s): %s", ci, sh, fmt.Sprintf(format, args...)))
	}
	defer func() {
		if p := recover(); p != nil {
			violate("panic: %v", p)
			err = nil
		}
	}()
	rng := rand.New(rand.NewSource(opts.Seed*1_000_003 + int64(ci)))

	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	if sh.delta {
		cfg.DeltaEvery = 1
		cfg.DeltaKeyframe = 3
	}
	need := DeviceBytesFor(cfg)
	fds := make([]*storage.FaultDevice, sh.nTiers)
	levels := make([]storage.Device, sh.nTiers)
	for i := range levels {
		fds[i] = storage.NewFaultDevice(storage.NewRAM(need))
		levels[i] = fds[i]
	}
	td, err := storage.NewTiered(levels)
	if err != nil {
		return err
	}
	defer td.Close()
	c, err := New(td, cfg)
	if err != nil {
		return err
	}
	defer c.Close()

	// Commit a handful of self-verifying checkpoints and let every tier
	// converge, so each has a copy the scrubber can repair from.
	saves := 4 + rng.Intn(3)
	n := 1536 + rng.Intn(2048)
	seed := uint64(rng.Int63n(1 << 40))
	var last, prev uint64
	ctx := context.Background()
	for k := 0; k < saves; k++ {
		var p []byte
		if sh.delta {
			p = sparsePayload(seed, uint64(k), n)
		} else {
			p = crashPayload(seed+uint64(k), n)
		}
		ctr, err := c.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			return fmt.Errorf("save %d: %w", k, err)
		}
		prev, last = last, ctr
	}
	if !td.WaitDrained(10 * time.Second) {
		violate("tiers did not converge before injection")
		return nil
	}

	injected := sweepInject(c, td, fds, sh, rng, res)
	if injected == 0 {
		violate("no fault was injected")
		return nil
	}
	res.Injected += injected

	before := c.ScrubStatus()
	found, healed, err := c.ScrubNow()
	if err != nil {
		violate("ScrubNow: %v", err)
		return nil
	}
	after := c.ScrubStatus()
	res.Detected += found
	res.Repaired += int(after.Repairs - before.Repairs)
	res.Quarantined += int(after.Quarantines - before.Quarantines)
	res.Resynced += int(after.TierResyncs - before.TierResyncs)

	if found == 0 {
		violate("injected fault was not detected")
		return nil
	}
	if after.Unrepaired != before.Unrepaired {
		violate("%d finding(s) left unrepaired", after.Unrepaired-before.Unrepaired)
	}
	if healed != found {
		violate("found %d but healed only %d", found, healed)
	}
	if sh.scen == scrubScenTombstone && after.Quarantines == before.Quarantines {
		violate("tombstone scenario produced no quarantine")
	}

	// Let scheduled resyncs land, then a second sweep must find the device
	// clean — healing converges instead of re-reporting.
	if !td.WaitDrained(10 * time.Second) {
		violate("tiers did not converge after repair")
	}
	if found2, _, err := c.ScrubNow(); err != nil {
		violate("second ScrubNow: %v", err)
	} else if found2 != 0 {
		violate("second sweep still found %d finding(s)", found2)
	}

	// The core guarantee: no read path returns corrupt bytes. After a
	// repair the newest checkpoint must read back intact; after a
	// quarantine the read must fail classified (and recovery below must
	// fall back), never hand over garbage.
	buf := make([]byte, n)
	rctr, rn, rerr := c.ReadLatest(buf)
	switch sh.scen {
	case scrubScenTombstone:
		if rerr == nil {
			if cerr := checkAnyCrashPayload(buf[:rn]); cerr != nil {
				violate("ReadLatest served corrupt bytes after quarantine: %v", cerr)
			}
		}
	default:
		if rerr != nil {
			violate("ReadLatest after repair: %v", rerr)
		} else {
			if rctr != last {
				violate("ReadLatest counter = %d, want %d", rctr, last)
			}
			if cerr := checkAnyCrashPayload(buf[:rn]); cerr != nil {
				violate("ReadLatest served corrupt bytes after repair: %v", cerr)
			}
		}
	}

	// Post-shutdown recovery: shut the engine and the tier stack down and
	// recover from the raw devices, the way a restarted job would.
	if err := c.Close(); err != nil {
		violate("Close: %v", err)
	}
	if err := td.Close(); err != nil {
		violate("tiered Close: %v", err)
	}
	payload, ctr, rerr := RecoverTiered(levels...)
	if sh.scen == scrubScenTombstone {
		if rerr != nil {
			violate("RecoverTiered after quarantine: %v (floor lost)", rerr)
		} else {
			if ctr != prev {
				violate("RecoverTiered counter = %d after quarantine, want fallback %d", ctr, prev)
			}
			if cerr := checkAnyCrashPayload(payload); cerr != nil {
				violate("RecoverTiered served corrupt bytes after quarantine: %v", cerr)
			}
		}
	} else {
		if rerr != nil {
			violate("RecoverTiered after repair: %v", rerr)
		} else {
			if ctr != last {
				violate("RecoverTiered counter = %d, want %d", ctr, last)
			}
			if cerr := checkAnyCrashPayload(payload); cerr != nil {
				violate("RecoverTiered served corrupt bytes after repair: %v", cerr)
			}
		}
	}
	if opts.Log != nil {
		opts.Log("case %d (%s): injected %d, found %d, healed %d", ci, sh, injected, found, healed)
	}
	return nil
}

// sweepTarget picks the committed slot to damage: the published slot in
// full mode, a random chain link in delta mode (the newest link when tip
// is set, so the tombstone scenario quarantines the tip and recovery can
// still fall back to the previous record).
func sweepTarget(c *Checkpointer, delta, tip bool, rng *rand.Rand) checkMeta {
	if delta {
		c.deltaMu.Lock()
		chain := append([]checkMeta(nil), c.chain...)
		c.deltaMu.Unlock()
		if tip {
			return chain[len(chain)-1]
		}
		return chain[rng.Intn(len(chain))]
	}
	return *c.checkAddr.Load()
}

// damageSlot injects one fault into dev's copy of slot m. Sector-zero
// always lands fully inside the payload (collateral damage to a neighbor
// slot would make the case non-deterministic); bit flips and poison pick
// the header or the payload.
func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

func damageSlot(fd *storage.FaultDevice, sb superblock, m checkMeta, mode int, rng *rand.Rand) {
	hdrOff := slotBase(sb, m.slot)
	payOff := payloadBase(sb, m.slot)
	switch mode {
	case 1: // sector-zero, payload interior
		lo := ((payOff + storage.CrashSectorSize - 1) / storage.CrashSectorSize) * storage.CrashSectorSize
		sector := make([]byte, storage.CrashSectorSize)
		if lo+storage.CrashSectorSize <= payOff+m.size && fd.ReadAt(sector, lo) == nil && !allZero(sector) {
			fd.CorruptAt(lo, 1, storage.CorruptSectorZero) //nolint:errcheck
			return
		}
		// The covering sector lies past the stored payload (a short delta
		// record) or holds only zero bytes — zeroing it would damage
		// nothing the CRC covers. Flip the header instead so the case
		// still injects real, detectable damage.
		fd.CorruptAt(hdrOff, 8, storage.CorruptBitFlip) //nolint:errcheck
	case 2: // poison
		if rng.Intn(2) == 0 {
			fd.PoisonRead(hdrOff, slotHeaderSize)
		} else {
			fd.PoisonRead(payOff, m.size)
		}
	default: // bit-flip
		if rng.Intn(2) == 0 || m.size <= 8 {
			fd.CorruptAt(hdrOff, 8, storage.CorruptBitFlip) //nolint:errcheck
		} else {
			off := rng.Int63n(m.size - 8)
			fd.CorruptAt(payOff+off, 8, storage.CorruptBitFlip) //nolint:errcheck
		}
	}
}

// damageRecord injects one fault into a pointer-record location on the
// front device. Sector-zero takes the whole first sector with it —
// superblock, both records and the head of slot 0 — which is exactly the
// blast radius a real zeroing fault on sector 0 has.
func damageRecord(fd *storage.FaultDevice, mode int, rng *rand.Rand) {
	off := int64(recordAOff)
	if rng.Intn(2) == 1 {
		off = recordBOff
	}
	switch mode {
	case 1:
		fd.CorruptAt(off, recordSize, storage.CorruptSectorZero) //nolint:errcheck
	case 2:
		fd.PoisonRead(off, recordSize)
	default:
		fd.CorruptAt(off, 8, storage.CorruptBitFlip) //nolint:errcheck
	}
}

// onTier is checkpoint m as fd's image holds it, or m where it holds none.
func onTier(fd *storage.FaultDevice, sb superblock, m checkMeta) checkMeta {
	if at, ok := heldAt(fd, sb, m.counter); ok {
		return at
	}
	return m
}

// sweepInject plants the case's faults and returns how many it planted.
func sweepInject(c *Checkpointer, td *storage.Tiered, fds []*storage.FaultDevice, sh scrubCaseShape, rng *rand.Rand, res *ScrubSweepResult) int {
	front := fds[td.Active()]
	switch sh.scen {
	case scrubScenRecord:
		damageRecord(front, sh.mode, rng)
		return 1
	case scrubScenFrontSlot:
		damageSlot(front, c.sb, sweepTarget(c, sh.delta, false, rng), sh.mode, rng)
		return 1
	case scrubScenTierSlot:
		tier := 1 + rng.Intn(len(fds)-1)
		damageSlot(fds[tier], c.sb, onTier(fds[tier], c.sb, sweepTarget(c, sh.delta, false, rng)), sh.mode, rng)
		return 1
	case scrubScenDouble:
		damageRecord(front, sh.mode, rng)
		damageSlot(front, c.sb, sweepTarget(c, sh.delta, false, rng), sh.mode, rng)
		return 2
	case scrubScenTombstone:
		// Every copy of the newest checkpoint dies. Sector-zero is excluded
		// here: its blast radius would take neighbor slots on every tier
		// with it, including the fallback the floor assertion relies on.
		mode := sh.mode
		if mode == 1 {
			mode = 0
		}
		tip := sweepTarget(c, sh.delta, true, rng)
		for _, fd := range fds {
			m := onTier(fd, c.sb, tip)
			if mode == 2 {
				fd.PoisonRead(payloadBase(c.sb, m.slot), m.size)
			} else {
				off := rng.Int63n(m.size - 8)
				fd.CorruptAt(payloadBase(c.sb, m.slot)+off, 8, storage.CorruptBitFlip) //nolint:errcheck
			}
		}
		return len(fds)
	}
	return 0
}
