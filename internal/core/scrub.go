// Background integrity scrubbing and cross-tier self-healing.
//
// The write protocol makes checkpoints durable; it does not keep them that
// way. Media retention errors, firmware bugs and misdirected writes damage
// already-synced bytes silently, and a checkpoint is read exactly once — at
// restart, when every other copy of the training state is gone. A latent
// fault discovered then is discovered too late.
//
// The scrubber closes that window. On a configurable cadence (or on demand
// via ScrubNow) it re-reads every committed structure and CRC-verifies it:
// both pointer records, the published slot (full mode) or the whole pinned
// keyframe→delta chain (delta mode, verified keyframe-first), the black-box
// region header, and — on a tiered device — each lower tier's self-contained
// image against that tier's durable watermark. Read faults are classified
// with the storage error taxonomy: transient faults are retried in place,
// while permanent faults and CRC mismatches mark the copy damaged.
//
// A damaged copy is repaired from the newest healthy source:
//
//   - a damaged pointer record is rewritten from the engine's published
//     metadata (whose slot header is always durable before publication);
//   - a damaged chain link is rewritten in place from a lower tier's copy
//     (chain slots are pinned and saves serialize on deltaMu, so an
//     in-place rewrite races nobody);
//   - a damaged published slot in concurrent mode is re-published: the
//     healthy payload is written to a fresh free slot and the pointer
//     record is forced to the new location — never in place, because the
//     damaged slot could be recycled by a concurrent save mid-rewrite;
//   - a damaged lower tier is scheduled for a resync: the drainer, the
//     tier's only writer, verifies what the tier holds, formats it if that
//     does not hold up, and ships the front's newest chain again.
//
// When no healthy source exists the slot is quarantined: its header is
// rewritten with the quarantine flag so recovery skips it and falls back to
// the other pointer record — corrupt bytes are never served, at worst the
// durable floor steps back one published checkpoint. Every detection,
// repair and quarantine is emitted as an obs event (landing in the black
// box), every repair also as a decision with its rejected alternatives, and
// each is appended to the scrubber's bounded audit log as a ScrubRecord.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

// ScrubConfig tunes the background integrity scrubber. The zero value
// disables the periodic goroutine; ScrubNow still sweeps on demand.
type ScrubConfig struct {
	// Interval is the background sweep cadence; 0 disables the goroutine.
	Interval time.Duration
	// ReadRetry is how many additional attempts a transiently failing read
	// gets before the copy counts as unreadable. Default 3.
	ReadRetry int
	// HistoryCap bounds the retained ScrubRecord audit tail. Default 256.
	HistoryCap int
}

func (s ScrubConfig) withDefaults() ScrubConfig {
	if s.ReadRetry <= 0 {
		s.ReadRetry = 3
	}
	if s.HistoryCap <= 0 {
		s.HistoryCap = 256
	}
	return s
}

// ScrubAction is what the scrubber did about one finding.
type ScrubAction uint8

const (
	// ScrubDetected: damage found; repair still pending (or impossible and
	// quarantine declined, e.g. a report-only offline scan).
	ScrubDetected ScrubAction = iota + 1
	// ScrubRepaired: the copy was rewritten from a healthy source.
	ScrubRepaired
	// ScrubQuarantined: no healthy source; the slot was tombstoned.
	ScrubQuarantined
	// ScrubResynced: a lower tier was scheduled for a full resync.
	ScrubResynced
)

func (a ScrubAction) String() string {
	switch a {
	case ScrubDetected:
		return "detected"
	case ScrubRepaired:
		return "repaired"
	case ScrubQuarantined:
		return "quarantined"
	case ScrubResynced:
		return "resynced"
	default:
		return fmt.Sprintf("ScrubAction(%d)", uint8(a))
	}
}

// ScrubRegion is which on-device structure a finding concerns.
type ScrubRegion uint8

const (
	// RegionSlot is a checkpoint slot (header or payload).
	RegionSlot ScrubRegion = iota + 1
	// RegionRecord is one of the two pointer-record locations.
	RegionRecord
	// RegionBlackBox is the telemetry region header.
	RegionBlackBox
	// RegionTier is a lower tier's whole image.
	RegionTier
	// RegionSuperblock is the device superblock.
	RegionSuperblock
)

func (r ScrubRegion) String() string {
	switch r {
	case RegionSlot:
		return "slot"
	case RegionRecord:
		return "record"
	case RegionBlackBox:
		return "blackbox"
	case RegionTier:
		return "tier"
	case RegionSuperblock:
		return "superblock"
	default:
		return fmt.Sprintf("ScrubRegion(%d)", uint8(r))
	}
}

// ScrubRecord is one finding in the scrubber's audit log: what was damaged,
// where, and what was done about it.
type ScrubRecord struct {
	// TS is when the finding was made, nanoseconds since the Unix epoch.
	TS int64
	// Counter is the checkpoint involved (0 when not slot-scoped).
	Counter uint64
	// Tier is the storage level (-1 for the front/active device).
	Tier int32
	// Slot is the slot index (-1 when not slot-scoped).
	Slot int32
	// Action is the outcome; Region the structure.
	Action ScrubAction
	Region ScrubRegion
}

func (r ScrubRecord) String() string {
	where := r.Region.String()
	if r.Slot >= 0 {
		where = fmt.Sprintf("%s %d", where, r.Slot)
	}
	if r.Tier >= 0 {
		where += fmt.Sprintf(" tier %d", r.Tier)
	}
	if r.Counter > 0 {
		where += fmt.Sprintf(" (checkpoint %d)", r.Counter)
	}
	return fmt.Sprintf("%s: %s", where, r.Action)
}

// ScrubStatus is a point-in-time snapshot of the scrubber's counters.
type ScrubStatus struct {
	// Sweeps is how many sweeps have completed; LastSweep when the most
	// recent one finished (zero before the first).
	Sweeps    uint64
	LastSweep time.Time
	// LastFindings is the damage count of the most recent sweep.
	LastFindings int
	// BytesVerified is the cumulative bytes re-read and checked.
	BytesVerified uint64
	// Corruptions / Repairs / Quarantines / TierResyncs are cumulative
	// findings by outcome. Unrepaired counts findings that could be
	// neither repaired nor quarantined (retried next sweep).
	Corruptions uint64
	Repairs     uint64
	Quarantines uint64
	TierResyncs uint64
	Unrepaired  uint64
	// Findings is the bounded audit tail, oldest first.
	Findings []ScrubRecord
}

// tieredScrub is what the scrubber needs from a tiered device: the levels,
// the active front, the durable watermark, and the repair lever. It is
// satisfied by *storage.Tiered; a plain device simply has no tier pass.
type tieredScrub interface {
	TierReader
	Active() int
	ScheduleResync(level int) bool
	Status() []storage.TierStatus
}

// scrubber runs integrity sweeps over one engine. All sweeps — background
// and on-demand — serialize on mu, which also guards the status snapshot.
type scrubber struct {
	c     *Checkpointer
	cfg   ScrubConfig
	front storage.Device // c.dev as the scrubber reads it: see reads

	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	st    ScrubStatus
	piece []byte // every sweep's verifications pass through it
	// Repairs rewrite a slot with copy.link (payload, sync, header: a crash
	// mid-repair leaves at worst the damage it started from); a sweep's life.
	copy copier
}

func newScrubber(c *Checkpointer, cfg ScrubConfig) *scrubber {
	s := &scrubber{c: c, cfg: cfg.withDefaults()}
	s.front = s.reads(c.dev)
	return s
}

// start launches the background loop when an interval is configured.
func (s *scrubber) start() {
	if s.cfg.Interval <= 0 {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop()
}

func (s *scrubber) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.sweep()
		}
	}
}

// stopWait stops the background loop and waits for an in-flight sweep.
func (s *scrubber) stopWait() {
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop = nil
}

// ScrubNow runs one synchronous integrity sweep and returns how many
// damaged copies it found and how many it healed (repairs, quarantines and
// scheduled resyncs all count as healed — the damage is contained).
func (c *Checkpointer) ScrubNow() (found, healed int, err error) {
	if c.closed.Load() {
		return 0, 0, ErrClosed
	}
	found, healed = c.scrub.sweep()
	return found, healed, nil
}

// ScrubStatus returns a snapshot of the scrubber's counters and its recent
// findings.
func (c *Checkpointer) ScrubStatus() ScrubStatus {
	s := c.scrub
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Findings = append([]ScrubRecord(nil), s.st.Findings...)
	return st
}

// sweep runs one full pass — pointer records, committed slots, black-box
// header, lower tiers — counting straight into the status, and returns how
// many damaged copies it added there and how many of them it healed.
func (s *scrubber) sweep() (found, healed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, st := s.c, &s.st
	start := c.obsNow()
	if s.piece == nil {
		s.piece = make([]byte, streamPiece)
	}
	before := *st
	s.scrubRecords()
	unrepaired := st.Unrepaired
	s.scrubCommitted()
	frontOK := st.Unrepaired == unrepaired
	s.scrubBlackBox()
	s.scrubTiers(frontOK)

	s.copy = copier{}
	st.Sweeps++
	st.LastSweep = time.Now()
	found = int(st.Corruptions - before.Corruptions)
	healed = int(st.Repairs + st.Quarantines + st.TierResyncs - before.Repairs - before.Quarantines - before.TierResyncs)
	st.LastFindings = found
	c.span(obs.PhaseScrub, start, 0, -1, int64(st.BytesVerified-before.BytesVerified), int64(found))
	if found > 0 && c.bbox != nil {
		// Eventful sweeps flush immediately: the finding and repair events
		// must survive a crash that follows the damage they describe.
		c.bbox.Flush() //nolint:errcheck // best-effort telemetry
	}
	return found, healed
}

// note appends a finding to the bounded audit tail and mirrors it as an
// obs event.
func (s *scrubber) note(rec ScrubRecord) {
	rec.TS = time.Now().UnixNano()
	s.st.Findings = append(s.st.Findings, rec)
	if over := len(s.st.Findings) - s.cfg.HistoryCap; over > 0 {
		s.st.Findings = append(s.st.Findings[:0], s.st.Findings[over:]...)
	}
	var phase obs.Phase
	switch rec.Action {
	case ScrubRepaired, ScrubResynced:
		phase = obs.PhaseScrubRepair
	case ScrubQuarantined:
		phase = obs.PhaseQuarantine
	default:
		phase = obs.PhaseScrubCorrupt
	}
	s.c.instant(phase, rec.Counter, int(rec.Slot), 0, int64(rec.Tier))
}

// provenance emits a repair decision: the action taken on the record's
// tier, and the alternatives unpriced, so a repair never scores regret.
func (s *scrubber) provenance(chosen obs.DecisionAction, rejected []obs.DecisionAction, rec ScrubRecord, dur time.Duration, out obs.DecisionOutcome) {
	if s.c.obsv == nil {
		return
	}
	var alts [obs.MaxRejected]obs.Choice
	n := 0
	for ; n < len(rejected) && n < len(alts); n++ {
		alts[n].Action = rejected[n]
	}
	obs.EmitDecision(s.c.obsv, obs.NewDecisionID(), obs.DecisionRepair, int64(rec.Counter), out,
		obs.Choice{Action: chosen, Arg: rec.Tier, Cost: int64(dur)}, alts[:n]...)
}

// heal accounts one finding from detection to outcome: the detection is
// noted, run repairs under a timer (nil: nothing can be done), and the result
// lands in the status counters, the audit tail and a repair decision. There
// action names the repair, over the alternatives it beat when it succeeds
// (counted as healed), left the ones still open when it fails. run may adjust
// the record its success is noted under: source tier, rewritten counter.
func (s *scrubber) heal(rec ScrubRecord, healed ScrubAction, action obs.DecisionAction, over, left []obs.DecisionAction, run func(rec *ScrubRecord) error) {
	s.st.Corruptions++
	rec.Action = ScrubDetected
	s.note(rec)
	if run == nil {
		s.st.Unrepaired++
		return
	}
	start := time.Now()
	switch err := run(&rec); {
	case errors.Is(err, errRepairSuperseded):
		// A newer checkpoint published while we repaired: the damaged slot
		// is no longer referenced and rejoins the pool through the normal
		// supersede path. Damage contained, nothing to note.
		s.st.Repairs++
		s.provenance(action, nil, rec, time.Since(start), obs.OutSuperseded)
	case err != nil:
		s.st.Unrepaired++
		s.provenance(action, left, rec, time.Since(start), obs.OutFailed)
	default:
		out := obs.OutRepaired
		switch healed {
		case ScrubQuarantined:
			s.st.Quarantines++
			out = obs.OutQuarantined
		case ScrubResynced:
			s.st.TierResyncs++
			out = obs.OutResynced
		default:
			s.st.Repairs++
		}
		rec.Action = healed
		s.note(rec)
		s.provenance(action, over, rec, time.Since(start), out)
	}
}

var ignore = []obs.DecisionAction{obs.ActIgnore}

// retryReads retries a device's transiently failing reads up to retry more
// times; permanent faults and corruption return immediately.
type retryReads struct {
	storage.Device
	retry int
}

func (d retryReads) ReadAt(p []byte, off int64) error {
	var err error
	for i := 0; i <= d.retry; i++ {
		if err = d.Device.ReadAt(p, off); err == nil || storage.Classify(err) != storage.ClassTransient {
			return err
		}
	}
	return err
}

// reads is dev as the scrubber reads it: through cfg.ReadRetry.
func (s *scrubber) reads(dev storage.Device) storage.Device {
	return retryReads{dev, s.cfg.ReadRetry}
}

// --- pointer records --------------------------------------------------------

// scrubRecords verifies both pointer-record locations under recordMu and
// rewrites damaged ones from the engine's published metadata. A location is
// damaged when it is unreadable, or holds bytes that neither decode nor are
// all-zero, or when no location decodes to the durable high-water counter
// (a zeroing fault wiped the current record — all-zero is only "legitimately
// empty" while it does not regress the durable floor).
func (s *scrubber) scrubRecords() {
	c, dev := s.c, s.front
	c.recordMu.Lock()
	defer c.recordMu.Unlock()
	// The superblock first: it is immutable after format and the engine
	// holds the authoritative copy in memory, so damage (a zeroing fault on
	// sector 0 takes the superblock AND both records with it) is repaired
	// by simply re-persisting it.
	s.st.BytesVerified += 64
	if onDev, err := readSuperblock(dev); err != nil || onDev != c.sb {
		s.heal(ScrubRecord{Tier: -1, Slot: -1, Region: RegionSuperblock}, ScrubRepaired, obs.ActRewriteSuperblock, ignore, ignore,
			func(*ScrubRecord) error { return c.dev.Persist(c.sb.encode(), superOff) })
	}

	m := c.checkAddr.Load()
	if m == nil || c.recordHighest == 0 {
		return
	}
	var bestCtr uint64
	type locState struct {
		off             int64
		damaged, zeroed bool
	}
	locs := [2]locState{{off: recordAOff}, {off: recordBOff}}
	for i := range locs {
		var buf, zero [recordSize]byte
		s.st.BytesVerified += recordSize
		if err := dev.ReadAt(buf[:], locs[i].off); err != nil {
			locs[i].damaged = true
		} else if rec, ok := decodeRecord(buf[:]); ok {
			bestCtr = max(bestCtr, rec.counter)
		} else if buf == zero {
			locs[i].zeroed = true
		} else {
			locs[i].damaged = true
		}
	}
	floorLost := bestCtr < c.recordHighest
	for _, loc := range locs {
		if !loc.damaged && !(loc.zeroed && floorLost) {
			continue
		}
		// Repair: the published meta's slot header is always durable before
		// checkAddr stores it, so a record naming it is always legal — and
		// m.counter >= recordHighest, so the floor never regresses.
		s.heal(ScrubRecord{Tier: -1, Slot: -1, Region: RegionRecord, Counter: c.recordHighest}, ScrubRepaired, obs.ActRewriteRecord, ignore, ignore,
			func(rec *ScrubRecord) error {
				rec.Counter = m.counter
				return c.dev.Persist(encodeRecord(*m), loc.off)
			})
	}
}

// --- committed slots --------------------------------------------------------

// healthyCopy searches the lower tiers of a tiered device for an intact
// copy of checkpoint m and returns it as that tier holds it (heldAt), with a
// header stateHeld accepts and a verifying payload. Tiers are probed
// nearest-first, so the newest healthy copy wins.
func (s *scrubber) healthyCopy(m checkMeta) (src storage.Device, at checkMeta, tier int, ok bool) {
	td, ok := s.c.dev.(tieredScrub)
	if !ok {
		return nil, m, 0, false
	}
	active := td.Active()
	for i, dev := range td.Tiers() {
		if i <= active || dev == nil {
			continue
		}
		src = s.reads(dev)
		if at, ok := heldAt(src, s.c.sb, m.counter); ok && stream(src, s.c.sb, []checkMeta{at}, nil, s.piece, 0) == nil {
			return src, at, i, true
		}
	}
	return nil, m, 0, false
}

// quarantineSlot tombstones slot m on dev: a reconstructed header with the
// quarantine flag set replaces whatever is there, so recovery skips the
// slot. The header is rebuilt from the engine's metadata (the on-device one
// may be unreadable).
func quarantineSlot(dev storage.Device, sb superblock, m checkMeta) error {
	hdr := slotHeader{
		counter: m.counter, size: m.size, epoch: sb.epoch,
		kind: m.kind, base: m.base, fullSize: m.fullSize,
		flags: slotFlagQuarantined,
	}
	return dev.Persist(encodeSlotHeader(hdr), slotBase(sb, m.slot))
}

// scrubCommitted verifies what recovery would read off the front, a slot at
// a time: the pinned keyframe→delta chain in delta mode, keyframe first, the
// published slot otherwise. A damaged slot is rebuilt from the nearest
// healthy lower-tier copy, or tombstoned when there is none. In delta mode
// deltaMu is held throughout, which lets a link be rewritten in place.
// Otherwise the slot's generation and checkAddr are sampled around the read,
// so a concurrent recycle reads as "stale", never as damage, and the repair
// re-publishes (under deltaMu the samples simply hold).
func (s *scrubber) scrubCommitted() {
	c := s.c
	delta := c.sb.deltaKeyframe > 0
	if delta {
		c.deltaMu.Lock()
		defer c.deltaMu.Unlock()
	}
	m := c.checkAddr.Load()
	if m == nil {
		return
	}
	chain := c.chain
	if !delta {
		chain = []checkMeta{*m}
	}
	for i, link := range chain {
		g := c.slots.gen(link.slot)
		verr := stream(s.front, c.sb, chain[i:i+1], nil, s.piece, 0)
		if !c.slots.stable(link.slot, g) || c.checkAddr.Load() != m {
			return // recycled or superseded before or during the verify: stale, not damage
		}
		s.st.BytesVerified += uint64(slotHeaderSize + link.size)
		if verr == nil || errors.Is(verr, errSlotQuarantined) {
			continue // healthy, or already tombstoned in an earlier sweep
		}
		rec := ScrubRecord{Tier: -1, Slot: int32(link.slot), Counter: link.counter, Region: RegionSlot}
		action, over := obs.ActRepublishFromTier, []obs.DecisionAction{obs.ActQuarantine, obs.ActRewriteInPlace}
		if delta {
			action, over = obs.ActRewriteFromTier, []obs.DecisionAction{obs.ActQuarantine, obs.ActResyncTier}
		}
		if src, at, tier, ok := s.healthyCopy(link); ok {
			s.heal(rec, ScrubRepaired, action, over, []obs.DecisionAction{obs.ActQuarantine}, func(rec *ScrubRecord) error {
				rec.Tier = int32(tier)
				if delta {
					_, err := c.slots.rewrite(link.slot, g, func() error { return s.copy.link(src, c.sb, at, c.dev, link.slot, nil) })
					return err
				}
				return s.republish(m, src, at)
			})
			continue
		}
		s.heal(rec, ScrubQuarantined, obs.ActQuarantine, []obs.DecisionAction{action}, ignore, func(*ScrubRecord) error {
			// The generation goes odd around the header write so concurrent
			// readers retry instead of tearing, then read the tombstone and
			// fail classified-corrupt — never garbage. A slot a newer
			// publication freed meanwhile is no longer the damage to contain.
			held, err := c.slots.rewrite(link.slot, g, func() error { return quarantineSlot(c.dev, c.sb, link) })
			if !held {
				return errRepairSuperseded
			}
			if td, ok := c.dev.(tieredScrub); ok && err == nil {
				// healthyCopy has just failed every lower tier's copy, so a
				// tier still names a payload known to be bad and would not
				// recover on its own. Each is told to verify what it holds and
				// take the front's fallback — before scrubTiers, which skips a
				// tier with that pending.
				for i := range td.Tiers() {
					td.ScheduleResync(i) // a no-op for the front and dead levels
				}
			}
			if err == nil && delta {
				// Recovery falls back past this chain; the next save must
				// open a fresh one with a keyframe — extending a dead chain
				// would pin more saves to unrecoverable state.
				c.hashes = nil
			}
			return err
		})
	}
}

// errRepairSuperseded reports that a newer publication landed while a
// repair was in flight; the damage is moot.
var errRepairSuperseded = errors.New("core: repair superseded by a newer checkpoint")

// republish moves the damaged published checkpoint into a fresh slot
// rewritten from src's healthy copy at, then forces the pointer record to the
// new location (why never in place: see the file comment).
func (s *scrubber) republish(old *checkMeta, src storage.Device, at checkMeta) error {
	c := s.c
	slot, ok := c.slots.claim()
	if !ok {
		return errors.New("core: no free slot for repair")
	}
	if err := s.copy.link(src, c.sb, at, c.dev, slot, nil); err != nil {
		c.slots.move(slot, stateWriting, stateFree)
		return err
	}
	c.slots.move(slot, stateWriting, stateHeld)
	nm := *old
	nm.slot = slot
	if !c.checkAddr.CompareAndSwap(old, &nm) {
		c.slots.move(slot, stateHeld, stateFree)
		return errRepairSuperseded
	}
	// If the record fails, the durable one may still name the damaged slot.
	// The in-memory publish stands — readers are already served from the
	// healthy copy.
	err := c.forceRecord(context.Background(), nm)
	c.retire(old.slot, err)
	return err
}

// --- black box --------------------------------------------------------------

// scrubBlackBox verifies the telemetry region header. Frames are left to
// the flusher (it overwrites them in sequence anyway, and verifying a slot
// mid-append would read torn frames as damage).
func (s *scrubber) scrubBlackBox() {
	c := s.c
	if c.sb.blackBoxBytes <= 0 {
		return
	}
	s.st.BytesVerified += blackbox.SectorBytes
	if err := blackbox.CheckHeader(c.dev, blackBoxBase(c.sb), c.sb.blackBoxBytes, c.sb.epoch); err == nil {
		return
	}
	var repair func(*ScrubRecord) error
	if c.bbox != nil { // with no journal open nothing holds the true layout
		repair = func(*ScrubRecord) error { return c.bbox.RepairHeader() }
	}
	s.heal(ScrubRecord{Tier: -1, Slot: -1, Region: RegionBlackBox}, ScrubRepaired, obs.ActRewriteBlackBoxHeader, ignore, ignore, repair)
}

// --- lower tiers ------------------------------------------------------------

// scrubTiers verifies each lower tier's self-contained image against its
// durable watermark: the tier must resolve a checkpoint at least as new as
// what the drainer acknowledged to it, with every CRC of that chain intact,
// or it is scheduled for a resync. Tiers with a ship or resync pending are
// skipped (the drainer is about to look at them anyway). frontOK:
// this sweep left the front's committed slots verified, repaired or
// tombstoned, not damaged.
func (s *scrubber) scrubTiers(frontOK bool) {
	td, ok := s.c.dev.(tieredScrub)
	if !ok {
		return
	}
	levels := td.Tiers()
	sts := td.Status()
	active := td.Active()
	// A tier is measured against what the front can actually provide, not
	// the raw watermark: after a quarantine the front's best recoverable
	// checkpoint legitimately trails the watermark, and a tier matching the
	// front needs no resync. And when the front itself cannot recover
	// anything, no tier is resynced at all — a lower tier may then be the
	// last good copy, and a resync would replicate the broken image over it.
	var frontCtr uint64
	if frontOK && active >= 0 && active < len(levels) && levels[active] != nil {
		if _, chain, _, err := newest(s.reads(levels[active])); err == nil {
			frontCtr = chain[len(chain)-1].counter
		}
	}
	for i, dev := range levels {
		if i <= active || dev == nil || i >= len(sts) {
			continue
		}
		st := sts[i]
		if st.Failed || st.Resyncing || st.PendingOps > 0 {
			continue
		}
		want := min(st.DurableCounter, frontCtr)
		if want == 0 {
			continue // nothing acknowledged here, or no healthy repair source
		}
		// A tier that trails is found without reading a payload.
		rd := s.reads(dev)
		if sb, chain, _, err := newest(rd); err == nil && chain[len(chain)-1].counter >= want {
			for _, m := range chain {
				s.st.BytesVerified += uint64(slotHeaderSize + m.size)
			}
			if stream(rd, sb, chain, nil, s.piece, 0) == nil {
				continue
			}
		}
		s.heal(ScrubRecord{Tier: int32(i), Slot: -1, Counter: st.DurableCounter, Region: RegionTier},
			ScrubResynced, obs.ActResyncTier, []obs.DecisionAction{obs.ActRewriteInPlace, obs.ActQuarantine}, ignore, func(*ScrubRecord) error {
				if !td.ScheduleResync(i) {
					return errors.New("core: tier resync not scheduled")
				}
				return nil
			})
	}
}
