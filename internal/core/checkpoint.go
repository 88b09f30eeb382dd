package core

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/maphash"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pccheck/internal/chunkpool"
	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

// Source supplies a checkpoint payload the engine cannot address: it pulls
// the payload range by range into pooled DRAM chunks, so that device→DRAM
// copies (the GPU snapshot) pipeline with DRAM→storage persists.
// Implementations must allow concurrent ReadInto calls on disjoint ranges.
type Source interface {
	// Size returns the payload length in bytes.
	Size() int64
	// ReadInto fills p with payload bytes starting at off.
	ReadInto(p []byte, off int64) error
}

// bytesSource adapts an in-memory payload.
type bytesSource struct{ b []byte }

// BytesSource wraps a payload that already lies in host memory — the DRAM
// copy of §3.1. The engine persists it from where it lies, without staging:
// it reads the slice during Checkpoint (checksum, delta hashes, the writers'
// device writes) and never writes it. The caller must not mutate it until
// Checkpoint returns (the paper's equivalent: the GPU must not update
// weights being snapshotted); reading it meanwhile is fine.
func BytesSource(b []byte) Source { return bytesSource{b} }

func (s bytesSource) Size() int64 { return int64(len(s.b)) }

func (s bytesSource) ReadInto(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(s.b)) {
		return fmt.Errorf("core: source range [%d,%d) outside payload of %d bytes", off, off+int64(len(p)), len(s.b))
	}
	copy(p, s.b[off:])
	return nil
}

// Checkpointer orchestrates concurrent checkpoints on one device. It is safe
// for concurrent use; up to Config.Concurrent Checkpoint calls proceed in
// parallel and additional calls wait for a free slot.
type Checkpointer struct {
	dev storage.Device
	cfg Config
	sb  superblock

	// committer is dev's optional tiered-durability hook (probed once at
	// attach): after each pointer record lands durably, the engine reports
	// the committed counter, which is what wakes a storage.Tiered's drainer.
	committer storage.CheckpointCommitter

	gCounter  atomic.Uint64
	checkAddr atomic.Pointer[checkMeta] // latest *persisted* checkpoint
	slots     *slots                    // every slot's lifecycle (slots.go)
	pool      *chunkpool.Pool
	closed    atomic.Bool

	// perWriterBW holds the float64 bits of the current per-writer pacing
	// rate; mutable at runtime via SetPerWriterBW so operators (or the
	// adaptive controller) can model or react to device contention.
	perWriterBW atomic.Uint64

	// recordMu serializes persistent pointer-record writes. Under it,
	// recordHighest enforces that records are persisted in strictly
	// increasing counter order (a delayed writer whose counter was already
	// superseded skips the write — the newer durable record subsumes it),
	// and recordSeq alternates the two on-device record locations so the
	// previous durable record is always intact while the next one is being
	// written, even when published counters share parity. A record that
	// lands frees the slots parked behind an earlier failed one.
	recordMu      sync.Mutex
	recordHighest uint64
	recordSeq     uint64
	recordBuf     [recordSize]byte // encode scratch, under recordMu
	saves         []saveState      // per-slot save plumbing

	// obsv receives lifecycle events when observability is on. Every
	// probe is guarded by a nil check so a disabled observer costs one
	// predictable branch and no clock reads or allocations.
	obsv obs.Observer
	// bbox is the black-box flusher persisting telemetry snapshots into
	// the device's reserved region (nil when the device has no region or
	// the observer chain has no flight recorder). It runs entirely off
	// the Emit hot path.
	bbox *blackbox.Flusher
	// scrub is the background integrity scrubber (see scrub.go); always
	// constructed by attach so ScrubNow works even when the periodic
	// goroutine is disabled.
	scrub *scrubber

	// Delta-mode state (sb.deltaKeyframe > 0), all under deltaMu: saves are
	// serialized because each delta is diffed against the save before it.
	// chain holds the pinned keyframe→delta slots, keyframe first, with the
	// tip also published through checkAddr; those slots stay held until the
	// next keyframe supersedes the whole chain. hashes
	// is the per-granule hash state of the tip (nil forces the next save to
	// be a keyframe, e.g. right after Open), lastSize the tip's logical
	// size, saveSeq the DeltaEvery cadence counter (published saves only),
	// dense whether the tip would not have won as a delta, and pass the
	// reusable hash/diff stage, whose next array double-buffers hashes.
	deltaMu  sync.Mutex
	chain    []checkMeta
	hashes   []uint64
	lastSize int64
	saveSeq  uint64
	dense    bool
	pass     deltaPass
	tracker  *DirtyTracker

	stats Stats
}

// emit forwards an event to the observer, if any.
func (c *Checkpointer) emit(ev obs.Event) {
	if c.obsv != nil {
		c.obsv.Emit(ev)
	}
}

// obsNow samples the wall clock only when an observer is attached; with
// observability off it is a nil check returning 0.
func (c *Checkpointer) obsNow() int64 {
	if c.obsv == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// span emits a completed span that started at ts (an obsNow sample).
func (c *Checkpointer) span(phase obs.Phase, ts int64, counter uint64, slot int, bytes, value int64) {
	if c.obsv == nil {
		return
	}
	c.obsv.Emit(obs.Event{
		TS: ts, Dur: time.Now().UnixNano() - ts,
		Counter: counter, Bytes: bytes, Value: value,
		Phase: phase, Slot: int32(slot), Writer: -1, Rank: -1,
	})
}

// instant emits a point event.
func (c *Checkpointer) instant(phase obs.Phase, counter uint64, slot int, bytes, value int64) {
	if c.obsv == nil {
		return
	}
	c.obsv.Emit(obs.Event{
		TS: time.Now().UnixNano(), Counter: counter, Bytes: bytes, Value: value,
		Phase: phase, Slot: int32(slot), Writer: -1, Rank: -1,
	})
}

// Stats exposes engine counters. All fields are cumulative.
type Stats struct {
	Checkpoints atomic.Int64 // published checkpoints (won the CAS)
	Obsolete    atomic.Int64 // completed but superseded before publishing
	// CASRetries counts publish CAS attempts retried against older
	// registered values — contention on CHECK_ADDR, a different signal
	// from IORetries (device faults absorbed by the retry policy).
	CASRetries atomic.Int64
	// BytesWritten counts logical checkpoint bytes (payload sizes);
	// BytesPersisted counts what actually hit the device — equal for full
	// checkpoints, smaller for deltas. Persisted/written is the delta ratio.
	BytesWritten    atomic.Int64
	BytesPersisted  atomic.Int64
	DeltaSaves      atomic.Int64 // published checkpoints stored as delta records
	KeyframeSaves   atomic.Int64 // published full checkpoints in delta mode
	PersistNanos    atomic.Int64 // total wall time inside Checkpoint
	SlotWaits       atomic.Int64 // times a checkpoint had to wait for a slot
	TransientFaults atomic.Int64 // transient device faults absorbed on the persist path
	IORetries       atomic.Int64 // persist-path I/O retries taken after transient faults
	FailedSaves     atomic.Int64 // Checkpoint calls that returned an error after starting
}

// StatsSnapshot is a point-in-time plain-struct copy of Stats.
type StatsSnapshot struct {
	Checkpoints     int64
	Obsolete        int64
	CASRetries      int64
	BytesWritten    int64
	BytesPersisted  int64
	DeltaSaves      int64
	KeyframeSaves   int64
	Persist         time.Duration
	SlotWaits       int64
	TransientFaults int64
	IORetries       int64
	FailedSaves     int64
}

// Stats returns a point-in-time copy of the counters.
func (c *Checkpointer) Stats() StatsSnapshot {
	return StatsSnapshot{
		Checkpoints:     c.stats.Checkpoints.Load(),
		Obsolete:        c.stats.Obsolete.Load(),
		CASRetries:      c.stats.CASRetries.Load(),
		BytesWritten:    c.stats.BytesWritten.Load(),
		BytesPersisted:  c.stats.BytesPersisted.Load(),
		DeltaSaves:      c.stats.DeltaSaves.Load(),
		KeyframeSaves:   c.stats.KeyframeSaves.Load(),
		Persist:         time.Duration(c.stats.PersistNanos.Load()),
		SlotWaits:       c.stats.SlotWaits.Load(),
		TransientFaults: c.stats.TransientFaults.Load(),
		IORetries:       c.stats.IORetries.Load(),
		FailedSaves:     c.stats.FailedSaves.Load(),
	}
}

// New formats dev for the given configuration and returns a ready engine.
// Any previous contents are destroyed. Use Open to attach to a formatted
// device after a restart.
func New(dev storage.Device, cfg Config) (*Checkpointer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	need := DeviceBytesFor(cfg)
	if dev.Size() < need {
		return nil, fmt.Errorf("core: device holds %d bytes, need %d for N=%d, m=%d, K=%d",
			dev.Size(), need, cfg.Concurrent, cfg.SlotBytes, cfg.DeltaKeyframe)
	}
	sb := superblock{
		slots:         cfg.Concurrent + 1 + cfg.DeltaKeyframe,
		slotBytes:     cfg.SlotBytes,
		epoch:         nextEpoch(dev),
		deltaKeyframe: cfg.DeltaKeyframe,
	}
	if cfg.BlackBox.Enabled() {
		sb.blackBoxBytes = cfg.BlackBox.Layout().RegionBytes()
	}
	if err := formatImage(dev, sb); err != nil {
		return nil, err
	}
	if sb.blackBoxBytes > 0 {
		// The telemetry region header carries the same fresh epoch: frames
		// surviving from the previous image fail the epoch check, so a
		// reformat can no more resurrect stale telemetry than stale slots.
		if err := blackbox.Format(dev, blackBoxBase(sb), sb.epoch, cfg.BlackBox.Layout()); err != nil {
			return nil, err
		}
	}
	return attach(dev, cfg, sb, nil, 0)
}

// formatImage makes dev an empty image of sb. The new-epoch superblock goes
// durable FIRST: from then on recovery rejects every slot header still on the
// device (stale epoch), so neither a format nor a crash in the middle of one
// can resurrect the previous image. Then both pointer records are zeroed —
// belt and suspenders, and what keeps Open from chasing stale slots.
func formatImage(dev storage.Device, sb superblock) error {
	err := dev.Persist(sb.encode(), superOff)
	for _, off := range recordOffs {
		if err == nil {
			err = dev.Persist(make([]byte, recordSize), off)
		}
	}
	return err
}

// nextEpoch picks the format generation for a fresh image: one past the
// highest epoch any level of the device carries (a lower tier left over from
// an earlier image must not pass for a copy of this one), else 1.
// Deterministic, never 0 (the legacy value), and different from every epoch
// the old image's slot headers carry.
func nextEpoch(dev storage.Device) uint64 {
	levels := []storage.Device{dev}
	if tr, ok := dev.(TierReader); ok {
		levels = tr.Tiers()
	}
	var epoch uint64
	for _, l := range levels {
		if old, err := readSuperblock(l); err == nil {
			epoch = max(epoch, old.epoch)
		}
	}
	return max(epoch+1, 1) // epoch+1 wraps to 0 only from the last one
}

// Open attaches to a previously formatted device, recovering the latest
// persisted checkpoint pointer (§4.2). The returned engine continues the
// counter sequence past the recovered checkpoint.
func Open(dev storage.Device, cfg Config) (*Checkpointer, error) {
	sb, chain, loc, err := newest(dev)
	if err != nil && err != ErrNoCheckpoint {
		return nil, err
	}
	// Geometry comes from the superblock, not the caller: a delta-formatted
	// device reserves K of its slots for the pinned chain.
	cfg.DeltaKeyframe = sb.deltaKeyframe
	cfg.Concurrent = sb.slots - 1 - sb.deltaKeyframe
	cfg.SlotBytes = sb.slotBytes
	return attach(dev, cfg.withDefaults(), sb, chain, loc)
}

// attach builds the engine over a formatted device; chain is what resolve
// found on it (nil on a fresh format), latestLoc the record that named it.
func attach(dev storage.Device, cfg Config, sb superblock, chain []checkMeta, latestLoc int) (*Checkpointer, error) {
	chunkBytes := int64(cfg.ChunkBytes)
	gran := int64(deltaGranularity(sb.slotBytes))
	if sb.deltaKeyframe > 0 {
		// The delta stage works on whole granules inside one pooled chunk.
		chunkBytes = max(gran, chunkBytes/gran*gran)
	}
	pool, err := chunkpool.ForBudget(cfg.DRAMBudget, chunkBytes)
	if err != nil {
		return nil, err
	}
	// The published slot is never free (§4.1), nor any slot of its chain.
	c := &Checkpointer{
		dev:   dev,
		cfg:   cfg,
		sb:    sb,
		slots: newSlots(sb.slots, chain),
		pool:  pool,
		obsv:  cfg.Observer,
	}
	c.committer, _ = dev.(storage.CheckpointCommitter)
	c.saves = make([]saveState, sb.slots)
	pieces := (ceilDiv(sb.slotBytes, pool.ChunkSize()) + cfg.Writers - 1) / cfg.Writers * cfg.Writers
	for slot := range c.saves {
		st := &c.saves[slot]
		st.tasks = make(chan task, cfg.Writers)
		st.lanes = make([]*storage.Throttle, cfg.Writers)
		st.fan.build(func(w int) { c.writer(st, slot, w) }, int64(pieces))
	}
	c.perWriterBW.Store(math.Float64bits(cfg.PerWriterBW))
	var latest *checkMeta
	if len(chain) > 0 {
		tip := chain[len(chain)-1]
		latest = &tip
		if sb.deltaKeyframe > 0 {
			c.chain = chain
		}
	}
	if sb.deltaKeyframe > 0 {
		// hashes stays nil: the first save after attach is always a keyframe
		// (there is no in-memory hash state to diff against).
		c.tracker = &DirtyTracker{}
		c.pass = deltaPass{seed: maphash.MakeSeed(), gran: int(gran)}
	}
	if latest != nil {
		c.checkAddr.Store(latest)
		c.gCounter.Store(latest.counter)
		c.recordHighest = latest.counter
		// Resume the location ping-pong so the next record does not
		// overwrite the one just recovered.
		c.recordSeq = uint64(latestLoc) + 1
	}
	if sb.blackBoxBytes > 0 && obs.Find[*obs.Recorder](cfg.Observer) != nil {
		// The flusher appends after the newest surviving frame, so
		// telemetry written post-restart extends the pre-crash tail.
		j, err := blackbox.OpenJournal(dev, blackBoxBase(sb), sb.blackBoxBytes, sb.epoch)
		if err != nil {
			return nil, fmt.Errorf("core: open black box: %w", err)
		}
		fl, err := blackbox.NewFlusher(j, cfg.Observer, cfg.BlackBox)
		if err != nil {
			return nil, err
		}
		c.bbox = fl
		fl.Start()
	}
	c.scrub = newScrubber(c, cfg.Scrub)
	c.scrub.start()
	return c, nil
}

// Config returns the engine's effective configuration.
func (c *Checkpointer) Config() Config { return c.cfg }

// Observer returns the configured lifecycle observer (nil when
// observability is off).
func (c *Checkpointer) Observer() obs.Observer { return c.obsv }

// SetPerWriterBW changes the per-writer pacing rate (bytes/sec; 0 unpaces).
// It applies to checkpoints started after the call.
func (c *Checkpointer) SetPerWriterBW(bytesPerSec float64) {
	if bytesPerSec < 0 {
		bytesPerSec = 0
	}
	c.perWriterBW.Store(math.Float64bits(bytesPerSec))
}

// Close marks the engine closed. In-flight checkpoints finish; new ones
// fail. The device is not closed (the caller owns it). An attached
// black-box flusher is stopped after one final frame, so the telemetry
// tail at clean shutdown is durable.
func (c *Checkpointer) Close() error {
	c.closed.Store(true)
	if c.scrub != nil {
		c.scrub.stopWait()
	}
	if c.bbox != nil {
		c.bbox.Stop()
	}
	return nil
}

// FlushBlackBox forces one black-box frame now and returns its sequence
// number. It returns 0, nil when the engine has no black box attached.
func (c *Checkpointer) FlushBlackBox() (uint64, error) {
	if c.bbox == nil {
		return 0, nil
	}
	return c.bbox.Flush()
}

// BlackBox returns the attached black-box flusher (nil when the device
// has no telemetry region or no flight recorder is configured); useful
// for mounting its pccheck_blackbox_* metrics families.
func (c *Checkpointer) BlackBox() *blackbox.Flusher { return c.bbox }

// Checkpoint persists one checkpoint from src and returns its counter. It
// implements Listing 1 of the paper plus the chunked pipelining of §4.1.
//
// On return with nil error the checkpoint is either durably published, or
// was durably superseded by a concurrent checkpoint with a higher counter —
// in both cases the state at this counter or newer survives a crash.
func (c *Checkpointer) Checkpoint(ctx context.Context, src Source) (uint64, error) {
	if c.closed.Load() {
		return 0, ErrClosed
	}
	size := src.Size()
	if size > c.sb.slotBytes {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, size, c.sb.slotBytes)
	}
	if c.sb.deltaKeyframe > 0 {
		return c.checkpointDelta(ctx, src)
	}
	start := time.Now()
	obsStart := c.obsNow()

	// Listing 1, line 3: sample the last published checkpoint BEFORE taking
	// a counter — this ordering is what makes every CAS attempt legal.
	lastCheck := c.checkAddr.Load()

	// Line 5: order this checkpoint.
	counter := c.gCounter.Add(1)

	// Lines 6–11: obtain a free slot.
	slot, err := c.acquireSlot(ctx, counter, obsStart)
	if err != nil {
		return 0, err
	}

	// Lines 12–15: move the payload through DRAM chunks to the device with
	// p parallel writers, then make it durable.
	_, payloadCRC, err := c.writePayload(ctx, slot, src, counter, nil)
	if err != nil {
		c.failSlot(slot, counter)
		return 0, err
	}

	// Lines 16–18: persist this slot's header before publishing.
	if err := c.sealSlot(ctx, slot, slotHeader{counter: counter, size: size, payloadCRC: payloadCRC}); err != nil {
		return 0, err
	}

	// Lines 19–34: publish via CAS on CHECK_ADDR.
	cur := &checkMeta{slot: slot, counter: counter, size: size}
	for {
		if c.checkAddr.CompareAndSwap(lastCheck, cur) {
			// Success: persist the pointer (BARRIER), then free the old slot.
			barrierStart := c.obsNow()
			err := c.persistRecord(ctx, *cur)
			c.span(obs.PhaseBarrier, barrierStart, counter, slot, 0, 0)
			if lastCheck != nil {
				c.retire(lastCheck.slot, err)
			}
			if err != nil {
				c.stats.FailedSaves.Add(1)
				c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
				return 0, err
			}
			c.stats.Checkpoints.Add(1)
			c.saveDone(obs.PhasePublish, start, obsStart, counter, slot, size, size)
			return counter, nil
		}
		check := c.checkAddr.Load()
		if check == nil || check.counter < counter {
			// The registered checkpoint is older than ours: retry the CAS
			// with the fresher expected value.
			lastCheck = check
			c.stats.CASRetries.Add(1)
			c.instant(obs.PhaseCASRetry, counter, slot, 0, 0)
			continue
		}
		// A more recent checkpoint was registered (lines 29–31): make sure
		// its pointer is durable, then recycle our never-published slot —
		// always safe, so failing the barrier must not leak it.
		barrierStart := c.obsNow()
		err := c.persistRecord(ctx, *check)
		c.slots.move(slot, stateHeld, stateFree)
		if err != nil {
			c.stats.FailedSaves.Add(1)
			c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
			return 0, err
		}
		c.span(obs.PhaseBarrier, barrierStart, counter, slot, 0, 0)
		c.stats.Obsolete.Add(1)
		c.saveDone(obs.PhaseObsolete, start, obsStart, counter, slot, size, size)
		return counter, nil
	}
}

// sealSlot is lines 16–18: persist the slot header over a durable payload;
// the slot is then held. On failure the slot is abandoned (failSlot).
func (c *Checkpointer) sealSlot(ctx context.Context, slot int, hdr slotHeader) error {
	hdrStart := c.obsNow()
	hdr.hasCRC, hdr.epoch = c.cfg.VerifyPayload, c.sb.epoch
	buf := hdr.put(c.saves[slot].hdr[:])
	if err := c.retryIO(ctx, func() error {
		return c.dev.Persist(buf, slotBase(c.sb, slot))
	}); err != nil {
		c.failSlot(slot, hdr.counter)
		return err
	}
	c.span(obs.PhaseHeader, hdrStart, hdr.counter, slot, slotHeaderSize, 0)
	c.slots.move(slot, stateWriting, stateHeld)
	return nil
}

// saveDone accounts a published or obsolete save of size logical bytes.
func (c *Checkpointer) saveDone(outcome obs.Phase, start time.Time, obsStart int64, counter uint64, slot int, stored, size int64) {
	c.stats.BytesWritten.Add(size)
	c.stats.BytesPersisted.Add(stored)
	c.stats.PersistNanos.Add(int64(time.Since(start)))
	c.instant(outcome, counter, slot, stored, size)
	c.span(obs.PhaseSave, obsStart, counter, slot, stored, 0)
}

// failSlot abandons an unpublished slot after a persist failure: the slot
// goes free (contents settled, albeit garbage) and the failure is counted.
// Slot accounting must balance on every error path — a leaked slot
// permanently lowers the engine's effective concurrency.
func (c *Checkpointer) failSlot(slot int, counter uint64) {
	c.slots.move(slot, stateWriting, stateFree)
	c.stats.FailedSaves.Add(1)
	c.instant(obs.PhaseSaveFailed, counter, slot, 0, 0)
}

// retire releases a held slot that a newer publication superseded, once the
// newer pointer record's persist returned recordErr. After a failure the
// durable record may still name the slot, so it is parked until a newer
// record lands and recovery never chases a recycled slot.
func (c *Checkpointer) retire(slot int, recordErr error) {
	if recordErr != nil {
		c.slots.move(slot, stateHeld, stateParked)
	} else {
		c.slots.move(slot, stateHeld, stateFree)
	}
}

// acquireSlot is lines 6–11 of Listing 1: claim a free slot for writing,
// spinning until one appears (the paper's while-true deq loop) or ctx is
// cancelled, and account the wait. No free slot can also mean a slot is
// parked behind a failed pointer-record barrier; the spin re-drives the
// barrier, so it either frees a slot or fails fast.
func (c *Checkpointer) acquireSlot(ctx context.Context, counter uint64, obsStart int64) (int, error) {
	for spin := 0; ; spin++ {
		if slot, ok := c.slots.claim(); ok {
			if spin > 0 {
				c.stats.SlotWaits.Add(1)
			}
			c.span(obs.PhaseSlotWait, obsStart, counter, slot, 0, int64(min(spin, 1)))
			return slot, nil
		}
		err := ctx.Err()
		if err == nil {
			err = c.redriveRecord(ctx)
		}
		if err != nil {
			c.stats.FailedSaves.Add(1)
			c.instant(obs.PhaseSaveFailed, counter, -1, 0, 0)
			return 0, err
		}
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// redriveRecord retries the pointer-record barrier for the currently
// published checkpoint when earlier failures left slots parked. Success
// frees them (via persistRecord); a device that still cannot persist
// records returns the error so a waiting Save fails fast instead of
// spinning forever — essential at Concurrent=1, where the parked slot is
// the only spare.
func (c *Checkpointer) redriveRecord(ctx context.Context) error {
	if m := c.checkAddr.Load(); m != nil && c.slots.count(stateParked) > 0 {
		return c.persistRecord(ctx, *m)
	}
	return nil
}

// task is piece i of a payload on its way to a writer: buf lands at off in the
// slot's payload area; chunk is the pooled chunk it lives in (nil for a window
// of the caller's memory), released once written. The zero task ends a save.
type task struct {
	buf   []byte
	chunk *chunkpool.Chunk
	off   int64
	i     int64
}

// saveState is one slot's save plumbing, built once at attach: a save owns
// its slot from acquireSlot until it publishes or fails, so nothing here is
// shared between saves and a save allocates none of it.
type saveState struct {
	tasks chan task            // producer → writers, capacity p; never closed
	fan   fanout               // the p writers, with a piece slot for any cut
	lanes []*storage.Throttle  // per-writer pacing, kept while the rate stands
	hdr   [slotHeaderSize]byte // slot header scratch
	// The running save's: what its writers must know, and what they report.
	ctx       context.Context
	counter   uint64
	dp        *deltaPass // an in-place keyframe's pass: writers diff what they persist
	persisted atomic.Int64
}

// writer is one of a save's p writer goroutines. Each paces itself at the
// per-thread bandwidth, mirroring that one OS thread cannot saturate a
// storage device (§3.3/§5.4.2). Transient device faults are absorbed per
// the retry policy right here at the piece granularity — rewriting one
// piece is idempotent and far cheaper than restarting the whole checkpoint
// (the FastPersist lesson: per-write failure handling belongs in the
// parallel-writer path).
func (c *Checkpointer) writer(st *saveState, slot, w int) {
	base, lane := payloadBase(c.sb, slot), st.lanes[w]
	for {
		t := <-st.tasks
		if t.buf == nil {
			return
		}
		if !st.fan.failed.Load() {
			// The per-writer lane and the device's own pacing overlap:
			// reserve the lane, let the device pace the write, then sleep
			// out whatever lane budget remains. The piece's effective rate is
			// min(laneBW, device share), as on real hardware — not the series.
			laneDeadline := lane.Reserve(len(t.buf))
			// Checksum the piece on its way to the device: a keyframe's
			// writer diffs and folds it granule by granule first; any other
			// folds it inside the write (storage.WriteAtCRC).
			var crc uint32
			var err error
			if st.dp != nil {
				crc = st.dp.hashPiece(t.buf, t.off, c.cfg.VerifyPayload)
			}
			persistStart := c.obsNow()
			if st.dp == nil && c.cfg.VerifyPayload {
				crc, err = c.writeRange(st.ctx, t.buf, base+t.off, true)
			} else {
				_, err = c.writeRange(st.ctx, t.buf, base+t.off, false)
			}
			if c.obsv != nil {
				c.obsv.Emit(obs.Event{
					TS: persistStart, Dur: time.Now().UnixNano() - persistStart,
					Counter: st.counter, Bytes: int64(len(t.buf)), Value: t.off,
					Phase: obs.PhasePersist, Slot: int32(slot), Writer: int32(w), Rank: -1,
				})
			}
			if wait := time.Until(laneDeadline); wait > 0 {
				time.Sleep(wait)
			}
			if st.fan.done(t.i, crc, int64(len(t.buf)), err); err == nil {
				st.persisted.Add(int64(len(t.buf)))
			}
		}
		if t.chunk != nil {
			c.pool.Release(t.chunk)
		}
	}
}

// writePayload cuts src into pieces of at most ChunkBytes, persists them into
// the slot's payload area with the configured number of writer goroutines,
// and returns the bytes stored and their CRC (0 when verification is off).
//
// A payload that already lies in host memory (BytesSource) is persisted where
// it lies: a piece is a window of the caller's buffer, which the CRC, the
// delta stage and the writers read and nothing ever writes. Any other source
// is staged — the paper's step ③: the copy engine moves the range into a
// pooled DRAM chunk (for a GPU source this is the paced D2H copy).
//
// Pipelining (§4.1 "Pipelining and Using Chunks"): the staging of piece k+1
// overlaps the device persist of piece k, bounded by pool capacity — a full
// pool is exactly the "checkpoint waits for free chunks in DRAM" condition of
// §3.2. Each writer folds the CRC of the pieces it persists; the CRCs are
// joined in piece order once the writers are done.
//
// A non-nil dp turns the delta stage on (see deltaPass): an in-memory delta
// is diffed up front on coresFor(size) cores, a staged piece as it arrives,
// an in-memory keyframe by its writers. With dp.filter only dirty granules are
// queued, at the running offset of a record whose header ‖ bitmap is written
// last. A record that already loses makes the save a keyframe, hashes kept; a
// staged pass that finds out mid-stream returns errDenseDelta.
func (c *Checkpointer) writePayload(ctx context.Context, slot int, src Source, counter uint64, dp *deltaPass) (int64, uint32, error) {
	size := src.Size()
	base := payloadBase(c.sb, slot)
	mem, inPlace := src.(bytesSource)
	st := &c.saves[slot]
	st.ctx, st.counter, st.dp = ctx, counter, nil
	if dp != nil {
		encStart := c.obsNow()
		if dp.begin(size); inPlace && dp.filter {
			dp.diffAll(mem.b, coresFor(size))
		} else if inPlace {
			st.dp = dp
		}
		dp.filter = dp.filter && dp.recLen < size
		dp.encNS = c.obsNow() - encStart
	}

	st.persisted.Store(0)
	// SetPerWriterBW applies to checkpoints started after the call: a lane
	// outlives its save unless the rate moved meanwhile. (A finished save has
	// slept its lanes out, so a kept lane paces like a fresh one.)
	rate := math.Float64frombits(c.perWriterBW.Load())
	for w, lane := range st.lanes {
		if lane.Rate() != rate {
			st.lanes[w] = storage.NewThrottle(rate)
		}
	}
	st.fan.start(0, len(st.lanes))

	// A stored length known up front is cut so every lane ends together, on
	// pages, or on granules where the staged diff indexes them from a piece's
	// offset. A delta record keeps one piece per ChunkBytes window: each is
	// compacted while the writers persist the one before.
	chunk := int64(c.pool.ChunkSize())
	lanes, align := len(st.lanes), int64(pageBytes)
	if dp != nil && dp.filter {
		lanes, align = 1, chunk
	} else if st.dp != nil {
		bm := 8 * int64(dp.gran) // writers diff whole bitmap bytes, on pages if they can
		for align = bm; align%pageBytes != 0 && align < chunk; align += bm {
		}
		chunk = (chunk + align - 1) / align * align // a window needs no pooled chunk
	} else if dp != nil && !inPlace {
		align = int64(dp.gran)
	}
	cut := cutPieces(size, chunk, lanes, align)

	var i, queued int64 // pieces cut, bytes handed to the writers
	for off := int64(0); off < size && !st.fan.failed.Load(); i++ {
		// A writer that failed past its retry budget, or a cancelled caller,
		// ends the save at the next piece: more would only burn bandwidth.
		if err := ctx.Err(); err != nil {
			st.fan.fail(err)
			break
		}
		n := cut.start(i+1) - off
		t := task{off: off, i: i}
		if !inPlace || dp != nil && dp.filter {
			// A staged piece lives in a pooled chunk; so do the dirty granules
			// a delta compacts out of a view, whose own memory the engine never
			// writes (the chunk goes straight back when the window is clean).
			waitStart := c.obsNow()
			chunk, err := c.pool.Acquire(ctx)
			if err != nil {
				st.fan.fail(err)
				break
			}
			t.chunk = chunk
			if !inPlace {
				c.span(obs.PhaseChunkWait, waitStart, counter, slot, 0, off)
			}
		}
		if inPlace {
			t.buf = mem.b[off : off+n]
		} else {
			t.buf = t.chunk.Bytes()[:n]
			copyStart := c.obsNow()
			read, err := dp.fill(src, t.buf, off)
			if err != nil {
				c.pool.Release(t.chunk)
				st.fan.fail(err)
				break
			}
			c.span(obs.PhaseCopy, copyStart, counter, slot, int64(read), off)
		}
		if dp != nil && (!inPlace || dp.filter) {
			encStart := c.obsNow()
			if !inPlace {
				dp.recLen += dp.diff(t.buf, off)
			}
			if dp.filter { // the dirty granules land where the record so far ends
				out := t.chunk.Bytes()
				t.off, t.buf = int64(len(dp.head))+queued, out[:dp.compact(t.buf, out, off)]
			}
			dp.encNS += c.obsNow() - encStart
			if dp.filter && dp.recLen >= size {
				st.fan.fail(errDenseDelta)
			}
		}
		off += n
		if len(t.buf) == 0 || st.fan.failed.Load() {
			if t.chunk != nil {
				c.pool.Release(t.chunk) // nothing here is dirty, or the pass is over
			}
			st.fan.done(t.i, 0, 0, nil)
			continue
		}
		st.tasks <- t
		queued += int64(len(t.buf))
	}
	for range st.lanes {
		st.tasks <- task{}
	}
	err := st.fan.wait()
	if st.dp != nil {
		dp.recLen += dp.dirty.Swap(0)
	}
	if err != nil {
		return 0, 0, err
	}
	if got := st.persisted.Load(); got != queued {
		return 0, 0, fmt.Errorf("core: persisted %d of %d bytes", got, queued)
	}
	var crc uint32
	if c.cfg.VerifyPayload {
		crc = st.fan.crc(i)
	}
	stored := size
	if dp != nil && dp.filter {
		head := dp.finish(size)
		if _, err := c.writeRange(ctx, head, base, false); err != nil {
			return 0, 0, err
		}
		if c.cfg.VerifyPayload {
			crc = crc32Combine(crc32.ChecksumIEEE(head), crc, queued)
		}
		stored = dp.recLen
	}

	// SSD path: a single sync covers all writers' pieces (§4.1: "the main
	// thread can call a single msync"). PMEM writers already fenced.
	if c.dev.Kind() != storage.KindPMEM {
		syncStart := c.obsNow()
		if err := c.retryIO(ctx, func() error { return c.dev.Sync(base, stored) }); err != nil {
			return 0, 0, err
		}
		c.span(obs.PhaseSync, syncStart, counter, slot, stored, 0)
	}
	return stored, crc, nil
}

// writeRange writes p at device offset off under the retry policy; on PMEM
// each writer fences its own stores (§4.1). With fold it also returns
// crc32.Update(0, p), taken by the attempt that succeeded: a RAM device folds
// it inside its streaming stores, any other device checksums p first.
func (c *Checkpointer) writeRange(ctx context.Context, p []byte, off int64, fold bool) (crc uint32, err error) {
	err = c.retryIO(ctx, func() (err error) {
		if fold {
			crc, err = storage.WriteAtCRC(c.dev, p, off, 0)
		} else {
			err = c.dev.WriteAt(p, off)
		}
		if err == nil && c.dev.Kind() == storage.KindPMEM {
			err = c.dev.Sync(off, int64(len(p)))
		}
		return err
	})
	return crc, err
}

// persistRecord durably writes the pointer record for meta. Records are
// written in strictly increasing counter order, alternating between the two
// on-device locations; a call whose counter is already superseded by a
// durable record returns immediately (the newer record subsumes it). This is
// the BARRIER(CHECK_ADDR) of Listing 1: when it returns with nil, a pointer
// with counter ≥ meta.counter is durable. Transient device faults are
// retried per the policy; on success, slots parked by earlier record
// failures go free — the newer durable record subsumes any stale reference
// to them.
func (c *Checkpointer) persistRecord(ctx context.Context, meta checkMeta) error {
	c.recordMu.Lock()
	defer c.recordMu.Unlock()
	if meta.counter <= c.recordHighest {
		return nil
	}
	return c.persistRecordLocked(ctx, meta)
}

// forceRecord persists a pointer record even when its counter is already
// durable — the scrubber's repair path repoints an existing counter at a
// freshly rewritten slot. Only a strictly newer durable record makes the
// write unnecessary (it no longer references the repaired checkpoint).
func (c *Checkpointer) forceRecord(ctx context.Context, meta checkMeta) error {
	c.recordMu.Lock()
	defer c.recordMu.Unlock()
	if meta.counter < c.recordHighest {
		return nil
	}
	return c.persistRecordLocked(ctx, meta)
}

// persistRecordLocked is the shared record-write body; recordMu held.
func (c *Checkpointer) persistRecordLocked(ctx context.Context, meta checkMeta) error {
	off := int64(recordAOff)
	if c.recordSeq%2 == 1 {
		off = recordBOff
	}
	buf := meta.putRecord(c.recordBuf[:])
	if err := c.retryIO(ctx, func() error {
		return c.dev.Persist(buf, off)
	}); err != nil {
		return err
	}
	c.recordSeq++
	c.recordHighest = meta.counter
	for i := range c.sb.slots {
		c.slots.move(i, stateParked, stateFree) // the new record names none of them
	}
	// Commit notification: a tiered device ships a checkpoint downward once
	// its pointer record is durable at tier 0 — which is exactly now.
	if c.committer != nil {
		c.committer.CommitCheckpoint(meta.counter)
	}
	return nil
}

// FreeSlots reports how many checkpoint slots are currently free. With no
// checkpoint in flight and none parked it must equal
// TotalSlots()-PinnedSlots() — the slot-conservation invariant the fault
// tests and the bench's -faults mode check after every failure.
func (c *Checkpointer) FreeSlots() int { return c.slots.count(stateFree) }

// TotalSlots reports the device's slot count: N+1, plus K in delta mode.
func (c *Checkpointer) TotalSlots() int { return c.sb.slots }

// PinnedSlots reports how many slots are held: at quiescence the
// keyframe→delta chain in delta mode, the single published slot otherwise
// (0 when nothing has been published).
func (c *Checkpointer) PinnedSlots() int { return c.slots.count(stateHeld) }

// Latest returns the newest published checkpoint's counter and logical
// (reconstructed) size.
func (c *Checkpointer) Latest() (counter uint64, size int64, ok bool) {
	m := c.checkAddr.Load()
	if m == nil {
		return 0, 0, false
	}
	return m.counter, m.logicalSize(), true
}

// ReadLatest copies the newest published checkpoint's payload into dst and
// returns its counter and length. dst must be at least the checkpoint size.
//
// Reads are safe against concurrent checkpointing: the published slot can be
// recycled by newer publications while the read is in flight, so the read
// samples the slot's generation around it and retries with fresh metadata
// when the contents moved under it. In delta mode deltaMu keeps saves out as
// well.
func (c *Checkpointer) ReadLatest(dst []byte) (uint64, int64, error) {
	if c.sb.deltaKeyframe > 0 {
		c.deltaMu.Lock()
		defer c.deltaMu.Unlock()
	}
	for attempt := 0; attempt < 1000; attempt++ {
		m := c.checkAddr.Load()
		if m == nil {
			return 0, 0, ErrNoCheckpoint
		}
		size := m.logicalSize()
		if int64(len(dst)) < size {
			return 0, 0, fmt.Errorf("%w: buffer %d < checkpoint %d", ErrBufferTooSmall, len(dst), size)
		}
		chain := c.chain
		if c.sb.deltaKeyframe == 0 {
			chain = []checkMeta{*m}
		}
		g := c.slots.gen(m.slot)
		err := stream(c.dev, c.sb, chain, dst[:size], nil, 0)
		if !c.slots.stable(m.slot, g) {
			runtime.Gosched()
			continue // recycled before or during the read: m is stale, retry against the newer state
		}
		if err != nil {
			// The generation sample above happens after the checkAddr load,
			// so a full recycle of m's slot in that window leaves it looking
			// stable while the header holds a newer counter. If a
			// newer publication exists, m was simply stale — retry; with no
			// newer publication the mismatch is real on-device damage.
			if errors.Is(err, errSlotRecycled) && c.checkAddr.Load() != m {
				runtime.Gosched()
				continue
			}
			return 0, 0, err
		}
		return m.counter, size, nil
	}
	return 0, 0, fmt.Errorf("core: ReadLatest starved by concurrent checkpoint churn")
}

// ReadVersion reads the checkpoint with the given counter if the slots still
// hold it (see RecoverVersion). The slot generations sampled around it reject
// reads torn by a concurrent checkpoint recycling a slot; in delta mode
// deltaMu keeps it out.
func (c *Checkpointer) ReadVersion(counter uint64) ([]byte, error) {
	if c.sb.deltaKeyframe > 0 {
		c.deltaMu.Lock()
		defer c.deltaMu.Unlock()
	}
	gens := make([]uint64, c.sb.slots)
	for attempt := 0; attempt < 1000; attempt++ {
		for i := range gens {
			gens[i] = c.slots.gen(i)
		}
		payload, chain, err := loadVersion(c.dev, c.sb, counter)
		if err != nil {
			return nil, err
		}
		if !slices.ContainsFunc(chain, func(m checkMeta) bool { return !c.slots.stable(m.slot, gens[m.slot]) }) {
			return payload, nil
		}
		runtime.Gosched()
	}
	return nil, fmt.Errorf("core: ReadVersion starved by concurrent checkpoint churn")
}
