// Package pccheck is a concurrent checkpointing library for iterative
// workloads such as ML training, reproducing the system described in
// "PCcheck: Persistent Concurrent Checkpointing for ML" (ASPLOS'25).
//
// Unlike conventional checkpointers that admit one checkpoint at a time and
// stall the workload whenever a new checkpoint is due before the previous
// one has persisted, PCcheck keeps up to N checkpoints in flight
// concurrently. Each checkpoint streams through a bounded pool of DRAM
// staging chunks and is persisted by p parallel writers; a lock-free
// pointer protocol guarantees that a crash at any instant leaves the newest
// fully persisted checkpoint recoverable.
//
// # Quick start
//
//	ck, err := pccheck.Create("ckpt.pcc", pccheck.Config{
//		MaxBytes:   int64(len(state)),
//		Concurrent: 2,
//		Writers:    3,
//	})
//	...
//	for iter := 0; ; iter++ {
//		trainStep()
//		if iter%10 == 0 {
//			go ck.Save(ctx, snapshotBytes()) // training does not wait
//		}
//	}
//
// After a crash:
//
//	state, counter, err := pccheck.RecoverFile("ckpt.pcc")
//
// See examples/ for complete programs, including crash/resume of a real
// training loop, spot-instance trace replay, and multi-worker coordination.
package pccheck

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/pmem"
	"pccheck/internal/storage"
)

// Errors surfaced by the library.
var (
	// ErrNoCheckpoint means the target holds no fully persisted checkpoint.
	ErrNoCheckpoint = core.ErrNoCheckpoint
	// ErrTooLarge means a payload exceeds Config.MaxBytes.
	ErrTooLarge = core.ErrTooLarge
	// ErrNotFormatted means the target is not a PCcheck checkpoint file.
	ErrNotFormatted = core.ErrNotFormatted
	// ErrClosed means the Checkpointer has been closed.
	ErrClosed = core.ErrClosed
)

// Config tunes the checkpointer. MaxBytes is required; everything else has
// serviceable defaults. Tune (or the pccheck-tune command) derives a
// configuration from measurements per §3.4 of the paper.
type Config struct {
	// MaxBytes is the maximum checkpoint payload size m. The checkpoint
	// file occupies about (Concurrent+1+Delta.Keyframe)·MaxBytes on disk.
	MaxBytes int64
	// Concurrent is N, how many checkpoints may be in flight at once.
	// Default 2.
	Concurrent int
	// Writers is p, parallel persist goroutines per checkpoint. Default 3.
	Writers int
	// ChunkBytes is b, the size of the pieces a payload is persisted in (and
	// of the DRAM chunks SaveFrom stages through); 0 disables pipelining
	// (one piece per checkpoint).
	ChunkBytes int
	// DRAMBudget is M, the DRAM the engine itself stages in (SaveFrom, and a
	// delta Save's dirty granules); 0 defaults to 2·MaxBytes. A payload
	// handed to Save is not staged and does not count against it.
	DRAMBudget int64
	// Verify stores a CRC32 of each payload in its slot header, checked on
	// load. Its cost is on saves, where each writer checksums what it
	// persists; reads fold a CRC either way, so off saves nothing there.
	// Without it Recover and the scrubber cannot detect a flipped payload
	// bit: set it whenever the device may corrupt data silently.
	Verify bool
	// PerWriterBW throttles each writer goroutine (bytes/sec; 0 = unpaced).
	// Used to emulate per-thread device limits in experiments.
	PerWriterBW float64
	// Retry governs how transient device faults (classified
	// storage.ClassTransient — interrupted syscalls, throttle spikes,
	// injected transient faults) are retried on the persist path. The
	// zero value enables the default policy of 3 attempts; set
	// RetryPolicy{MaxAttempts: 1} to fail on the first fault.
	Retry RetryPolicy
	// Delta enables incremental checkpointing: only the chunks that changed
	// since the previous checkpoint are persisted, with a full keyframe
	// every Delta.Keyframe saves bounding recovery depth. Leave zero for
	// full checkpoints. See the "Delta checkpoints" section of the README.
	Delta DeltaConfig
	// Observer, when non-nil, receives a structured event for every phase
	// of every Save — slot wait, staging copies, per-writer persists, the
	// pointer-record barrier, publish/obsolete outcomes, retries. Attach a
	// *Recorder (NewFlightRecorder) to get bounded in-memory tracing,
	// latency histograms, and the /metrics endpoint, or chain a *Ledger
	// (NewLedger) in front of it for goodput/SLO accounting — Loop and
	// AdaptiveLoop detect a Ledger here and feed it iteration timings.
	// See the Observability section of the README. A nil Observer costs
	// one predictable branch per probe and zero allocations —
	// observability off is free.
	Observer Observer
	// BlackBox, when enabled (Bytes > 0), reserves a black-box telemetry
	// region in the checkpoint file and starts a background flusher that
	// periodically persists the flight-ring tail (policy decisions
	// included) and the goodput report into torn-write-tolerant frames. After a
	// crash, PostMortemFile (or pccheck-inspect -post-mortem) reads back
	// what the process was doing. Requires a Recorder somewhere in the
	// Observer chain; it never touches the Emit hot path. See the
	// "Post-mortem forensics" section of docs/OBSERVABILITY.md.
	BlackBox BlackBoxConfig
	// Scrub tunes the background integrity scrubber. With Interval > 0 a
	// background goroutine periodically re-reads every committed checkpoint
	// slot, the pointer records, the superblock, the black-box header and
	// each replica tier, verifies every checksum, and repairs what it can
	// from the newest healthy copy (quarantining what it cannot). Leave
	// zero to scrub only on demand via ScrubNow. See the "Scrubbing &
	// self-healing" section of docs/CRASH_CONSISTENCY.md.
	Scrub ScrubConfig
}

// ScrubConfig tunes the background integrity scrubber (Config.Scrub).
type ScrubConfig = core.ScrubConfig

// ScrubStatus is a snapshot of cumulative scrubber activity, returned by
// Checkpointer.ScrubStatus.
type ScrubStatus = core.ScrubStatus

// ScrubRecord is one detect/repair finding in ScrubStatus.Findings.
type ScrubRecord = core.ScrubRecord

// DeltaConfig tunes incremental (delta) checkpointing. With either field
// set, Save diffs each payload against the previous checkpoint at chunk
// granularity and persists only the changed chunks; every Keyframe-th save
// is a full checkpoint, so recovery reads one keyframe plus at most
// Keyframe delta records. The checkpoint file grows by Keyframe extra
// slots to pin the chain.
type DeltaConfig struct {
	// Every selects which saves may be deltas: a save is a delta candidate
	// when its sequence number is a multiple of Every (1 or 0 = every
	// save). Setting Every alone defaults Keyframe to 8.
	Every int
	// Keyframe is K, the maximum delta-chain length before a forced full
	// checkpoint. Setting Keyframe alone defaults Every to 1.
	Keyframe int
}

// RetryPolicy bounds transient-fault retries per persist-path I/O
// operation: exponential backoff with jitter between attempts, permanent
// and corrupt errors always fail fast. See the "Failure semantics" section
// of the README.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per I/O, including the
	// first. 0 selects the default (3); 1 disables retry.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 1ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 100ms).
	MaxBackoff time.Duration
	// Multiplier grows the backoff between attempts (default 2).
	Multiplier float64
	// Jitter randomizes each backoff by ±Jitter fraction (default 0.2;
	// negative disables jitter).
	Jitter float64
}

func (c Config) withDefaults() Config {
	if c.Concurrent <= 0 {
		c.Concurrent = 2
	}
	if c.Writers <= 0 {
		c.Writers = 3
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = 3
	}
	return c
}

func (c Config) engineConfig() core.Config {
	return core.Config{
		Concurrent:    c.Concurrent,
		SlotBytes:     c.MaxBytes,
		Writers:       c.Writers,
		ChunkBytes:    c.ChunkBytes,
		DRAMBudget:    c.DRAMBudget,
		VerifyPayload: c.Verify,
		PerWriterBW:   c.PerWriterBW,
		DeltaEvery:    c.Delta.Every,
		DeltaKeyframe: c.Delta.Keyframe,
		Retry: core.RetryPolicy{
			MaxAttempts: c.Retry.MaxAttempts,
			BaseBackoff: c.Retry.BaseBackoff,
			MaxBackoff:  c.Retry.MaxBackoff,
			Multiplier:  c.Retry.Multiplier,
			Jitter:      c.Retry.Jitter,
		},
		Observer: c.Observer,
		BlackBox: c.BlackBox,
		Scrub:    c.Scrub,
	}
}

// Stats reports cumulative checkpointer activity.
type Stats struct {
	// Published counts checkpoints that became the latest durable state.
	Published int64
	// Obsolete counts checkpoints completed but superseded by a newer
	// concurrent checkpoint before publishing — their work still made the
	// system strictly safer in the interim.
	Obsolete int64
	// BytesWritten is the total logical payload volume checkpointed;
	// BytesPersisted is what actually hit the device. They are equal for
	// full checkpoints; with delta mode on, Persisted/Written is the
	// bytes-per-save reduction the deltas bought.
	BytesWritten   int64
	BytesPersisted int64
	// DeltaSaves and KeyframeSaves split published checkpoints by kind in
	// delta mode (both zero otherwise).
	DeltaSaves    int64
	KeyframeSaves int64
	// PersistTime is the cumulative wall time spent inside Save.
	PersistTime time.Duration
	// SlotWaits counts Saves that had to wait for a free slot — a signal
	// that Concurrent is too small for the checkpoint cadence.
	SlotWaits int64
	// Retries counts persist-path I/O retries taken after transient
	// device faults — each one is a fault the retry policy absorbed
	// without failing the Save.
	Retries int64
	// CASRetries counts publish CAS attempts retried against older
	// registered values — harmless contention on the in-memory pointer,
	// distinct from the I/O Retries above.
	CASRetries int64
	// TransientFaults counts transient device faults observed on the
	// persist path (absorbed or not). TransientFaults > Retries means
	// some Saves exhausted their attempt budget.
	TransientFaults int64
	// FailedSaves counts Saves that returned an error after starting —
	// the rollback-window widenings an operator should alert on.
	FailedSaves int64
}

// Checkpointer persists checkpoints onto a single device. All methods are
// safe for concurrent use.
type Checkpointer struct {
	engine *core.Checkpointer
	dev    storage.Device
	ownDev bool
}

// Create formats path as a new checkpoint file sized for cfg and returns a
// ready Checkpointer. Existing contents are destroyed.
func Create(path string, cfg Config) (*Checkpointer, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("pccheck: Config.MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	dev, err := storage.OpenSSD(path, core.DeviceBytesFor(cfg.engineConfig()))
	if err != nil {
		return nil, err
	}
	engine, err := core.New(dev, cfg.engineConfig())
	if err != nil {
		dev.Close()
		return nil, err
	}
	return &Checkpointer{engine: engine, dev: dev, ownDev: true}, nil
}

// Open attaches to an existing checkpoint file, recovering the latest
// persisted checkpoint pointer. Geometry (MaxBytes, Concurrent) comes from
// the file; cfg supplies the runtime knobs (Writers, ChunkBytes, …).
func Open(path string, cfg Config) (*Checkpointer, error) {
	dev, err := storage.ReopenSSD(path)
	if err != nil {
		return nil, err
	}
	engine, err := core.Open(dev, cfg.withDefaults().engineConfig())
	if err != nil {
		dev.Close()
		return nil, err
	}
	return &Checkpointer{engine: engine, dev: dev, ownDev: true}, nil
}

// CreateVolatile builds a Checkpointer over emulated persistent memory —
// useful for tests, experiments and the examples in this repository. The
// returned Memory handle can inject crashes and fork post-crash replicas.
func CreateVolatile(cfg Config) (*Checkpointer, *Memory, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxBytes <= 0 {
		return nil, nil, fmt.Errorf("pccheck: Config.MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	region := pmem.NewRegion(int(core.DeviceBytesFor(cfg.engineConfig())))
	dev := storage.NewPMEM(region)
	engine, err := core.New(dev, cfg.engineConfig())
	if err != nil {
		return nil, nil, err
	}
	return &Checkpointer{engine: engine, dev: dev}, &Memory{region: region}, nil
}

// Save persists payload as a new checkpoint and returns its counter. Save
// blocks until the checkpoint is durable (or durably superseded by a newer
// concurrent checkpoint); run it in a goroutine to overlap with the
// workload — up to Config.Concurrent Saves proceed in parallel, additional
// ones wait for a slot. The payload is persisted from where it lies: the
// writers read it in place, nothing copies it first and nothing ever writes
// it. It must not be mutated until Save returns; reading it is fine.
func (c *Checkpointer) Save(ctx context.Context, payload []byte) (uint64, error) {
	return c.engine.Checkpoint(ctx, core.BytesSource(payload))
}

// SaveFrom persists a checkpoint pulled from memory the engine cannot
// address (e.g. accelerator memory): the staged path, which reads the payload
// piece by piece into Config.DRAMBudget's chunks, overlapping the read of one
// piece with the persist of the one before. For a payload already in host
// memory use Save, which needs no staging. size is the payload length; read
// fills p with payload bytes starting at off and must support concurrent
// calls on disjoint ranges.
func (c *Checkpointer) SaveFrom(ctx context.Context, size int64, read func(p []byte, off int64) error) (uint64, error) {
	return c.engine.Checkpoint(ctx, funcSource{size: size, read: read})
}

type funcSource struct {
	size int64
	read func(p []byte, off int64) error
}

func (s funcSource) Size() int64                        { return s.size }
func (s funcSource) ReadInto(p []byte, off int64) error { return s.read(p, off) }

// Latest returns the newest published checkpoint's counter and size.
func (c *Checkpointer) Latest() (counter uint64, size int64, ok bool) {
	return c.engine.Latest()
}

// LoadLatest returns a copy of the newest published checkpoint.
//
// Sizing the buffer from Latest() and then reading is inherently racy — a
// larger checkpoint can publish in between — so a too-small read retries
// with a buffer re-sized from the fresh metadata instead of surfacing the
// transient mismatch to the caller.
func (c *Checkpointer) LoadLatest() ([]byte, uint64, error) {
	for attempt := 0; ; attempt++ {
		_, size, ok := c.engine.Latest()
		if !ok {
			return nil, 0, ErrNoCheckpoint
		}
		buf := make([]byte, size)
		counter, n, err := c.engine.ReadLatest(buf)
		if err != nil {
			if errors.Is(err, core.ErrBufferTooSmall) && attempt < 100 {
				continue // a bigger checkpoint published mid-load; re-size
			}
			return nil, 0, err
		}
		return buf[:n], counter, nil
	}
}

// DirtyTracker is the trainer-facing dirty-range feed for delta mode; see
// its methods for the coherence contract.
type DirtyTracker = core.DirtyTracker

// DirtyTracker returns the dirty-range tracker when delta mode is on, nil
// otherwise. Feeding it the exact byte ranges mutated between Saves lets
// the engine skip content hashing; an unfed tracker is always safe — the
// engine falls back to hashing each payload chunk.
func (c *Checkpointer) DirtyTracker() *DirtyTracker {
	return c.engine.DirtyTracker()
}

// SetWriterBandwidth changes the per-writer pacing rate at runtime
// (bytes/sec; 0 unpaces). Experiments use it to model device contention;
// production deployments normally leave writes unpaced and let the device
// arbitrate.
func (c *Checkpointer) SetWriterBandwidth(bytesPerSec float64) {
	c.engine.SetPerWriterBW(bytesPerSec)
}

// LoadVersion returns the checkpoint saved under counter, if one of the
// (Concurrent+1) retained slots still holds it intact. Only the *latest*
// checkpoint is guaranteed to be retained; older ones are best-effort
// (ErrNoCheckpoint when already overwritten).
func (c *Checkpointer) LoadVersion(counter uint64) ([]byte, error) {
	return c.engine.ReadVersion(counter)
}

// Stats returns cumulative activity counters.
func (c *Checkpointer) Stats() Stats {
	s := c.engine.Stats()
	return Stats{
		Published:       s.Checkpoints,
		Obsolete:        s.Obsolete,
		BytesWritten:    s.BytesWritten,
		BytesPersisted:  s.BytesPersisted,
		DeltaSaves:      s.DeltaSaves,
		KeyframeSaves:   s.KeyframeSaves,
		PersistTime:     s.Persist,
		SlotWaits:       s.SlotWaits,
		Retries:         s.IORetries,
		CASRetries:      s.CASRetries,
		TransientFaults: s.TransientFaults,
		FailedSaves:     s.FailedSaves,
	}
}

// ScrubNow runs one synchronous integrity sweep over everything committed —
// slots, pointer records, superblock, black-box header, replica tiers —
// independent of the background cadence. It returns how many corruptions
// were found and how many of those were healed (repaired in place,
// re-replicated from a healthy tier, or quarantined so they can never be
// served); found > healed means latent damage survived the sweep and
// ScrubStatus().Unrepaired says where.
func (c *Checkpointer) ScrubNow() (found, healed int, err error) {
	return c.engine.ScrubNow()
}

// ScrubStatus returns cumulative scrubber activity: sweeps completed, bytes
// verified, corruptions found, and how each one was resolved, with a bounded
// audit trail of the most recent findings.
func (c *Checkpointer) ScrubStatus() ScrubStatus {
	return c.engine.ScrubStatus()
}

// Close stops the checkpointer. In-flight Saves finish first.
func (c *Checkpointer) Close() error {
	err := c.engine.Close()
	if c.ownDev {
		if cerr := c.dev.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RecoverFile loads the latest fully persisted checkpoint from a checkpoint
// file without constructing a Checkpointer — the restart path.
func RecoverFile(path string) (payload []byte, counter uint64, err error) {
	dev, err := storage.ReopenSSD(path)
	if err != nil {
		return nil, 0, err
	}
	defer dev.Close()
	return core.Recover(dev)
}

// TierStatus is one tier's durability standing (see Checkpointer.TierStatus).
type TierStatus = storage.TierStatus

// CreateTiered builds a Checkpointer over an N-level durability hierarchy
// composed from levels, fastest first — e.g. a DRAM device in front of an
// SSD in front of a remote store. Saves complete at tier 0 (so persist
// latency is tier 0's); a background drainer replicates committed
// checkpoints into the lower levels with bounded staleness, and recovery
// prefers the newest reachable tier. The Checkpointer owns the levels.
func CreateTiered(cfg Config, levels ...storage.Device) (*Checkpointer, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("pccheck: Config.MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	tiered, err := storage.NewTiered(levels, storage.WithTierObserver(cfg.Observer))
	if err != nil {
		return nil, err
	}
	engine, err := core.New(tiered, cfg.engineConfig())
	if err != nil {
		tiered.Close()
		return nil, err
	}
	return &Checkpointer{engine: engine, dev: tiered, ownDev: true}, nil
}

// CreateTieredFiles is the file-backed convenience over CreateTiered:
// primary and every replica path are formatted as checkpoint files of
// identical geometry and composed into tiers in argument order. Losing the
// primary later costs at most the drain lag: RecoverAny over the replica
// paths restores the newest checkpoint the drainer acknowledged there.
func CreateTieredFiles(cfg Config, primary string, replicas ...string) (*Checkpointer, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("pccheck: Config.MaxBytes must be positive, got %d", cfg.MaxBytes)
	}
	size := core.DeviceBytesFor(cfg.engineConfig())
	var levels []storage.Device
	for _, path := range append([]string{primary}, replicas...) {
		dev, err := storage.OpenSSD(path, size)
		if err != nil {
			for _, l := range levels {
				l.Close()
			}
			return nil, err
		}
		levels = append(levels, dev)
	}
	return CreateTiered(cfg, levels...)
}

// TierStatus reports per-tier durability standing — which checkpoint
// counter each tier would recover to if everything above it were lost, and
// the drainer's per-tier accounting. It returns nil for a non-tiered
// Checkpointer.
func (c *Checkpointer) TierStatus() []TierStatus {
	if tiered, ok := c.dev.(*storage.Tiered); ok {
		return tiered.Status()
	}
	return nil
}

// WaitDrained blocks until every tier has caught up with tier 0 (or the
// timeout passes), reporting whether they converged. On a non-tiered
// Checkpointer it returns true immediately. Call it before an orderly
// teardown when the replicas must hold the final state.
func (c *Checkpointer) WaitDrained(timeout time.Duration) bool {
	if tiered, ok := c.dev.(*storage.Tiered); ok {
		return tiered.WaitDrained(timeout)
	}
	return true
}

// RecoverAny loads the newest recoverable checkpoint across a set of
// checkpoint files — the restart path when some tiers may be truncated,
// corrupt, or missing entirely. Files that cannot be opened or hold no
// intact checkpoint are skipped; the highest checkpoint counter across the
// remaining tiers wins. Only if no path yields a checkpoint does it return
// an error (the first open failure, or ErrNoCheckpoint).
func RecoverAny(paths ...string) (payload []byte, counter uint64, err error) {
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("pccheck: RecoverAny needs at least one path")
	}
	var (
		devs     []storage.Device
		firstErr error
	)
	for _, path := range paths {
		dev, oerr := storage.ReopenSSD(path)
		if oerr != nil {
			if firstErr == nil {
				firstErr = oerr
			}
			continue
		}
		defer dev.Close()
		devs = append(devs, dev)
	}
	payload, counter, err = core.RecoverTiered(devs...)
	if err != nil && len(devs) == 0 && firstErr != nil {
		return nil, 0, firstErr
	}
	return payload, counter, err
}

// Memory is the crash-injection handle of a CreateVolatile checkpointer.
type Memory struct {
	region *pmem.Region
}

// Crash drops everything that was not durably persisted, emulating a power
// failure with the most adversarial timing.
func (m *Memory) Crash() { m.region.Crash(pmem.DropAll) }

// ForkCrashed returns the payload and counter that recovery would find if
// the machine crashed right now, without disturbing the live checkpointer.
func (m *Memory) ForkCrashed() ([]byte, uint64, error) {
	return core.Recover(storage.NewPMEM(m.region.CloneDurable()))
}

// IsNoCheckpoint reports whether err indicates an empty checkpoint target.
func IsNoCheckpoint(err error) bool { return errors.Is(err, ErrNoCheckpoint) }

// IsTransient reports whether err is a transient device fault — one the
// retry policy would absorb, worth retrying at the Save granularity too.
func IsTransient(err error) bool { return storage.IsTransient(err) }

// IsCorrupt reports whether err is an integrity failure: the device returned
// bytes that fail their checksum. Corrupt checkpoints are never retried and
// never recovered from; recovery falls back to an older intact checkpoint.
func IsCorrupt(err error) bool { return storage.IsCorrupt(err) }
