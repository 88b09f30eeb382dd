// Package obs is PCcheck's observability layer: a checkpoint flight
// recorder with per-phase latency histograms and export surfaces (Chrome
// trace-event JSON for Perfetto, Prometheus text, expvar).
//
// The paper's argument (§3.3, §5.2) is about *where time goes* inside a
// checkpoint — snapshot stall vs. chunk copy vs. parallel persist vs. the
// publish barrier — so the engine emits one structured Event per phase of
// every save: slot wait/acquire, per-chunk staging copy, per-writer persist
// span, the pointer-record barrier, retry/backoff, and the CAS publish (or
// its obsolete outcome). Events flow through the Observer interface; the
// Recorder implementation captures them into a bounded lock-free ring
// buffer and folds span durations into allocation-free histograms.
//
// The hot path is built to cost nothing when observability is off: engine
// probes are a single nil-interface check, Event is a flat value struct
// (no pointers, no heap), and Recorder.Emit performs only atomic
// operations — zero allocations per event, safe for any number of
// concurrent emitters.
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies which part of the checkpoint lifecycle an Event
// describes. Span phases carry a duration; instant phases mark a point in
// time. docs/OBSERVABILITY.md maps each phase to the paper section it
// instruments.
type Phase uint8

const (
	// PhaseSave spans one Save end to end: counter taken → durably
	// published (or durably superseded).
	PhaseSave Phase = iota
	// PhaseSlotWait spans the free-slot acquisition (Listing 1's deq
	// loop). Emitted for every save; Value is 1 when the save actually
	// had to wait, 0 when a slot was immediately available.
	PhaseSlotWait
	// PhaseCopy spans one chunk's staging copy, source → DRAM chunk (the
	// paper's GPU→DRAM step ③). Bytes is the chunk length, Value the
	// payload offset. Staged sources only: a payload already in host
	// memory is persisted where it lies and is never copied.
	PhaseCopy
	// PhaseChunkWait spans the producer's wait for a free DRAM chunk —
	// the "checkpoint waits for free chunks" condition of §3.2. Staged
	// sources only, like PhaseCopy.
	PhaseChunkWait
	// PhasePersist spans one writer goroutine persisting one chunk to the
	// device. Writer is the writer index, Bytes the chunk length, Value
	// the payload offset.
	PhasePersist
	// PhaseSync spans the single whole-payload sync on the SSD path
	// (§4.1: "the main thread can call a single msync").
	PhaseSync
	// PhaseHeader spans the slot-header persist that precedes publication.
	PhaseHeader
	// PhaseBarrier spans the pointer-record persist — BARRIER(CHECK_ADDR)
	// of Listing 1.
	PhaseBarrier
	// PhasePublish marks a checkpoint winning the CAS and becoming the
	// latest durable state (instant).
	PhasePublish
	// PhaseObsolete marks a checkpoint completed but superseded by a newer
	// concurrent checkpoint before publishing (instant).
	PhaseObsolete
	// PhaseCASRetry marks a publish CAS retried against an older
	// registered value (instant).
	PhaseCASRetry
	// PhaseIORetry marks a persist-path I/O retry after a transient
	// device fault; Dur is the backoff slept before the retry, Attempt
	// the 1-based attempt that failed.
	PhaseIORetry
	// PhaseFault marks a transient device fault observed on the persist
	// path (instant), whether or not the retry budget absorbed it.
	PhaseFault
	// PhaseFaultInjected marks a fault fired by a storage.FaultDevice
	// (instant); Value is the storage.Op code.
	PhaseFaultInjected
	// PhaseSnapshot spans the workload-side state capture in
	// Loop/AdaptiveLoop — the only part of a tick that stalls training.
	PhaseSnapshot
	// PhaseRetune marks an AdaptiveLoop interval re-derivation (instant);
	// Value is the new interval.
	PhaseRetune
	// PhaseAgree spans a distributed coordination round: local publish →
	// group agreement (the per-rank publish lag). Rank is the worker
	// rank, Counter the agreed ID, Value the locally reported ID.
	PhaseAgree
	// PhaseSaveFailed marks a Save that returned an error after starting
	// (instant) — the rollback-window widening an operator alerts on.
	PhaseSaveFailed
	// PhaseAgreeGate is rank 0's per-round straggler record: emitted once
	// per completed coordination round, Rank is the rank that gated the
	// round (oldest reported ID, or last report to arrive on a tie), Dur
	// the spread between the first and last report arrival, Value the ID
	// gap between the freshest and oldest report, Counter the agreed ID.
	PhaseAgreeGate
	// PhaseRankDead marks rank 0 declaring a worker dead (instant): no
	// heartbeat, conn loss, or a commit-deadline expiry. Rank is the dead
	// worker, Value the detection cause (see dist.DeadCause*).
	PhaseRankDead
	// PhaseRankRejoined marks a previously dead worker re-attaching to the
	// group (instant); Rank is the worker, Counter the consistent ID it
	// was resynced to.
	PhaseRankRejoined
	// PhaseFrameDropped marks a coordination frame discarded by protocol
	// validation — out-of-range rank, stale or duplicated round, unknown
	// kind (instant). Rank is the claimed sender, Value the reason code.
	PhaseFrameDropped
	// PhaseDeltaEncode is emitted once per save stored as a delta. An
	// in-memory payload is diffed up front (on p cores), a staged one piece
	// by piece, and both are compacted piece by piece, so Dur is the summed
	// diff + compact wall time, not a contiguous interval. Bytes is the
	// record length, Value the logical payload size — their ratio is this
	// save's delta ratio.
	PhaseDeltaEncode
	// PhaseKeyframe marks a delta-mode save published as a full keyframe
	// (instant); Bytes is the payload size. Plain-mode saves never emit it.
	PhaseKeyframe
	// PhaseDecision marks a recorded policy decision (instant): Counter is
	// the decision sequence number and Value its kind, both resolving into
	// the decision recorder's structured log (internal/obs/decision).
	PhaseDecision
	// PhaseTierDrain spans one ship of a storage.Tiered device: the drainer
	// copying the front's newest committed checkpoint into a lower tier,
	// pointer record last. Slot is the tier index, Counter the checkpoint
	// counter now durable at that tier, Bytes the bytes written to it.
	PhaseTierDrain
	// PhaseTierError marks a ship aborted by a tier fault (instant):
	// Slot is the tier index, Attempt the 1-based attempt that exhausted the
	// retry budget, Value the storage error class.
	PhaseTierError
	// PhaseTierResync marks a completed tier resync (instant): a ship that
	// did not take the tier's word for what it held — it verified the tier's
	// newest chain and formatted the tier if that did not hold up. Slot is
	// the tier index, Bytes the bytes written.
	PhaseTierResync
	// PhaseCrashMark marks the crash boundary in a merged forensic timeline
	// (instant): pccheck-trace emits one between the last pre-crash black-box
	// event and the first post-recovery event. The engine never emits it.
	PhaseCrashMark
	// PhaseScrub spans one integrity-scrub sweep over the committed state:
	// slot headers, payload/delta CRCs, pointer records, the black-box
	// region, and per-tier copies. Bytes is the volume verified, Value the
	// number of corruptions found this sweep.
	PhaseScrub
	// PhaseScrubCorrupt marks one corruption found by the scrubber
	// (instant): Slot is the damaged slot (-1 for a record or the black-box
	// region), Counter the checkpoint involved when known, Value the tier
	// index holding the bad copy (-1 for tier 0 / single-device).
	PhaseScrubCorrupt
	// PhaseScrubRepair spans one repair: the corrupt copy rewritten from the
	// newest healthy source. Slot/Counter/Value mirror the PhaseScrubCorrupt
	// that triggered it; Bytes is the volume rewritten.
	PhaseScrubRepair
	// PhaseQuarantine marks a slot tombstoned because no healthy source
	// could repair it (instant): recovery skips it from now on. Slot is the
	// quarantined slot, Counter its header counter.
	PhaseQuarantine
	// PhaseTierFailover spans a write-path failover on a storage.Tiered
	// device: tier Value exhausted its retry budget with permanent errors,
	// so persists re-routed to tier Slot after the front's image was copied
	// into it, taking Dur. Bytes is the volume copied.
	PhaseTierFailover

	// PhaseCount is the number of defined phases.
	PhaseCount
)

var phaseNames = [PhaseCount]string{
	"save", "slot-wait", "copy", "chunk-wait", "persist", "sync",
	"header", "barrier", "publish", "obsolete", "cas-retry", "io-retry",
	"fault", "fault-injected", "snapshot", "retune", "agree",
	"save-failed", "agree-gate", "rank-dead", "rank-rejoined",
	"frame-dropped", "delta-encode", "keyframe", "decision",
	"tier-drain", "tier-error", "tier-resync", "crash-mark",
	"scrub", "scrub-corrupt", "scrub-repair", "quarantine",
	"tier-failover",
}

// String returns the phase's canonical hyphenated name.
func (p Phase) String() string {
	if p < PhaseCount {
		return phaseNames[p]
	}
	return "phase?"
}

// IsSpan reports whether events of this phase carry a meaningful duration.
func (p Phase) IsSpan() bool {
	switch p {
	case PhaseSave, PhaseSlotWait, PhaseCopy, PhaseChunkWait, PhasePersist,
		PhaseSync, PhaseHeader, PhaseBarrier, PhaseSnapshot, PhaseAgree,
		PhaseIORetry, PhaseAgreeGate, PhaseDeltaEncode, PhaseTierDrain,
		PhaseScrub, PhaseScrubRepair, PhaseTierFailover:
		return true
	}
	return false
}

// Event is one checkpoint lifecycle record. It is a flat value struct —
// no pointers — so emitting one never allocates and storing one into the
// ring is a plain copy. Field meaning varies slightly by Phase (see the
// Phase constants); unused fields are zero.
type Event struct {
	// TS is the event (or span start) time, nanoseconds since the Unix
	// epoch.
	TS int64
	// Dur is the span duration in nanoseconds; 0 for instants.
	Dur int64
	// Counter is the checkpoint's global order, when known.
	Counter uint64
	// Bytes is the payload volume the event covers, when applicable.
	Bytes int64
	// Value is a phase-specific argument (offset, interval, op code…).
	Value int64
	// Phase identifies the lifecycle phase.
	Phase Phase
	// Slot is the checkpoint slot involved (-1 when unknown).
	Slot int32
	// Writer is the writer-goroutine index for PhasePersist (-1 otherwise).
	Writer int32
	// Rank is the distributed worker rank (-1 for local events).
	Rank int32
	// Attempt is the 1-based I/O attempt for retry/fault events.
	Attempt int32
}

// Observer receives checkpoint lifecycle events. Implementations must be
// safe for concurrent use and should not block: Emit is called from the
// engine's hot path (writer goroutines, the publish CAS loop). Recorder is
// the packaged implementation; custom observers can forward to tracing
// systems of their own.
type Observer interface {
	Emit(Event)
}

// Recorder is the packaged Observer: a bounded lock-free flight recorder
// plus per-phase latency histograms and cumulative counters. All methods
// are safe for concurrent use. The zero Recorder is not usable; call
// NewRecorder.
type Recorder struct {
	ring  *ring
	hists [PhaseCount]Histogram

	published   atomic.Uint64
	obsolete    atomic.Uint64
	failedSaves atomic.Uint64
	casRetry    atomic.Uint64
	ioRetry     atomic.Uint64
	faults      atomic.Uint64
	injected    atomic.Uint64
	slotWaits   atomic.Uint64
	rankDeaths  atomic.Uint64
	rankRejoins atomic.Uint64
	badFrames   atomic.Uint64
	// bytes counts logical checkpoint bytes published; bytesPersisted what
	// actually hit the device (smaller when saves are delta-encoded).
	bytes          atomic.Int64
	bytesPersisted atomic.Int64
	deltaSaves     atomic.Uint64
	keyframes      atomic.Uint64

	scrubSweeps   atomic.Uint64
	scrubBytes    atomic.Int64
	scrubCorrupt  atomic.Uint64
	repairs       atomic.Uint64
	quarantines   atomic.Uint64
	tierFailovers atomic.Uint64
}

// DefaultCapacity is the ring capacity used when NewRecorder is given 0.
const DefaultCapacity = 1 << 14

// NewRecorder builds a Recorder whose ring retains the most recent
// capacity events (rounded up to a power of two; 0 selects
// DefaultCapacity). When the ring is full the oldest events are dropped
// and counted, flight-recorder style.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{ring: newRing(capacity)}
}

// Emit implements Observer: the event lands in the ring, span durations
// fold into the phase's histogram, and the phase's counter advances.
// Emit performs no allocations and takes no locks. A nil *Recorder
// discards the event, so a typed-nil Recorder stored in an Observer
// interface is inert rather than a panic.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	r.ring.put(ev)
	if ev.Phase < PhaseCount && ev.Phase.IsSpan() {
		r.hists[ev.Phase].Observe(ev.Dur)
	}
	switch ev.Phase {
	case PhasePublish:
		r.published.Add(1)
		// Bytes is what was persisted; Value, when set, is the logical
		// payload size (they differ exactly when the save was a delta).
		logical := ev.Value
		if logical <= 0 {
			logical = ev.Bytes
		}
		r.bytes.Add(logical)
		r.bytesPersisted.Add(ev.Bytes)
		if ev.Value > 0 && ev.Bytes != ev.Value {
			r.deltaSaves.Add(1)
		}
	case PhaseKeyframe:
		r.keyframes.Add(1)
	case PhaseObsolete:
		r.obsolete.Add(1)
	case PhaseSaveFailed:
		r.failedSaves.Add(1)
	case PhaseCASRetry:
		r.casRetry.Add(1)
	case PhaseIORetry:
		r.ioRetry.Add(1)
	case PhaseFault:
		r.faults.Add(1)
	case PhaseFaultInjected:
		r.injected.Add(1)
	case PhaseRankDead:
		r.rankDeaths.Add(1)
	case PhaseRankRejoined:
		r.rankRejoins.Add(1)
	case PhaseFrameDropped:
		r.badFrames.Add(1)
	case PhaseScrub:
		r.scrubSweeps.Add(1)
		r.scrubBytes.Add(ev.Bytes)
	case PhaseScrubCorrupt:
		r.scrubCorrupt.Add(1)
	case PhaseScrubRepair:
		r.repairs.Add(1)
	case PhaseQuarantine:
		r.quarantines.Add(1)
	case PhaseTierFailover:
		r.tierFailovers.Add(1)
	case PhaseSlotWait:
		if ev.Value != 0 {
			r.slotWaits.Add(1)
		}
	}
}

// TakeEvents drains and returns the buffered events, oldest first. The
// ring is emptied: a subsequent TakeEvents returns only events emitted
// after this call. WriteTrace uses it internally.
func (r *Recorder) TakeEvents() []Event {
	return r.ring.drain()
}

// SnapshotEvents copies and returns the buffered events, oldest first,
// without consuming them: the ring is left untouched, so any number of
// concurrent consumers (trace export, the dashboard, the black-box
// flusher) observe the same events instead of stealing them from each
// other. The copy is weakly consistent under concurrent emitters. A nil
// *Recorder returns nil.
func (r *Recorder) SnapshotEvents() []Event {
	if r == nil {
		return nil
	}
	return r.ring.snapshot()
}

// SnapshotTail is SnapshotEvents cut to the newest n events and copied into
// dst[:0], so a consumer of a tail (the black-box flusher) reuses one buffer.
func (r *Recorder) SnapshotTail(dst []Event, n int) []Event {
	if r == nil {
		return dst[:0]
	}
	return r.ring.tail(dst, n)
}

// Dropped reports how many events were discarded because the ring was
// full (the flight recorder keeps the most recent ones).
func (r *Recorder) Dropped() uint64 { return r.ring.dropped.Load() }

// FindRecorder walks an observer chain — any sequence of observers linked
// by a Next() Observer method, e.g. Ledger → decision.Recorder → Recorder
// — and returns the first *Recorder, or nil if the chain has none.
func FindRecorder(o Observer) *Recorder {
	for o != nil {
		if r, ok := o.(*Recorder); ok {
			return r
		}
		n, ok := o.(interface{ Next() Observer })
		if !ok {
			return nil
		}
		o = n.Next()
	}
	return nil
}

// FindLedger walks an observer chain (see FindRecorder) and returns the
// first *Ledger, or nil if the chain has none.
func FindLedger(o Observer) *Ledger {
	for o != nil {
		if l, ok := o.(*Ledger); ok {
			return l
		}
		n, ok := o.(interface{ Next() Observer })
		if !ok {
			return nil
		}
		o = n.Next()
	}
	return nil
}

// PhaseStats summarises one phase's latency distribution.
type PhaseStats struct {
	// Count is how many spans were observed.
	Count uint64
	// Total is the cumulative span time.
	Total time.Duration
	// P50, P95, P99 are upper-bound percentile estimates (≈3% relative
	// error from the histogram's bucket geometry).
	P50, P95, P99 time.Duration
	// Max is the largest span observed.
	Max time.Duration
}

// Snapshot is a point-in-time copy of the recorder's histograms and
// counters — the payload behind the metrics endpoint and expvar.
type Snapshot struct {
	// Published / Obsolete / FailedSaves / CASRetries / IORetries mirror
	// the engine's cumulative outcome counters, as seen through emitted
	// events. Saves is the derived total of initiated saves that reached
	// an outcome: Published + Obsolete + FailedSaves.
	Published   uint64
	Obsolete    uint64
	FailedSaves uint64
	Saves       uint64
	CASRetries  uint64
	IORetries   uint64
	// TransientFaults counts observed persist-path faults;
	// InjectedFaults counts faults fired by a storage.FaultDevice.
	TransientFaults uint64
	InjectedFaults  uint64
	// SlotWaits counts saves that had to wait for a free slot.
	SlotWaits uint64
	// RankDeaths / RankRejoins count distributed failure-detector
	// transitions seen by rank 0's coordinator; DroppedFrames counts
	// coordination frames discarded by protocol validation.
	RankDeaths    uint64
	RankRejoins   uint64
	DroppedFrames uint64
	// BytesWritten is the published payload volume (logical bytes);
	// BytesPersisted is what actually reached the device. DeltaSaves and
	// KeyframeSaves break published saves down in delta mode (keyframes
	// only count there; plain-mode publishes increment neither).
	BytesWritten   int64
	BytesPersisted int64
	DeltaSaves     uint64
	KeyframeSaves  uint64
	// ScrubSweeps counts completed integrity-scrub sweeps, ScrubBytes the
	// cumulative volume verified; ScrubCorruptions counts corruptions found,
	// Repairs successful rewrites from a healthy source, Quarantines slots
	// tombstoned with no healthy source, and TierFailovers write-path
	// re-routes away from a permanently failing tier.
	ScrubSweeps      uint64
	ScrubBytes       int64
	ScrubCorruptions uint64
	Repairs          uint64
	Quarantines      uint64
	TierFailovers    uint64
	// DroppedEvents counts ring overwrites (oldest-event drops).
	DroppedEvents uint64
	// RingOccupancy is how many events are currently buffered in the
	// flight-recorder ring (approximate under concurrency) — drop
	// pressure is visible here before DroppedEvents starts climbing.
	RingOccupancy int
	// RingCapacity is the ring's fixed capacity.
	RingCapacity int
	// Phases holds one latency summary per Phase (index with the Phase
	// constants, or use the Phase accessor).
	Phases [PhaseCount]PhaseStats
}

// Phase returns the latency summary for p.
func (s Snapshot) Phase(p Phase) PhaseStats {
	if p < PhaseCount {
		return s.Phases[p]
	}
	return PhaseStats{}
}

// Snapshot summarises the recorder without disturbing the event ring.
// Concurrent emitters keep running; the snapshot is weakly consistent.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Published:        r.published.Load(),
		Obsolete:         r.obsolete.Load(),
		FailedSaves:      r.failedSaves.Load(),
		CASRetries:       r.casRetry.Load(),
		IORetries:        r.ioRetry.Load(),
		TransientFaults:  r.faults.Load(),
		InjectedFaults:   r.injected.Load(),
		SlotWaits:        r.slotWaits.Load(),
		RankDeaths:       r.rankDeaths.Load(),
		RankRejoins:      r.rankRejoins.Load(),
		DroppedFrames:    r.badFrames.Load(),
		BytesWritten:     r.bytes.Load(),
		BytesPersisted:   r.bytesPersisted.Load(),
		DeltaSaves:       r.deltaSaves.Load(),
		KeyframeSaves:    r.keyframes.Load(),
		ScrubSweeps:      r.scrubSweeps.Load(),
		ScrubBytes:       r.scrubBytes.Load(),
		ScrubCorruptions: r.scrubCorrupt.Load(),
		Repairs:          r.repairs.Load(),
		Quarantines:      r.quarantines.Load(),
		TierFailovers:    r.tierFailovers.Load(),
		DroppedEvents:    r.ring.dropped.Load(),
		RingOccupancy:    r.ring.len(),
		RingCapacity:     len(r.ring.cells),
	}
	s.Saves = s.Published + s.Obsolete + s.FailedSaves
	for p := Phase(0); p < PhaseCount; p++ {
		h := &r.hists[p]
		s.Phases[p] = PhaseStats{
			Count: h.Count(),
			Total: time.Duration(h.Sum()),
			P50:   time.Duration(h.Percentile(0.50)),
			P95:   time.Duration(h.Percentile(0.95)),
			P99:   time.Duration(h.Percentile(0.99)),
			Max:   time.Duration(h.Max()),
		}
	}
	return s
}
