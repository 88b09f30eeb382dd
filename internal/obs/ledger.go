package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The goodput ledger is the macro accounting layer on top of the flight
// recorder: where the Recorder answers "how long did the barrier take?",
// the Ledger answers "are we inside our slowdown budget, how much
// wall-clock went to checkpoint stalls vs compute, and which rank is
// gating global consistency?" — the paper's evaluation currency (§3.4,
// §5): useful iterations per second under a user-set max-slowdown budget
// q, with wasted work on failure bounded by checkpoint staleness.
//
// The Ledger is an Observer: chain it in front of a Recorder (or any
// other observer) via Config.Observer and it attributes the event stream
// into stall buckets while forwarding every event unchanged. The training
// loops (Loop, AdaptiveLoop) additionally feed it explicit iteration and
// drain timings; recovery paths call AddRecovery. Emit stays lock-free
// and allocation-free — the nil-observer zero-cost contract extends to a
// chained ledger.

// StallKind indexes the ledger's wall-clock attribution buckets.
type StallKind int

// Attribution buckets. The first three are training-synchronous (they
// extend iteration wall-clock); SlotWait and Persist overlap training
// (checkpoint-internal time that only interferes with compute through
// shared bandwidth), so the wall-clock identity is
//
//	wall ≈ compute + snapshot + drain + recovery
//
// with slot-wait and persist reported alongside as concurrent load.
const (
	// StallSnapshot is the synchronous state capture in Loop/AdaptiveLoop
	// — the only part of a tick that stalls training (§3.1 quiescence).
	StallSnapshot StallKind = iota
	// StallSlotWait is checkpoint time spent waiting for a free slot
	// (background: overlaps training, Listing 1's deq loop).
	StallSlotWait
	// StallPersist is writer-goroutine persist time plus retry backoff
	// (background: overlaps training, competes for device bandwidth).
	StallPersist
	// StallDrain is time spent in Drain waiting for in-flight saves.
	StallDrain
	// StallRecovery is restart time spent loading and restoring a
	// checkpoint (fed by AddRecovery).
	StallRecovery

	// StallKindCount is the number of attribution buckets.
	StallKindCount
)

var stallNames = [StallKindCount]string{
	"snapshot", "slot-wait", "persist", "drain", "recovery",
}

// String returns the bucket's canonical hyphenated name.
func (k StallKind) String() string {
	if k >= 0 && k < StallKindCount {
		return stallNames[k]
	}
	return "stall?"
}

// MaxLedgerRanks bounds the straggler table. Events for ranks outside
// [0, MaxLedgerRanks) are still forwarded but not attributed (counted in
// the report's DroppedRankEvents).
const MaxLedgerRanks = 64

// MaxLedgerTiers bounds the per-tier durability table. Tier-drain events
// for levels outside [0, MaxLedgerTiers) are forwarded but not attributed.
const MaxLedgerTiers = 8

// LedgerConfig tunes the goodput ledger. The zero value is usable: no
// slowdown budget (SLO tracking off), baseline learned from
// checkpoint-free iterations, default smoothing.
type LedgerConfig struct {
	// SlowdownBudget is q, the acceptable slowdown (e.g. 1.05 = 5%
	// overhead, the knob of Eq. (3)). Values ≤ 1 disable budget tracking:
	// slowdown is still measured, but breaches are never counted.
	SlowdownBudget float64
	// BaselineIterTime is the no-checkpoint iteration time t. When zero
	// the ledger learns it as an EWMA over checkpoint-free iterations —
	// set it explicitly (e.g. from the §3.4 profile) for a baseline that
	// excludes persist interference.
	BaselineIterTime time.Duration
	// PredictedIterTime and PredictedTw are the §3.4 model inputs that
	// chose N* and f* (Profile/Analyze). When set, the report includes
	// observed-vs-predicted drift ratios — the signal that the tuner's
	// assumptions no longer hold.
	PredictedIterTime time.Duration
	PredictedTw       time.Duration
	// Smoothing is the EWMA coefficient in (0, 1] for iteration, save and
	// baseline averages (default 0.2).
	Smoothing float64
	// Window is the iteration block size over which the slowdown EWMA is
	// folded (default 32). Slowdown is measured per block rather than per
	// iteration so a single checkpoint-bearing iteration inside a long
	// interval does not read as a budget breach.
	Window int
}

func (c LedgerConfig) withDefaults() LedgerConfig {
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		c.Smoothing = 0.2
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	return c
}

// ledgerTier is one durability tier's drain accounting. All fields are
// atomics: tier-drain events arrive from the drainer goroutine concurrently
// with report readers.
type ledgerTier struct {
	drains    atomic.Uint64 // PhaseTierDrain cycles observed
	drainedB  atomic.Int64  // cumulative bytes copied to this tier
	errors    atomic.Uint64 // PhaseTierError count
	resyncs   atomic.Uint64 // PhaseTierResync count
	failovers atomic.Uint64 // write-path failovers AWAY from this tier
	durable   atomic.Uint64 // newest checkpoint counter durable here
	durableNS atomic.Int64  // when durable last advanced (event TS + Dur)
}

// ledgerRank is one rank's straggler accounting. All fields are atomics:
// agree and gate events arrive from coordinator and worker goroutines.
type ledgerRank struct {
	rounds     atomic.Uint64 // PhaseAgree spans observed for this rank
	agreeNS    atomic.Int64  // cumulative agree-round time
	maxAgreeNS atomic.Int64  // slowest agree round
	publishLag atomic.Uint64 // cumulative local-counter − agreed gap (PhaseAgree Value)
	gated      atomic.Uint64 // rounds this rank gated (PhaseAgreeGate)
	gateLagNS  atomic.Int64  // cumulative first→last report spread of gated rounds
	gateIDGap  atomic.Uint64 // cumulative freshest−oldest ID gap of gated rounds
}

// Ledger attributes training wall-clock to compute and stall buckets and
// derives the paper's headline quantities continuously. Create one with
// NewLedger, attach it via Config.Observer (chaining to a Recorder if you
// also want the flight recorder), and read it with Report, WriteMetrics
// or the package's Serve. All methods are safe for concurrent use; a nil
// *Ledger is inert.
type Ledger struct {
	cfg  LedgerConfig
	next Observer
	// blockSink receives completed slowdown blocks (the decision
	// recorder's regret join); discovered once by walking the downstream
	// chain at construction.
	blockSink BlockSink

	startNS int64

	// Event-side state: updated inside Emit, atomics only.
	stallNS        [StallKindCount]atomic.Int64
	published      atomic.Uint64
	obsolete       atomic.Uint64
	failed         atomic.Uint64
	deltaSaves     atomic.Uint64
	keyframeSaves  atomic.Uint64
	bytesLogical   atomic.Int64
	bytesPersisted atomic.Int64
	lastPublishNS  atomic.Int64
	lastPublishCtr atomic.Uint64
	ewmaSaveNS     atomicFloat
	ewmaSlotWaitNS atomicFloat
	ranks          [MaxLedgerRanks]ledgerRank
	maxRank        atomic.Int64 // highest rank attributed, -1 when none
	tiers          [MaxLedgerTiers]ledgerTier
	maxTier        atomic.Int64 // highest tier attributed, -1 when none
	droppedRankEvs atomic.Uint64
	rankDeaths     atomic.Uint64
	rankRejoins    atomic.Uint64
	deadRanks      atomic.Int64 // currently-dead gauge (deaths − rejoins)

	// Iteration-side state: fed by the training loop (IterDone, DrainDone),
	// guarded by mu — these run once per iteration, off the persist path.
	mu          sync.Mutex
	iters       uint64
	ckptIters   uint64
	iterNS      int64
	ewmaIterSec float64
	ewmaBaseSec float64
	blockNS     int64
	blockIters  int
	ewmaSlow    float64
	breaches    uint64
	inBreach    bool
}

// atomicFloat stores a float64 in an atomic.Uint64 (IEEE bits), with a
// CAS-loop EWMA fold so Emit stays lock-free.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) ewma(v, alpha float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		next := v
		if cur != 0 {
			next = alpha*v + (1-alpha)*cur
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// BlockSink receives the ledger's completed slowdown blocks: the mean
// iteration seconds over one Window, the learned baseline (0 when not yet
// known), and the iteration count. The decision recorder implements it to
// join retune decisions against measured overhead; the ledger discovers a
// sink by walking its downstream observer chain, so chaining
// Ledger → decision.Recorder → Recorder wires the join automatically.
type BlockSink interface {
	LedgerBlock(meanIterSeconds, baselineSeconds float64, iters int)
}

// NewLedger builds a goodput ledger that forwards every event to next
// (nil for a stand-alone ledger). Attach the returned ledger — not next —
// as Config.Observer so it sees the full event stream.
func NewLedger(cfg LedgerConfig, next Observer) *Ledger {
	l := &Ledger{cfg: cfg.withDefaults(), next: next, startNS: time.Now().UnixNano()}
	l.maxRank.Store(-1)
	l.maxTier.Store(-1)
	for o := next; o != nil; {
		if s, ok := o.(BlockSink); ok {
			l.blockSink = s
			break
		}
		n, ok := o.(interface{ Next() Observer })
		if !ok {
			break
		}
		o = n.Next()
	}
	return l
}

// Next returns the observer this ledger forwards to (nil when none).
func (l *Ledger) Next() Observer {
	if l == nil {
		return nil
	}
	return l.next
}

// Emit implements Observer: the event is attributed into the ledger's
// buckets and forwarded to the chained observer. Emit performs only
// atomic operations — no locks, no allocations — so chaining a ledger
// preserves the engine's zero-allocation save path. A nil *Ledger
// discards the event.
func (l *Ledger) Emit(ev Event) {
	if l == nil {
		return
	}
	switch ev.Phase {
	case PhaseSnapshot:
		l.stallNS[StallSnapshot].Add(ev.Dur)
	case PhaseSlotWait:
		if ev.Value != 0 {
			l.stallNS[StallSlotWait].Add(ev.Dur)
		}
		l.ewmaSlotWaitNS.ewma(float64(ev.Dur), l.cfg.Smoothing)
	case PhasePersist:
		l.stallNS[StallPersist].Add(ev.Dur)
	case PhaseIORetry:
		// Retry backoff holds a writer goroutine: persist-path interference.
		l.stallNS[StallPersist].Add(ev.Dur)
	case PhaseSave:
		l.ewmaSaveNS.ewma(float64(ev.Dur), l.cfg.Smoothing)
	case PhasePublish:
		l.published.Add(1)
		storeMaxInt64(&l.lastPublishNS, ev.TS)
		storeMaxUint64(&l.lastPublishCtr, ev.Counter)
		// Bytes is what hit the device, Value the logical payload size. A
		// publish persisting fewer bytes than its logical size is a delta.
		l.bytesPersisted.Add(ev.Bytes)
		if ev.Value > 0 {
			l.bytesLogical.Add(ev.Value)
			if ev.Bytes != ev.Value {
				l.deltaSaves.Add(1)
			}
		} else {
			l.bytesLogical.Add(ev.Bytes)
		}
	case PhaseKeyframe:
		l.keyframeSaves.Add(1)
	case PhaseObsolete:
		l.obsolete.Add(1)
	case PhaseSaveFailed:
		l.failed.Add(1)
	case PhaseAgree:
		if c := l.rank(ev.Rank); c != nil {
			c.rounds.Add(1)
			c.agreeNS.Add(ev.Dur)
			storeMaxInt64(&c.maxAgreeNS, ev.Dur)
			if ev.Value > 0 {
				c.publishLag.Add(uint64(ev.Value))
			}
		}
	case PhaseAgreeGate:
		if c := l.rank(ev.Rank); c != nil {
			c.gated.Add(1)
			c.gateLagNS.Add(ev.Dur)
			if ev.Value > 0 {
				c.gateIDGap.Add(uint64(ev.Value))
			}
		}
	case PhaseTierDrain:
		if c := l.tier(ev.Slot); c != nil {
			c.drains.Add(1)
			c.drainedB.Add(ev.Bytes)
			storeMaxUint64(&c.durable, ev.Counter)
			storeMaxInt64(&c.durableNS, ev.TS+ev.Dur)
		}
	case PhaseTierError:
		if c := l.tier(ev.Slot); c != nil {
			c.errors.Add(1)
		}
	case PhaseTierResync:
		if c := l.tier(ev.Slot); c != nil {
			c.resyncs.Add(1)
		}
	case PhaseTierFailover:
		// Copying the front's image stalls the persist path; the failover itself
		// is attributed to the tier that was abandoned (carried in Value).
		l.stallNS[StallPersist].Add(ev.Dur)
		if c := l.tier(int32(ev.Value)); c != nil {
			c.failovers.Add(1)
		}
	case PhaseRankDead:
		l.rankDeaths.Add(1)
		l.deadRanks.Add(1)
	case PhaseRankRejoined:
		l.rankRejoins.Add(1)
		if l.deadRanks.Add(-1) < 0 {
			l.deadRanks.Add(1) // rejoin without a recorded death; clamp at 0
		}
	}
	if l.next != nil {
		l.next.Emit(ev)
	}
}

// tier returns the durability cell for tier index t (carried in Event.Slot
// by the tier phases); out-of-range indexes are not attributed.
func (l *Ledger) tier(t int32) *ledgerTier {
	if t < 0 || t >= MaxLedgerTiers {
		return nil
	}
	storeMaxInt64(&l.maxTier, int64(t))
	return &l.tiers[t]
}

// rank returns the straggler cell for r, recording out-of-range ranks as
// dropped.
func (l *Ledger) rank(r int32) *ledgerRank {
	if r < 0 || r >= MaxLedgerRanks {
		l.droppedRankEvs.Add(1)
		return nil
	}
	storeMaxInt64(&l.maxRank, int64(r))
	return &l.ranks[r]
}

func storeMaxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func storeMaxUint64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// IterDone records one completed training iteration of wall-clock d.
// checkpointed marks iterations whose interval carried a snapshot capture
// (the loops set it on the iteration following a checkpoint tick); the
// baseline iteration time is learned from the others. The training loops
// call this automatically when a Ledger is the configured observer.
func (l *Ledger) IterDone(d time.Duration, checkpointed bool) {
	if l == nil || d < 0 {
		return
	}
	sec := d.Seconds()
	alpha := l.cfg.Smoothing
	l.mu.Lock()
	defer l.mu.Unlock()
	l.iters++
	l.iterNS += int64(d)
	if checkpointed {
		l.ckptIters++
	}
	if l.ewmaIterSec == 0 {
		l.ewmaIterSec = sec
	} else {
		l.ewmaIterSec = alpha*sec + (1-alpha)*l.ewmaIterSec
	}
	if !checkpointed && l.cfg.BaselineIterTime == 0 {
		if l.ewmaBaseSec == 0 {
			l.ewmaBaseSec = sec
		} else {
			l.ewmaBaseSec = alpha*sec + (1-alpha)*l.ewmaBaseSec
		}
	}
	// Slowdown folds per block of Window iterations so one slow
	// checkpoint-bearing iteration inside a long interval is averaged
	// against its checkpoint-free neighbours — the paper's q compares
	// run-level throughput, not single-iteration latency.
	l.blockNS += int64(d)
	l.blockIters++
	if l.blockIters < l.cfg.Window {
		return
	}
	base := l.baselineLocked()
	blockMean := float64(l.blockNS) / float64(l.blockIters) / 1e9
	if base > 0 {
		slow := blockMean / base
		if l.ewmaSlow == 0 {
			l.ewmaSlow = slow
		} else {
			l.ewmaSlow = alpha*slow + (1-alpha)*l.ewmaSlow
		}
		if q := l.cfg.SlowdownBudget; q > 1 {
			if l.ewmaSlow > q {
				if !l.inBreach {
					l.inBreach = true
					l.breaches++
				}
			} else {
				l.inBreach = false
			}
		}
	}
	if l.blockSink != nil {
		l.blockSink.LedgerBlock(blockMean, base, l.blockIters)
	}
	l.blockNS, l.blockIters = 0, 0
}

// Breach reports the ledger's slowdown-budget state: how many times the
// block-EWMA slowdown has crossed above the budget q, and whether it is
// above it right now. Zero-valued without a budget configured.
func (l *Ledger) Breach() (breaches uint64, inBreach bool) {
	if l == nil {
		return 0, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.breaches, l.inBreach
}

// baselineLocked returns the no-checkpoint iteration time in seconds.
func (l *Ledger) baselineLocked() float64 {
	if l.cfg.BaselineIterTime > 0 {
		return l.cfg.BaselineIterTime.Seconds()
	}
	return l.ewmaBaseSec
}

// DrainDone records time spent waiting in Drain for in-flight saves.
func (l *Ledger) DrainDone(d time.Duration) {
	if l == nil || d <= 0 {
		return
	}
	l.stallNS[StallDrain].Add(int64(d))
}

// AddRecovery records restart time spent loading and restoring a
// checkpoint — the recovery component of the paper's wasted-work bound.
func (l *Ledger) AddRecovery(d time.Duration) {
	if l == nil || d <= 0 {
		return
	}
	l.stallNS[StallRecovery].Add(int64(d))
}

// ObservedTw returns the measured per-checkpoint write time: the EWMA of
// engine save spans minus the EWMA slot wait (queueing is not writing).
// Zero until the first save completes. AdaptiveLoop feeds this into its
// Eq. (3) re-derivation so the interval tracks measured, not assumed,
// write times.
func (l *Ledger) ObservedTw() time.Duration {
	if l == nil {
		return 0
	}
	tw := l.ewmaSaveNS.load() - l.ewmaSlotWaitNS.load()
	if tw <= 0 {
		return 0
	}
	return time.Duration(tw)
}

// RankAgreeStats is one rank's row in the straggler table.
type RankAgreeStats struct {
	Rank int `json:"rank"`
	// Rounds and AgreeSeconds summarise this rank's own PhaseAgree spans
	// (local publish → group agreement).
	Rounds          uint64  `json:"rounds"`
	AgreeSeconds    float64 `json:"agree_seconds"`
	MaxAgreeSeconds float64 `json:"max_agree_seconds"`
	// PublishLagTotal is the cumulative counter gap between this rank's
	// local publishes and the rounds' agreed IDs.
	PublishLagTotal uint64 `json:"publish_lag_total"`
	// GatedRounds counts rounds where this rank's report gated the
	// agreement (rank 0's PhaseAgreeGate view); GateLagSeconds is how much
	// wall-clock its late reports held the rounds open, GateIDGapTotal how
	// many checkpoints behind the freshest rank it reported.
	GatedRounds    uint64  `json:"gated_rounds"`
	GateLagSeconds float64 `json:"gate_lag_seconds"`
	GateIDGapTotal uint64  `json:"gate_id_gap_total"`
}

// TierDurability is one storage tier's row in the per-tier durability view:
// "durable-to-SSD at iter K, durable-to-remote at iter K−3" as data.
type TierDurability struct {
	// Tier is the level index within the tiered device (1 = first level
	// below the fast tier).
	Tier int `json:"tier"`
	// DurableCounter is the newest checkpoint counter the drainer has made
	// durable at this tier; DrainLagCheckpoints is how many published
	// checkpoints it trails the engine by (the staleness cost of losing
	// every faster tier).
	DurableCounter      uint64 `json:"durable_counter"`
	DrainLagCheckpoints int64  `json:"drain_lag_checkpoints"`
	// StalenessSeconds is the age of this tier's durable watermark — the
	// wasted-work bound if recovery had to start from this tier right now.
	StalenessSeconds float64 `json:"staleness_seconds"`
	// Drains / DrainedBytes / Errors / Resyncs summarise the drainer's work
	// against this tier; Failovers counts write-path re-routes away from it
	// after permanent errors exhausted the retry budget.
	Drains       uint64 `json:"drains"`
	DrainedBytes int64  `json:"drained_bytes"`
	Errors       uint64 `json:"errors"`
	Resyncs      uint64 `json:"resyncs"`
	Failovers    uint64 `json:"failovers,omitempty"`
}

// GoodputReport is a point-in-time summary of the ledger — the
// machine-readable form behind Report, FormatReport and the JSON export.
type GoodputReport struct {
	// WallSeconds is the attributed wall-clock: iteration time + drain +
	// recovery. ComputeSeconds is what remains after subtracting the
	// synchronous snapshot stalls — the "useful work" numerator of
	// goodput.
	WallSeconds    float64 `json:"wall_seconds"`
	ComputeSeconds float64 `json:"compute_seconds"`
	// Stall attribution, one bucket per StallKind. Snapshot, drain and
	// recovery are training-synchronous; slot-wait and persist overlap
	// training (concurrent checkpoint load, not wall-clock extension).
	SnapshotStallSeconds float64 `json:"snapshot_stall_seconds"`
	SlotWaitStallSeconds float64 `json:"slot_wait_stall_seconds"`
	PersistBusySeconds   float64 `json:"persist_busy_seconds"`
	DrainSeconds         float64 `json:"drain_seconds"`
	RecoverySeconds      float64 `json:"recovery_seconds"`

	Iterations           uint64  `json:"iterations"`
	CheckpointIterations uint64  `json:"checkpoint_iterations"`
	MeanIterSeconds      float64 `json:"mean_iter_seconds"`
	BaselineIterSeconds  float64 `json:"baseline_iter_seconds"`

	// GoodputRatio is ComputeSeconds / WallSeconds: the fraction of
	// wall-clock doing useful training work.
	GoodputRatio float64 `json:"goodput_ratio"`
	// ObservedSlowdown is the block-EWMA slowdown vs the baseline;
	// MeanSlowdown the run-cumulative equivalent. SlowdownBudget echoes
	// the configured q (0 = untracked); BudgetBreaches counts EWMA
	// excursions above q, InBreach whether one is ongoing.
	ObservedSlowdown float64 `json:"observed_slowdown"`
	MeanSlowdown     float64 `json:"mean_slowdown"`
	SlowdownBudget   float64 `json:"slowdown_budget"`
	BudgetBreaches   uint64  `json:"budget_breaches"`
	InBreach         bool    `json:"in_breach"`

	// StalenessSeconds is the age of the newest durable checkpoint — the
	// wasted-work bound if the process died now. LastPublishedCounter is
	// that checkpoint's order.
	StalenessSeconds     float64 `json:"staleness_seconds"`
	LastPublishedCounter uint64  `json:"last_published_counter"`
	Published            uint64  `json:"published"`
	Obsolete             uint64  `json:"obsolete"`
	FailedSaves          uint64  `json:"failed_saves"`

	// Delta checkpointing view: published saves split by kind, logical vs
	// actually-persisted byte volume, and their ratio (1 = full
	// checkpoints, smaller = bytes the deltas saved).
	DeltaSaves     uint64  `json:"delta_saves,omitempty"`
	KeyframeSaves  uint64  `json:"keyframe_saves,omitempty"`
	LogicalBytes   int64   `json:"logical_bytes,omitempty"`
	BytesPersisted int64   `json:"bytes_persisted,omitempty"`
	DeltaRatio     float64 `json:"delta_ratio,omitempty"`

	// §3.4 model drift: observed EWMAs vs the Profile/Analyze predictions
	// that chose N* and f*. Ratios are 0 when a prediction is unset.
	ObservedTwSeconds    float64 `json:"observed_tw_seconds"`
	ObservedSaveSeconds  float64 `json:"observed_save_seconds"`
	PredictedTwSeconds   float64 `json:"predicted_tw_seconds"`
	PredictedIterSeconds float64 `json:"predicted_iter_seconds"`
	TwDriftRatio         float64 `json:"tw_drift_ratio"`
	IterDriftRatio       float64 `json:"iter_drift_ratio"`

	// Tiers is the per-tier durable-staleness table of a tiered device,
	// fastest lower tier first (empty without tier-drain events).
	Tiers []TierDurability `json:"tiers,omitempty"`

	// Stragglers is the per-rank agree table, worst gate lag first.
	Stragglers        []RankAgreeStats `json:"stragglers,omitempty"`
	DroppedRankEvents uint64           `json:"dropped_rank_events,omitempty"`

	// Distributed fault-tolerance view (rank 0's failure detector):
	// cumulative death/rejoin transitions and the currently-dead gauge.
	// Nonzero DeadRanks with a nonzero GoodputRatio is the degraded-mode
	// signature — the group is committing without a rank.
	RankDeaths  uint64 `json:"rank_deaths,omitempty"`
	RankRejoins uint64 `json:"rank_rejoins,omitempty"`
	DeadRanks   int64  `json:"dead_ranks,omitempty"`
}

// Stall returns the bucket's attributed seconds.
func (r GoodputReport) Stall(k StallKind) float64 {
	switch k {
	case StallSnapshot:
		return r.SnapshotStallSeconds
	case StallSlotWait:
		return r.SlotWaitStallSeconds
	case StallPersist:
		return r.PersistBusySeconds
	case StallDrain:
		return r.DrainSeconds
	case StallRecovery:
		return r.RecoverySeconds
	}
	return 0
}

// Report summarises the ledger. It is weakly consistent under concurrent
// emitters, like Recorder.Snapshot.
func (l *Ledger) Report() GoodputReport {
	var rep GoodputReport
	if l == nil {
		return rep
	}
	l.mu.Lock()
	iters, ckptIters, iterNS := l.iters, l.ckptIters, l.iterNS
	ewmaSlow, breaches, inBreach := l.ewmaSlow, l.breaches, l.inBreach
	base := l.baselineLocked()
	l.mu.Unlock()

	rep.Iterations = iters
	rep.CheckpointIterations = ckptIters
	rep.SnapshotStallSeconds = secs(l.stallNS[StallSnapshot].Load())
	rep.SlotWaitStallSeconds = secs(l.stallNS[StallSlotWait].Load())
	rep.PersistBusySeconds = secs(l.stallNS[StallPersist].Load())
	rep.DrainSeconds = secs(l.stallNS[StallDrain].Load())
	rep.RecoverySeconds = secs(l.stallNS[StallRecovery].Load())

	iterSec := secs(iterNS)
	rep.WallSeconds = iterSec + rep.DrainSeconds + rep.RecoverySeconds
	rep.ComputeSeconds = iterSec - rep.SnapshotStallSeconds
	if rep.ComputeSeconds < 0 {
		rep.ComputeSeconds = 0
	}
	if rep.WallSeconds > 0 {
		rep.GoodputRatio = rep.ComputeSeconds / rep.WallSeconds
	}
	if iters > 0 {
		rep.MeanIterSeconds = iterSec / float64(iters)
	}
	rep.BaselineIterSeconds = base
	rep.ObservedSlowdown = ewmaSlow
	if base > 0 && rep.MeanIterSeconds > 0 {
		rep.MeanSlowdown = rep.MeanIterSeconds / base
	}
	rep.SlowdownBudget = l.cfg.SlowdownBudget
	rep.BudgetBreaches = breaches
	rep.InBreach = inBreach

	rep.Published = l.published.Load()
	rep.Obsolete = l.obsolete.Load()
	rep.FailedSaves = l.failed.Load()
	rep.DeltaSaves = l.deltaSaves.Load()
	rep.KeyframeSaves = l.keyframeSaves.Load()
	rep.LogicalBytes = l.bytesLogical.Load()
	rep.BytesPersisted = l.bytesPersisted.Load()
	if rep.LogicalBytes > 0 {
		rep.DeltaRatio = float64(rep.BytesPersisted) / float64(rep.LogicalBytes)
	}
	rep.LastPublishedCounter = l.lastPublishCtr.Load()
	ref := l.lastPublishNS.Load()
	if ref == 0 {
		ref = l.startNS
	}
	rep.StalenessSeconds = secs(time.Now().UnixNano() - ref)
	if rep.StalenessSeconds < 0 {
		rep.StalenessSeconds = 0
	}

	rep.ObservedSaveSeconds = l.ewmaSaveNS.load() / 1e9
	rep.ObservedTwSeconds = l.ObservedTw().Seconds()
	rep.PredictedTwSeconds = l.cfg.PredictedTw.Seconds()
	rep.PredictedIterSeconds = l.cfg.PredictedIterTime.Seconds()
	if rep.PredictedTwSeconds > 0 && rep.ObservedTwSeconds > 0 {
		rep.TwDriftRatio = rep.ObservedTwSeconds / rep.PredictedTwSeconds
	}
	if rep.PredictedIterSeconds > 0 && rep.MeanIterSeconds > 0 {
		rep.IterDriftRatio = rep.MeanIterSeconds / rep.PredictedIterSeconds
	}

	nowNS := time.Now().UnixNano()
	maxTier := l.maxTier.Load()
	for t := int64(0); t <= maxTier && t < MaxLedgerTiers; t++ {
		c := &l.tiers[t]
		row := TierDurability{
			Tier:           int(t),
			DurableCounter: c.durable.Load(),
			Drains:         c.drains.Load(),
			DrainedBytes:   c.drainedB.Load(),
			Errors:         c.errors.Load(),
			Resyncs:        c.resyncs.Load(),
			Failovers:      c.failovers.Load(),
		}
		if row.Drains == 0 && row.Errors == 0 && row.Resyncs == 0 && row.Failovers == 0 {
			continue
		}
		if lag := int64(rep.LastPublishedCounter) - int64(row.DurableCounter); lag > 0 {
			row.DrainLagCheckpoints = lag
		}
		ref := c.durableNS.Load()
		if ref == 0 {
			ref = l.startNS
		}
		if age := secs(nowNS - ref); age > 0 {
			row.StalenessSeconds = age
		}
		rep.Tiers = append(rep.Tiers, row)
	}

	maxRank := l.maxRank.Load()
	for r := int64(0); r <= maxRank && r < MaxLedgerRanks; r++ {
		c := &l.ranks[r]
		row := RankAgreeStats{
			Rank:            int(r),
			Rounds:          c.rounds.Load(),
			AgreeSeconds:    secs(c.agreeNS.Load()),
			MaxAgreeSeconds: secs(c.maxAgreeNS.Load()),
			PublishLagTotal: c.publishLag.Load(),
			GatedRounds:     c.gated.Load(),
			GateLagSeconds:  secs(c.gateLagNS.Load()),
			GateIDGapTotal:  c.gateIDGap.Load(),
		}
		if row.Rounds == 0 && row.GatedRounds == 0 {
			continue
		}
		rep.Stragglers = append(rep.Stragglers, row)
	}
	sort.SliceStable(rep.Stragglers, func(i, j int) bool {
		a, b := rep.Stragglers[i], rep.Stragglers[j]
		if a.GatedRounds != b.GatedRounds {
			return a.GatedRounds > b.GatedRounds
		}
		return a.GateLagSeconds > b.GateLagSeconds
	})
	rep.DroppedRankEvents = l.droppedRankEvs.Load()
	rep.RankDeaths = l.rankDeaths.Load()
	rep.RankRejoins = l.rankRejoins.Load()
	rep.DeadRanks = l.deadRanks.Load()
	if rep.DeadRanks < 0 {
		rep.DeadRanks = 0
	}
	return rep
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// formatTierBytes renders a byte count with a binary-unit suffix for the
// per-tier summary lines.
func formatTierBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// WriteJSON writes the report as indented JSON — the machine-readable
// export behind pccheck-bench -json.
func (l *Ledger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l.Report())
}

// FormatReport renders rep as the human end-of-run summary printed by the
// commands.
func FormatReport(w io.Writer, rep GoodputReport) {
	fmt.Fprintf(w, "goodput   ratio %.4f over %.2fs wall (%d iterations, %d with checkpoints)\n",
		rep.GoodputRatio, rep.WallSeconds, rep.Iterations, rep.CheckpointIterations)
	fmt.Fprintf(w, "ledger    compute %.3fs | snapshot %.3fs | drain %.3fs | recovery %.3fs || overlapped: slot-wait %.3fs, persist %.3fs\n",
		rep.ComputeSeconds, rep.SnapshotStallSeconds, rep.DrainSeconds, rep.RecoverySeconds,
		rep.SlotWaitStallSeconds, rep.PersistBusySeconds)
	if rep.SlowdownBudget > 1 {
		fmt.Fprintf(w, "slo       slowdown %.4f (mean %.4f) vs budget q=%.4f — %d breach(es)%s\n",
			rep.ObservedSlowdown, rep.MeanSlowdown, rep.SlowdownBudget, rep.BudgetBreaches,
			map[bool]string{true: ", IN BREACH", false: ""}[rep.InBreach])
	} else if rep.ObservedSlowdown > 0 {
		fmt.Fprintf(w, "slo       slowdown %.4f (mean %.4f), no budget configured\n",
			rep.ObservedSlowdown, rep.MeanSlowdown)
	}
	fmt.Fprintf(w, "durable   checkpoint %d, staleness %.2fs (wasted-work bound) — %d published, %d obsolete, %d failed\n",
		rep.LastPublishedCounter, rep.StalenessSeconds, rep.Published, rep.Obsolete, rep.FailedSaves)
	if rep.DeltaSaves > 0 || rep.KeyframeSaves > 0 {
		fmt.Fprintf(w, "delta     %d delta / %d keyframe saves, %d of %d bytes persisted (ratio %.3f)\n",
			rep.DeltaSaves, rep.KeyframeSaves, rep.BytesPersisted, rep.LogicalBytes, rep.DeltaRatio)
	}
	if rep.PredictedTwSeconds > 0 || rep.PredictedIterSeconds > 0 {
		fmt.Fprintf(w, "model     observed Tw %.4fs vs predicted %.4fs (drift %.2fx); iter %.4fs vs %.4fs (drift %.2fx)\n",
			rep.ObservedTwSeconds, rep.PredictedTwSeconds, rep.TwDriftRatio,
			rep.MeanIterSeconds, rep.PredictedIterSeconds, rep.IterDriftRatio)
	}
	for _, t := range rep.Tiers {
		fmt.Fprintf(w, "tier %-3d  durable checkpoint %d (lag %d behind published), staleness %.2fs — %d drain(s), %s, %d error(s), %d resync(s)\n",
			t.Tier, t.DurableCounter, t.DrainLagCheckpoints, t.StalenessSeconds,
			t.Drains, formatTierBytes(t.DrainedBytes), t.Errors, t.Resyncs)
	}
	for _, s := range rep.Stragglers {
		fmt.Fprintf(w, "rank %-3d  gated %d round(s) by %.3fs (ID gap %d); %d agree rounds, %.3fs total, max %.3fs, publish lag %d\n",
			s.Rank, s.GatedRounds, s.GateLagSeconds, s.GateIDGapTotal,
			s.Rounds, s.AgreeSeconds, s.MaxAgreeSeconds, s.PublishLagTotal)
	}
	if rep.RankDeaths > 0 || rep.RankRejoins > 0 {
		fmt.Fprintf(w, "failures  %d rank death(s), %d rejoin(s), %d currently dead\n",
			rep.RankDeaths, rep.RankRejoins, rep.DeadRanks)
	}
}

// WriteMetrics renders the ledger as Prometheus text exposition — the
// goodput gauge family served next to the Recorder's on /metrics.
func (l *Ledger) WriteMetrics(w io.Writer) {
	rep := l.Report()
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("pccheck_goodput_ratio", "Fraction of wall-clock spent in useful training compute.", rep.GoodputRatio)
	gauge("pccheck_observed_slowdown", "Block-EWMA training slowdown vs the no-checkpoint baseline.", rep.ObservedSlowdown)
	gauge("pccheck_slowdown_budget", "Configured max-slowdown budget q (0 = untracked).", rep.SlowdownBudget)
	gauge("pccheck_checkpoint_staleness_seconds", "Age of the newest durable checkpoint (wasted-work bound).", rep.StalenessSeconds)
	gauge("pccheck_dead_ranks", "Workers currently declared dead by the failure detector.", float64(rep.DeadRanks))
	fmt.Fprintf(w, "# HELP pccheck_ledger_rank_deaths_total Rank-dead transitions seen by the goodput ledger.\n")
	fmt.Fprintf(w, "# TYPE pccheck_ledger_rank_deaths_total counter\npccheck_ledger_rank_deaths_total %d\n", rep.RankDeaths)
	fmt.Fprintf(w, "# HELP pccheck_ledger_rank_rejoins_total Rank-rejoined transitions seen by the goodput ledger.\n")
	fmt.Fprintf(w, "# TYPE pccheck_ledger_rank_rejoins_total counter\npccheck_ledger_rank_rejoins_total %d\n", rep.RankRejoins)
	fmt.Fprintf(w, "# HELP pccheck_slowdown_budget_breaches_total EWMA slowdown excursions above the budget q.\n")
	fmt.Fprintf(w, "# TYPE pccheck_slowdown_budget_breaches_total counter\npccheck_slowdown_budget_breaches_total %d\n", rep.BudgetBreaches)
	fmt.Fprintf(w, "# HELP pccheck_iterations_total Training iterations recorded by the goodput ledger.\n")
	fmt.Fprintf(w, "# TYPE pccheck_iterations_total counter\npccheck_iterations_total %d\n", rep.Iterations)
	fmt.Fprintf(w, "# HELP pccheck_stall_seconds_total Attributed wall-clock per stall bucket (snapshot/drain/recovery are training-synchronous; slot-wait/persist overlap training).\n")
	fmt.Fprintf(w, "# TYPE pccheck_stall_seconds_total counter\n")
	for k := StallKind(0); k < StallKindCount; k++ {
		fmt.Fprintf(w, "pccheck_stall_seconds_total{phase=%q} %g\n", k.String(), rep.Stall(k))
	}
	if len(rep.Stragglers) > 0 {
		fmt.Fprintf(w, "# HELP pccheck_rank_agree_lag_seconds Cumulative time a rank's late reports held agreement rounds open.\n")
		fmt.Fprintf(w, "# TYPE pccheck_rank_agree_lag_seconds gauge\n")
		for _, s := range rep.Stragglers {
			fmt.Fprintf(w, "pccheck_rank_agree_lag_seconds{rank=\"%d\"} %g\n", s.Rank, s.GateLagSeconds)
		}
		fmt.Fprintf(w, "# HELP pccheck_rank_gated_rounds_total Agreement rounds gated per rank.\n")
		fmt.Fprintf(w, "# TYPE pccheck_rank_gated_rounds_total counter\n")
		for _, s := range rep.Stragglers {
			fmt.Fprintf(w, "pccheck_rank_gated_rounds_total{rank=\"%d\"} %d\n", s.Rank, s.GatedRounds)
		}
	}
	if len(rep.Tiers) > 0 {
		tierGauge := func(name, help string, value func(TierDurability) float64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, t := range rep.Tiers {
				fmt.Fprintf(w, "%s{tier=\"%d\"} %g\n", name, t.Tier, value(t))
			}
		}
		tierCounter := func(name, help string, value func(TierDurability) uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, t := range rep.Tiers {
				fmt.Fprintf(w, "%s{tier=\"%d\"} %d\n", name, t.Tier, value(t))
			}
		}
		tierGauge("pccheck_tier_durable_checkpoint",
			"Highest checkpoint counter the drainer has made durable at this tier.",
			func(t TierDurability) float64 { return float64(t.DurableCounter) })
		tierGauge("pccheck_tier_staleness_seconds",
			"Age of this tier's newest durable checkpoint (per-tier wasted-work bound).",
			func(t TierDurability) float64 { return t.StalenessSeconds })
		tierGauge("pccheck_tier_drain_lag_checkpoints",
			"Checkpoints published at tier 0 but not yet durable at this tier.",
			func(t TierDurability) float64 { return float64(t.DrainLagCheckpoints) })
		tierCounter("pccheck_tier_drains_total",
			"Completed drain cycles into this tier.",
			func(t TierDurability) uint64 { return t.Drains })
		tierCounter("pccheck_tier_drained_bytes_total",
			"Bytes the drainer has replayed into this tier.",
			func(t TierDurability) uint64 { return uint64(t.DrainedBytes) })
		tierCounter("pccheck_tier_drain_errors_total",
			"Drain attempts that exhausted retries against this tier.",
			func(t TierDurability) uint64 { return t.Errors })
		tierCounter("pccheck_tier_resyncs_total",
			"Full-image resyncs forced by journal overflow or tier recovery.",
			func(t TierDurability) uint64 { return t.Resyncs })
		tierCounter("pccheck_tier_failovers_from_total",
			"Write-path failovers away from this tier after permanent errors.",
			func(t TierDurability) uint64 { return t.Failovers })
	}
}
