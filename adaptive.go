package pccheck

import (
	"context"
	"sync"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/perfmodel"
)

// AdaptiveLoop is the frequency-adaptation extension sketched at the end of
// §3.4 of the paper: "the optimal checkpoint frequency might vary throughout
// training due to contention for shared resources … We plan to extend
// PCcheck by monitoring training throughput and traffic between GPU, CPU,
// and storage, and adapt (3) accordingly."
//
// The loop continuously measures the iteration time t (from the cadence of
// Tick calls, the snapshot stall left out), the synchronous snapshot stall S
// and the per-checkpoint write time Tw (from completed Saves), all as
// exponentially weighted moving averages, and picks the smallest interval f
// whose slowdown s(f) = (max(Tw/N, f·t) + S)/(f·t) stays within q
// (perfmodel.IntervalModel.FStar), which is Eq. (3),
// f* = ceil(Tw / (N · q · t)), when the snapshot is free.
// So the checkpointing overhead tracks the target q even as iteration
// times drift (input pipeline contention, activation offload), the device
// slows under external load, or the snapshot outlasts an iteration.
//
// Delta checkpointing (Config.Delta) folds in automatically: Tw is
// measured from completed Saves, so when deltas shrink the bytes persisted
// per save, the observed Tw drops and Eq. (3) re-derives a proportionally
// higher checkpoint frequency — the §3.4 model sees the effective
// bytes-per-save, not the logical checkpoint size.
type AdaptiveLoop struct {
	ck       *Checkpointer
	snapshot func() []byte
	obsv     Observer // cached from ck at construction; nil when off

	// ledger is set when the configured observer is a *Ledger: the loop
	// feeds it iteration timings and — closing the §3.4 loop — retunes
	// Eq. (3) from the ledger's engine-measured write time (queueing
	// excluded) instead of the goroutine-observed Save duration. lastIter
	// and pendCkpt are Tick-goroutine-only (single-producer contract).
	ledger   *Ledger
	lastIter time.Time
	pendCkpt bool

	q     float64 // overhead budget (> 1)
	n     int     // concurrent checkpoints
	alpha float64 // EWMA smoothing

	minInterval, maxInterval int

	// OnError, when non-nil, is invoked from the save goroutine with the
	// error of every failed Save, as it happens. Set it before the first
	// Tick; callbacks for concurrent Saves may run concurrently.
	OnError func(err error)

	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight returns to zero
	inflight int
	firstErr error
	failed   int
	lastTick time.Time
	ewmaIter float64 // seconds per iteration, snapshot stall excluded
	ewmaSnap float64 // seconds per snapshot stall (S)
	ewmaTw   float64 // seconds per checkpoint
	interval int     // current f
	sinceCkp int     // iterations since the last checkpoint
	saves    int
	adjusts  int
}

// AdaptiveConfig tunes the controller.
type AdaptiveConfig struct {
	// MaxOverhead is q, the target slowdown budget (e.g. 1.05). Required.
	MaxOverhead float64
	// InitialInterval seeds f before any measurement (default 10).
	InitialInterval int
	// MinInterval / MaxInterval clamp the adaptation (defaults 1 / 10000).
	MinInterval, MaxInterval int
	// Smoothing is the EWMA coefficient in (0, 1]; larger reacts faster
	// (default 0.2).
	Smoothing float64
}

// NewAdaptiveLoop builds the controller over a checkpointer. snapshot has
// the same contract as in NewLoop.
func NewAdaptiveLoop(ck *Checkpointer, cfg AdaptiveConfig, snapshot func() []byte) (*AdaptiveLoop, error) {
	if snapshot == nil {
		return nil, errRequired("snapshot function")
	}
	if cfg.MaxOverhead <= 1 {
		return nil, errRequired("MaxOverhead > 1")
	}
	if cfg.InitialInterval <= 0 {
		cfg.InitialInterval = 10
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 1
	}
	if cfg.MaxInterval <= 0 {
		cfg.MaxInterval = 10000
	}
	if cfg.MaxInterval < cfg.MinInterval {
		return nil, errRequired("MaxInterval ≥ MinInterval")
	}
	if cfg.Smoothing <= 0 || cfg.Smoothing > 1 {
		cfg.Smoothing = 0.2
	}
	n := ck.engine.Config().Concurrent
	if n < 1 {
		n = 1
	}
	l := &AdaptiveLoop{
		ck:          ck,
		snapshot:    snapshot,
		obsv:        ck.Observer(),
		q:           cfg.MaxOverhead,
		n:           n,
		alpha:       cfg.Smoothing,
		minInterval: cfg.MinInterval,
		maxInterval: cfg.MaxInterval,
		interval:    clampInt(cfg.InitialInterval, cfg.MinInterval, cfg.MaxInterval),
	}
	l.ledger, _ = l.obsv.(*Ledger)
	l.idle = sync.NewCond(&l.mu)
	return l, nil
}

type requiredError string

func (e requiredError) Error() string { return "pccheck: " + string(e) + " required" }

func errRequired(what string) error { return requiredError(what) }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Tick records the completion of one iteration; when the adaptive interval
// elapses it captures a snapshot and persists it concurrently, folding the
// measured persist time back into the interval. Tick is single-producer: it
// must be called from one goroutine (the training loop); Drain and the
// accessors may be called from any goroutine concurrently.
func (l *AdaptiveLoop) Tick(ctx context.Context) {
	now := time.Now()
	if l.ledger != nil {
		// The checkpointed flag rides one Tick behind the snapshot: the
		// capture of Tick n lands inside the n→n+1 gap (see Loop.Tick).
		if !l.lastIter.IsZero() {
			l.ledger.IterDone(now.Sub(l.lastIter), l.pendCkpt)
		}
		l.lastIter = now
		l.pendCkpt = false
	}
	l.mu.Lock()
	if !l.lastTick.IsZero() {
		l.ewmaIter = l.ewma(l.ewmaIter, now.Sub(l.lastTick).Seconds())
	}
	l.lastTick = now
	l.sinceCkp++
	due := l.sinceCkp >= l.interval
	if due {
		l.sinceCkp = 0
		l.saves++
		l.inflight++
	}
	l.mu.Unlock()
	if !due {
		return
	}

	snapStart := time.Now()
	payload := l.snapshot()
	snapEnd := time.Now()
	stall := snapEnd.Sub(snapStart)
	if l.obsv != nil {
		l.obsv.Emit(Event{
			TS: snapStart.UnixNano(), Dur: int64(stall),
			Phase: PhaseSnapshot, Bytes: int64(len(payload)),
			Slot: -1, Writer: -1, Rank: -1,
		})
	}
	l.mu.Lock()
	// The next Tick times the iteration from here: the stall is S, priced
	// on its own in retuneLocked, not part of t.
	l.lastTick = snapEnd
	l.ewmaSnap = l.ewma(l.ewmaSnap, stall.Seconds())
	l.mu.Unlock()
	l.pendCkpt = true
	go func() {
		start := time.Now()
		_, err := l.ck.Save(ctx, payload)
		tw := time.Since(start).Seconds()
		l.mu.Lock()
		if err != nil {
			if l.firstErr == nil {
				l.firstErr = err
			}
			l.failed++
		} else {
			l.ewmaTw = l.ewma(l.ewmaTw, tw)
			l.retuneLocked()
		}
		l.inflight--
		if l.inflight == 0 {
			l.idle.Broadcast()
		}
		l.mu.Unlock()
		if err != nil {
			if cb := l.OnError; cb != nil {
				cb(err)
			}
		}
	}()
}

// ewma folds sample x into the moving average avg; the first sample seeds it.
func (l *AdaptiveLoop) ewma(avg, x float64) float64 {
	if avg == 0 {
		return x
	}
	return l.alpha*x + (1-l.alpha)*avg
}

// retuneLocked picks the smallest interval f whose slowdown
// s(f) = (max(Tw/N, f·t) + S)/(f·t) is within q — Eq. (3) plus the snapshot
// stall S, which the N overlapping writes cannot hide. When a
// goodput ledger is attached, its engine-measured write time (the Save
// span minus slot queueing) replaces the goroutine-observed Tw: queueing
// behind the N in-flight checkpoints is already paid for by the N in the
// denominator, so folding it into Tw would double-count and over-widen
// the interval.
func (l *AdaptiveLoop) retuneLocked() {
	tw := l.ewmaTw
	if l.ledger != nil {
		if m := l.ledger.ObservedTw(); m > 0 {
			tw = m.Seconds()
		}
	}
	if l.ewmaIter <= 0 || tw <= 0 {
		return
	}
	model := perfmodel.IntervalModel{T: l.ewmaIter, Tw: tw, S: l.ewmaSnap, N: l.n}
	prev := l.interval
	l.interval = clampInt(model.FStar(l.q), l.minInterval, l.maxInterval)
	l.adjusts++
	if l.obsv == nil {
		return
	}
	chosen, rejected, k := retuneCandidates(model, l.q, l.interval, prev, l.minInterval, l.maxInterval)
	obs.EmitDecision(l.obsv, obs.NewDecisionID(), obs.DecisionRetune, 0, obs.OutPredicted, chosen, rejected[:k]...)
	if l.interval != prev {
		// Instant on the loop track: the controller re-derived f. Value
		// carries the new interval so traces show the adaptation trajectory.
		l.obsv.Emit(Event{
			TS: time.Now().UnixNano(), Phase: PhaseRetune,
			Value: int64(l.interval), Slot: -1, Writer: -1, Rank: -1,
		})
	}
}

// retuneCandidates prices the interval chosen by a retune and up to
// obs.MaxRejected rejected ones — the previous interval and f±1, 2f,
// ⌈f/2⌉ (then f±2, f±3, … until two exist), clamped and cheapest first —
// with the interval model m the retune picked by: a candidate's cost is its
// Eq. (4) lost work, its overhead (s(f)−1)·t, and it is eligible when
// m.Eligible(f, q). The chosen f is the smallest eligible one, so no
// eligible candidate is cheaper. It allocates nothing.
func retuneCandidates(m perfmodel.IntervalModel, q float64, chosen, prev, minI, maxI int) (obs.Choice, [8]obs.Choice, int) {
	price := func(f int) obs.Choice {
		return obs.Choice{Action: obs.ActInterval, Arg: int32(f), Cost: int64(m.LostWork(f) * 1e9),
			Over: int64((m.Slowdown(f) - 1) * m.T * 1e9), Eligible: m.Eligible(f, q)}
	}
	var alts [8]obs.Choice
	k := 0
	add := func(f int) {
		f = clampInt(f, minI, maxI)
		if f == chosen {
			return
		}
		for _, a := range alts[:k] {
			if int(a.Arg) == f {
				return
			}
		}
		// Insertion keeps alts cheapest first.
		c, i := price(f), k
		for ; i > 0 && alts[i-1].Cost > c.Cost; i-- {
			alts[i] = alts[i-1]
		}
		alts[i] = c
		k++
	}
	for _, f := range [...]int{prev, chosen - 1, chosen + 1, 2 * chosen, (chosen + 1) / 2} {
		add(f)
	}
	for extra := 2; k < 2 && extra < 16; extra++ {
		add(chosen + extra)
		add(chosen - extra)
	}
	return price(chosen), alts, min(k, obs.MaxRejected)
}

// Interval returns the current checkpoint interval f.
func (l *AdaptiveLoop) Interval() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.interval
}

// Measurements returns the current EWMA iteration time and checkpoint write
// time, for monitoring.
func (l *AdaptiveLoop) Measurements() (iterTime, tw time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.ewmaIter * float64(time.Second)),
		time.Duration(l.ewmaTw * float64(time.Second))
}

// Saves returns how many checkpoints were initiated; Adjustments how often
// the interval was re-derived.
func (l *AdaptiveLoop) Saves() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.saves
}

// Adjustments returns the number of interval re-derivations so far.
func (l *AdaptiveLoop) Adjustments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.adjusts
}

// Drain waits for all in-flight Saves and returns the first error any Save
// has hit since the loop was created. Like Loop.Drain it is idempotent and
// safe to call from any goroutine while Ticks continue.
func (l *AdaptiveLoop) Drain() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.inflight > 0 && l.ledger != nil {
		start := time.Now()
		for l.inflight > 0 {
			l.idle.Wait()
		}
		l.ledger.DrainDone(time.Since(start))
		return l.firstErr
	}
	for l.inflight > 0 {
		l.idle.Wait()
	}
	return l.firstErr
}

// FailedSaves returns how many initiated Saves failed.
func (l *AdaptiveLoop) FailedSaves() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}
