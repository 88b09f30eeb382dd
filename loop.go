package pccheck

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/storage"
	"pccheck/internal/tuner"
)

// Loop drives periodic checkpointing for an iterative workload: call Tick
// once per iteration and the Loop launches a concurrent Save every Interval
// iterations, never blocking the caller while a slot is available. This is
// the orchestration pattern of Figure 6 — training continues while up to
// Config.Concurrent checkpoints persist in the background.
//
// Contract: Tick is single-producer — it must be called from one goroutine
// (the training loop), which is also what keeps the snapshotted state
// quiescent. Drain and the accessors may be called from any goroutine, at
// any time, concurrently with Ticks.
//
// With Config.Delta set, each launched Save diffs against the previous
// checkpoint inside the engine; Loop needs no changes. Feeding the engine's
// DirtyTracker from Loop-launched saves is NOT supported: saves run in
// background goroutines and may complete out of mutation order, violating
// the tracker's coherence contract — leave the tracker unfed (content-hash
// fallback) or call Save synchronously from the training goroutine.
type Loop struct {
	ck       *Checkpointer
	interval int
	snapshot func() []byte
	obsv     Observer // cached from ck at construction; nil when off

	// ledger is set when the configured observer (or an element of its
	// chain head) is a *Ledger: the loop then feeds it per-iteration
	// wall-clock and drain waits for goodput attribution. Touched only on
	// the Tick goroutine (lastIter, pendCkpt) per the single-producer
	// contract.
	ledger   *Ledger
	lastIter time.Time
	pendCkpt bool

	// OnError, when non-nil, is invoked from the save goroutine with the
	// error of every failed Save, as it happens — the live alternative to
	// discovering one stale error at Drain. Set it before the first Tick;
	// callbacks for concurrent Saves may run concurrently.
	OnError func(err error)

	mu       sync.Mutex
	idle     *sync.Cond // signalled when inflight returns to zero
	inflight int
	firstErr error
	failed   int
	saves    int
}

// NewLoop wires a checkpointer to a workload. snapshot must return an
// immutable byte slice capturing the current state (the caller's equivalent
// of the update-step boundary U in the paper's timelines); it is invoked on
// the Tick goroutine so the state is quiescent while it runs.
func NewLoop(ck *Checkpointer, interval int, snapshot func() []byte) (*Loop, error) {
	if interval < 1 {
		return nil, fmt.Errorf("pccheck: checkpoint interval must be ≥ 1, got %d", interval)
	}
	if snapshot == nil {
		return nil, fmt.Errorf("pccheck: snapshot function required")
	}
	l := &Loop{ck: ck, interval: interval, snapshot: snapshot, obsv: ck.Observer()}
	l.ledger, _ = l.obsv.(*Ledger)
	l.idle = sync.NewCond(&l.mu)
	return l, nil
}

// emitSnapshot records the synchronous snapshot capture of iteration it as
// a loop-track span — the stall Tick imposed on training (§3.1: the state
// must be quiescent while it is captured).
func (l *Loop) emitSnapshot(ts int64, it int, bytes int64) {
	if l.obsv == nil {
		return
	}
	l.obsv.Emit(Event{
		TS: ts, Dur: time.Now().UnixNano() - ts,
		Phase: PhaseSnapshot, Bytes: bytes, Value: int64(it),
		Slot: -1, Writer: -1, Rank: -1,
	})
}

// Tick records the completion of iteration it (0-based) and, when it lands
// on the checkpoint interval, captures a snapshot and persists it in the
// background. The snapshot capture itself runs synchronously (state must be
// quiescent), the persist does not. Tick must be called from a single
// goroutine; see the Loop contract.
func (l *Loop) Tick(ctx context.Context, it int) {
	if l.ledger != nil {
		// Tick marks an iteration boundary: the gap since the previous Tick
		// is one iteration's wall-clock, attributed to the ledger. The
		// checkpointed flag rides one Tick behind the snapshot because the
		// capture in Tick n lands inside the n→n+1 gap.
		now := time.Now()
		if !l.lastIter.IsZero() {
			l.ledger.IterDone(now.Sub(l.lastIter), l.pendCkpt)
		}
		l.lastIter = now
		l.pendCkpt = false
	}
	if (it+1)%l.interval != 0 {
		return
	}
	var snapStart int64
	if l.obsv != nil {
		snapStart = time.Now().UnixNano()
	}
	payload := l.snapshot()
	l.emitSnapshot(snapStart, it, int64(len(payload)))
	l.pendCkpt = true
	l.mu.Lock()
	l.saves++
	l.inflight++
	l.mu.Unlock()
	go func() {
		_, err := l.ck.Save(ctx, payload)
		if err != nil {
			l.mu.Lock()
			if l.firstErr == nil {
				l.firstErr = err
			}
			l.failed++
			l.mu.Unlock()
			if cb := l.OnError; cb != nil {
				cb(err)
			}
		}
		l.mu.Lock()
		l.inflight--
		if l.inflight == 0 {
			l.idle.Broadcast()
		}
		l.mu.Unlock()
	}()
}

// Drain waits for all in-flight Saves and returns the first error any Save
// has hit since the loop was created (FailedSaves reports how many failed in
// total). Drain is idempotent and safe to call from any goroutine while
// Ticks continue — it returns once the Saves in flight at that moment (and
// any launched while it waits) have finished.
func (l *Loop) Drain() error {
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

// Saves returns how many checkpoints the loop has initiated.
func (l *Loop) Saves() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.saves
}

// FailedSaves returns how many of those Saves failed.
func (l *Loop) FailedSaves() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// TuneInput describes a workload for automatic configuration (§3.4).
type TuneInput struct {
	// IterTime is the measured no-checkpoint iteration time t.
	IterTime time.Duration
	// CheckpointBytes is the snapshot size m.
	CheckpointBytes int64
	// MaxOverhead is the acceptable training slowdown q (e.g. 1.03 = 3%).
	MaxOverhead float64
	// DRAMBudget caps staging memory M (0 ⇒ 2m).
	DRAMBudget int64
	// StorageBudget caps device space S (0 ⇒ whatever the device holds).
	StorageBudget int64
}

// TuneResult is the derived configuration plus the measured evidence.
type TuneResult struct {
	// Config is ready to pass to Create.
	Config Config
	// Interval is f*, the minimum checkpoint interval (iterations) that
	// keeps slowdown within MaxOverhead.
	Interval int
	// Tw is the measured worst-case per-checkpoint write time at the
	// chosen concurrency.
	Tw time.Duration
	// Profile maps each candidate N to its measured Tw.
	Profile map[int]time.Duration
}

// Tune profiles the device at path (writing scratch checkpoints of
// CheckpointBytes) and returns the configuration PCcheck's tool would pick:
// the N minimising Tw/N, 1–4 writers, and f* = ceil(Tw/(N·q·t)), which
// assumes a free snapshot (AdaptiveLoop prices a measured one). The file
// is formatted for the chosen configuration afterwards, ready for Create.
func Tune(path string, in TuneInput) (TuneResult, error) {
	// Profile against a device sized for the largest candidate.
	const maxN = 4
	dev, err := newProfilingDevice(path, maxN, in.CheckpointBytes)
	if err != nil {
		return TuneResult{}, err
	}
	defer dev.Close()
	res, err := tuner.Profile(dev, tuner.Input{
		IterTime:        in.IterTime,
		CheckpointBytes: in.CheckpointBytes,
		DRAMBudget:      in.DRAMBudget,
		StorageBudget:   in.StorageBudget,
		MaxOverhead:     in.MaxOverhead,
		MaxN:            maxN,
	})
	if err != nil {
		return TuneResult{}, err
	}
	return TuneResult{
		Config: Config{
			MaxBytes:   in.CheckpointBytes,
			Concurrent: res.N,
			Writers:    res.Writers,
			ChunkBytes: res.ChunkBytes,
			DRAMBudget: in.DRAMBudget,
		},
		Interval: res.Interval,
		Tw:       res.Tw,
		Profile:  res.Profile,
	}, nil
}

// newProfilingDevice opens a file-backed device big enough for maxN
// concurrent checkpoints of m bytes.
func newProfilingDevice(path string, maxN int, m int64) (storage.Device, error) {
	if m <= 0 {
		return nil, fmt.Errorf("pccheck: TuneInput.CheckpointBytes must be positive, got %d", m)
	}
	return storage.OpenSSD(path, core.DeviceBytes(maxN, m))
}
