package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pccheck/internal/obs"
)

// Tiered composes backends into an N-level durability hierarchy — DRAM in
// front of an SSD in front of an object store, say. Every Device operation
// completes at the active front tier (tier 0 until it fails), so the engine's
// persist latency is the front's, and nothing is recorded on the way: no copy
// of the payload, no journal of operations.
//
// What reaches the lower tiers is committed checkpoints. CommitCheckpoint(k),
// called by the engine once k's pointer record is durable at the front, raises
// the watermark and wakes the drainer (there is no ticker). For every live
// lower tier the drainer has the registered Shipper (internal/core's, which
// knows the layout) copy the chain links the tier lacks off the front device
// on two lanes, so one piece's write is queued while another's runs: payload,
// one sync, slot header, pointer record LAST, never into a slot the tier's own
// durable record references. A lower tier is thus a self-contained image that
// recovers on its own at every instant after its first acknowledgement; a
// checkpoint superseded before its ship began is never shipped; a scheduled
// resync is the same routine told to trust nothing the tier holds. Tier faults
// use the storage error classes: transient ones retry in place, anything else
// aborts the ship (counted once, however many lanes hit it), and the tier goes
// stale — it keeps its last acknowledged checkpoint and is tried again after a
// backoff or at the next commit. docs/CRASH_CONSISTENCY.md has the contract,
// including what protects a ship from the engine recycling the slot it reads
// (ShipSource.Pin) and what write-path failover needs of the front.
//
// One thing a format may keep outside its checkpoints: a tail region (core's
// black box) written in place at any time. Once the shipper has said where it
// begins (ShipSource.Tail), a front write there marks that extent missing at
// every lower tier and wakes the drainer like a commit, so the newest frames
// reach the tiers within one ship of landing — no commit, no Close needed.
type Tiered struct {
	tiers   []tier // one per level, fastest first
	src     shipSource
	shipper Shipper
	obsv    obs.Observer

	retryMax  int
	retryBase time.Duration
	retryCap  time.Duration
	failAfter int32 // consecutive permanent front-tier failures before failover

	// drainMu is held for a whole drain pass, and by a failover, which must
	// not overwrite a tier a ship is writing. frontMu fences front-tier
	// operations: each holds it shared while it applies; failover, Close and
	// Pin take it exclusively to get a front with none mid-apply. It guards
	// pinOff/pinLen, the in-flight ship's source extent. Order: as declared.
	drainMu        sync.Mutex
	frontMu        sync.RWMutex
	pinOff, pinLen int64
	clobbered      atomic.Bool
	frontErrs      atomic.Int32 // consecutive permanent failures at the front
	tailOff        atomic.Int64 // where the format's tail region begins, once known

	mu        sync.Mutex // guards what follows and the tiers' standing
	active    int        // level currently serving the write path
	watermark uint64     // highest checkpoint counter committed at the front
	gen       uint64     // commits, resync requests and tail writes so far
	closed    bool
	closing   sync.Once
	closeErr  error

	stop    chan struct{}
	kick    chan struct{}
	drained *sync.Cond // on mu: a tier moved
	wg      sync.WaitGroup
}

// tier is one level: the device, its standing (under Tiered.mu), and — being
// the Device the shipper writes — the ship in flight's tally, which the
// shipper's lanes add to at once.
type tier struct {
	dev   Device
	t     *Tiered
	level int

	gen       uint64 // Tiered.gen this tier has caught up with
	resync    uint64 // Tiered.gen of the newest request not to trust what the tier holds
	dead      bool   // failed over away from, or lost while being promoted
	durable   uint64 // highest checkpoint counter durable here
	durableNS int64  // when durable last advanced
	drains    uint64
	drainedB  int64
	errors    uint64
	resyncs   uint64
	failovers uint64 // write-path failovers away from this level
	lastErr   error
	tail      extent // of the tail region, what the front wrote and this tier lacks

	wrote  atomic.Int64 // bytes the current ship has written
	failed atomic.Bool  // the current ship hit a tier fault, already counted
	took   extent       // what the current ship took off tail, put back if it fails (drainer only)
}

// extent is the byte range [lo, hi), empty when hi <= lo.
type extent struct{ lo, hi int64 }

func (e *extent) add(o extent) {
	if e.hi <= e.lo {
		*e = o
	} else if o.hi > o.lo {
		e.lo, e.hi = min(e.lo, o.lo), max(e.hi, o.hi)
	}
}

// CheckpointCommitter is the optional interface through which the engine
// tells a device that a checkpoint counter is durably published at tier 0
// (the pointer record persisted). Tiered implements it.
type CheckpointCommitter interface {
	CommitCheckpoint(counter uint64)
}

// Marker is the optional interface (CrashDevice implements it) through which
// the drainer stamps a tier's journal with the counter it just made durable
// there — so crash images of a lower tier carry the drainer's ack floor.
type Marker interface {
	Mark(value uint64)
}

// ShipSource is the front tier as a Shipper reads it.
type ShipSource interface {
	Device
	// Pin runs f while no front operation is mid-apply, so what f reads is a
	// state the front really was in. f returns the extent [off, off+n) the
	// ship is about to copy; from f's return on, Clobbered reports whether a
	// front write has overlapped that extent.
	Pin(f func() (off, n int64))
	Clobbered() bool
	// Tail says the format keeps a region outside its checkpoints at
	// [from, Size()), written in place at any time: from now on a front write
	// there wakes the drainer like a commit. It returns the part of the region
	// the tier being shipped lacks — all of it the first time.
	Tail(from int64) (off, n int64)
}

// Shipper brings a lower tier up to the newest checkpoint committed at the
// front. The format owner registers one (internal/core does, at init), so the
// storage layer need not understand the layout. A Shipper belongs to one
// Tiered and is only ever called by its drainer, one call at a time.
type Shipper interface {
	// Ship copies what dst lacks of src's newest committed checkpoint, every
	// step leaving dst recoverable, and returns the newest checkpoint counter
	// durable at dst afterwards (0: none), also when it fails part-way.
	// distrust: do not take dst's word for what it holds (a scheduled resync).
	// The tail region is copied best-effort: its failure is not the ship's.
	Ship(src ShipSource, dst Device, distrust bool) (durable uint64, err error)
	// Mirror makes dst the image src is, for failover to promote it: src is a
	// front nobody is writing, and every step leaves dst recoverable, so a
	// Mirror that fails (src must still read) leaves dst a good lower tier.
	Mirror(src, dst Device) error
}

var newShipper func() Shipper

// RegisterShipper installs the Shipper constructor NewTiered uses. Call it
// from an init function; the last registration wins.
func RegisterShipper(f func() Shipper) { newShipper = f }

// TieredOption configures a Tiered device.
type TieredOption func(*Tiered)

// WithTierObserver attaches an observer for the PhaseTierDrain, TierError,
// TierResync (Slot = tier index) and TierFailover events.
func WithTierObserver(o obs.Observer) TieredOption {
	return func(t *Tiered) { t.obsv = o }
}

// WithTierRetry sets the per-operation retry budget for transient tier faults
// (defaults: 4 attempts, 200µs base backoff, 5ms cap).
func WithTierRetry(attempts int, base, cap time.Duration) TieredOption {
	return func(t *Tiered) { t.retryMax, t.retryBase, t.retryCap = attempts, base, cap }
}

// WithFailoverThreshold sets how many consecutive permanent front-tier
// failures the composite tolerates before failing the write path over to
// the next healthy lower tier (default 3). Transient faults never count.
func WithFailoverThreshold(n int) TieredOption {
	return func(t *Tiered) {
		if n > 0 {
			t.failAfter = int32(n)
		}
	}
}

// NewTiered builds a tiered device over levels (fastest first), each at least
// as large as tier 0. Tiered owns the levels: Close closes them all.
func NewTiered(levels []Device, opts ...TieredOption) (*Tiered, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("storage: tiered device needs at least one level")
	}
	t := &Tiered{
		tiers:    make([]tier, len(levels)),
		retryMax: 4, retryBase: 200 * time.Microsecond, retryCap: 5 * time.Millisecond,
		failAfter: 3,
		stop:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
	}
	for i, l := range levels {
		if l.Size() < levels[0].Size() {
			return nil, fmt.Errorf("storage: tier %d is %d bytes, smaller than tier 0's %d", i, l.Size(), levels[0].Size())
		}
		t.tiers[i] = tier{dev: l, t: t, level: i, tail: extent{0, l.Size()}}
	}
	for _, o := range opts {
		o(t)
	}
	t.drained = sync.NewCond(&t.mu)
	t.src.t = t
	t.tailOff.Store(t.Size()) // nothing is tail until a shipper says so
	if len(levels) > 1 {
		if newShipper == nil {
			return nil, fmt.Errorf("storage: tiered device has lower tiers but no Shipper is registered (import pccheck/internal/core)")
		}
		t.shipper = newShipper()
		t.wg.Add(1)
		go t.drainLoop()
	}
	return t, nil
}

// Tiers returns the composed levels, fastest first. core.Recover uses this
// to walk tiers newest-reachable-first after tier 0 is lost.
func (t *Tiered) Tiers() []Device {
	out := make([]Device, len(t.tiers))
	for i := range t.tiers {
		out[i] = t.tiers[i].dev
	}
	return out
}

// Active returns the index of the level currently serving the write path
// (0 until a failover promotes a lower tier).
func (t *Tiered) Active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active
}

// targetLocked reports whether level is a live drain target: below the active
// front and not dead. mu held.
func (t *Tiered) targetLocked(level int) bool {
	return level > t.active && level < len(t.tiers) && !t.tiers[level].dead
}

// ScheduleResync makes the next ship to the given lower tier distrust what it
// holds — the scrubber's repair hook for a tier whose copy failed
// verification. It reports whether the level is a live drain target.
func (t *Tiered) ScheduleResync(level int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.targetLocked(level) {
		return false
	}
	t.gen++
	t.tiers[level].resync = t.gen
	t.Kick()
	return true
}

// --- Device: every operation completes at the active front tier -------------

type devOp uint8

const (
	opRead devOp = iota
	opWrite
	opSync // opSync and up are the durability ops
	opPersist
)

func (op devOp) on(dev Device, p []byte, off, n int64) error {
	switch op {
	case opRead:
		return dev.ReadAt(p, off)
	case opWrite:
		return dev.WriteAt(p, off)
	case opSync:
		return dev.Sync(off, n)
	default:
		return dev.Persist(p, off)
	}
}

// front applies one operation at the active front tier under the shared
// frontMu. Permanent failures of a mutating operation count toward the
// failover budget; when it is exhausted the composite promotes the next
// healthy lower tier and retries the operation there. Only a successful
// DURABILITY op resets the budget: a dying device often keeps absorbing
// buffered WriteAts while every attempt to make them durable fails, and if
// those reset the count a save loop would never fail over.
func (t *Tiered) front(op devOp, p []byte, off, n int64) error {
	for {
		t.frontMu.RLock()
		t.mu.Lock()
		closed, dev := t.closed, t.tiers[t.active].dev
		t.mu.Unlock()
		if closed {
			t.frontMu.RUnlock()
			return Permanent(fmt.Errorf("storage: tiered device is closed"))
		}
		// Registered before the write applies: a ship that does not see the
		// mark has read bytes this write had not touched.
		writes, end := op == opWrite || op == opPersist, off+int64(len(p))
		if writes && off < t.pinOff+t.pinLen && t.pinOff < end {
			t.clobbered.Store(true)
		}
		err := op.on(dev, p, off, n)
		if err == nil && op >= opSync && t.frontErrs.Load() != 0 {
			t.frontErrs.Store(0) // the front cannot change under the shared lock
		}
		t.frontMu.RUnlock()
		// Marked after the write applied: a ship woken by it reads the bytes.
		if err == nil && writes && end > t.tailOff.Load() {
			t.tailWrote(extent{off, end})
		}
		// Transient/corrupt faults are the caller's to retry, and reads never
		// fail the write path over.
		if err == nil || op == opRead || Classify(err) != ClassPermanent {
			return err
		}
		// If a racing failover already replaced the front, count nothing and
		// let the caller retry against the new one.
		t.mu.Lock()
		stale := dev != t.tiers[t.active].dev
		t.mu.Unlock()
		if stale || t.frontErrs.Add(1) < t.failAfter || !t.failover(dev) {
			return err
		}
		// The old front's image is in place on a new one; retry the op there.
	}
}

// failover retires the front tier oldDev belongs to: with no front operation
// mid-apply and no ship running, the shipper makes the next healthy lower tier
// the front's image (Shipper.Mirror), and that tier is promoted. The new front
// is identical wherever the format looks, so in-flight saves and the engine's
// in-memory slot state stay valid. The dying front must still read (one that
// fails Sync/Persist usually does); if it does not, no tier can become it, the
// candidate stays the good lower tier it was, and there is no failover — not
// now and not on the next error. It reports whether a healthy front is in
// place afterwards (true also when a racing caller completed the failover).
func (t *Tiered) failover(oldDev Device) bool {
	t.drainMu.Lock() // no ship is writing a candidate, none starts
	defer t.drainMu.Unlock()
	t.frontMu.Lock() // no front op is mid-apply
	defer t.frontMu.Unlock()
	t.mu.Lock()
	from := t.active
	old := &t.tiers[from]
	settled, began := old.dev != oldDev || old.dead, time.Now()
	t.mu.Unlock()
	if settled {
		return old.dev != oldDev // someone else's failover went one way or the other
	}
	to, copied := -1, int64(0)
	var frontErr error
	for level := from + 1; level < len(t.tiers) && to < 0 && frontErr == nil; level++ {
		cand := &t.tiers[level]
		if cand.dead { // only ever set under drainMu
			continue
		}
		cand.wrote.Store(0)
		cand.failed.Store(false)
		err := t.shipper.Mirror(oldDev, cand)
		copied += cand.wrote.Load()
		switch {
		case err == nil:
			to = level
		case cand.failed.Load(): // counted where it happened; not a viable front
			t.mu.Lock()
			cand.dead = true
			t.mu.Unlock()
		default:
			frontErr = err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old.dead = true
	old.failovers++
	t.frontErrs.Store(0)
	if to < 0 {
		if frontErr != nil {
			old.lastErr = frontErr
		}
		t.emitError(from, int(t.failAfter), Permanent(fmt.Errorf("storage: no healthy tier to fail over to from level %d", from)))
		return false
	}
	t.active = to
	t.emit(obs.Event{
		TS: began.UnixNano(), Dur: time.Since(began).Nanoseconds(),
		Phase: obs.PhaseTierFailover, Slot: int32(to),
		Value: int64(from), Counter: t.watermark, Bytes: copied,
	})
	t.Kick() // deeper tiers now drain from the new front
	return true
}

// tailWrote: a front write landed in the format's tail region, which every
// lower tier now lacks.
func (t *Tiered) tailWrote(e extent) {
	t.mu.Lock()
	for i := range t.tiers {
		t.tiers[i].tail.add(e)
	}
	t.gen++
	t.mu.Unlock()
	t.Kick()
}

// WriteAt implements Device: applied at the front, recorded nowhere.
func (t *Tiered) WriteAt(p []byte, off int64) error { return t.front(opWrite, p, off, 0) }

// ReadAt implements Device: served by the active front, the freshest level.
func (t *Tiered) ReadAt(p []byte, off int64) error { return t.front(opRead, p, off, 0) }

// Sync implements Device: a front-tier barrier.
func (t *Tiered) Sync(off, n int64) error { return t.front(opSync, nil, off, n) }

// Persist implements Device: durable at the front tier when it returns.
func (t *Tiered) Persist(p []byte, off int64) error { return t.front(opPersist, p, off, 0) }

// CommitCheckpoint implements CheckpointCommitter. The pointer record for
// counter is durable at the front, so a ship that starts now resolves it.
func (t *Tiered) CommitCheckpoint(counter uint64) {
	t.mu.Lock()
	if !t.closed {
		t.watermark = max(t.watermark, counter)
		t.gen++
	}
	t.mu.Unlock()
	t.Kick()
}

// Size implements Device.
func (t *Tiered) Size() int64 { return t.tiers[0].dev.Size() }

// Kind implements Device: the active front's persistence semantics.
func (t *Tiered) Kind() Kind {
	t.mu.Lock()
	dev := t.tiers[t.active].dev
	t.mu.Unlock()
	return dev.Kind()
}

// Close waits out in-flight operations, ships the front's final committed
// state into every reachable tier, stops the drainer and closes all levels.
// Concurrent and repeated Closes all block until that final ship is done.
func (t *Tiered) Close() error {
	t.closing.Do(func() {
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		// Anything accepted before the close fence holds frontMu shared until
		// it has been applied, so the final ship below cannot miss it.
		t.frontMu.Lock()
		t.frontMu.Unlock() //nolint:staticcheck // empty critical section: a barrier
		if t.shipper != nil {
			close(t.stop)
			t.wg.Wait()
			t.drainAll(true) // one full attempt per tier, caught up or not
		}
		for i := range t.tiers {
			if err := t.tiers[i].dev.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
	})
	return t.closeErr
}

// --- drainer ----------------------------------------------------------------

// Kick wakes the drainer. Commits, resync requests and WaitDrained do so by
// themselves; a caller only needs it to cut the backoff short after a heal.
func (t *Tiered) Kick() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// drainLoop sleeps until a commit (or Kick) wakes it. Only after a failed
// pass does it wake by itself, backing off from retryCap to a second, so a
// tier that comes back converges without waiting for the next commit.
func (t *Tiered) drainLoop() {
	defer t.wg.Done()
	var retry <-chan time.Time
	backoff := t.retryCap
	for {
		select {
		case <-t.stop:
			return
		case <-t.kick:
			backoff = t.retryCap
		case <-retry:
		}
		if retry = nil; !t.drainAll(false) {
			retry = time.After(backoff)
			backoff = min(2*backoff, time.Second)
		}
	}
}

// drainAll runs one ship per lower tier that is behind (force: per live lower
// tier) and reports whether none failed.
func (t *Tiered) drainAll(force bool) bool {
	t.drainMu.Lock()
	defer t.drainMu.Unlock()
	t.mu.Lock()
	t.src.Device = t.tiers[t.active].dev
	t.mu.Unlock()
	ok := true
	for level := 1; level < len(t.tiers); level++ {
		ok = t.drainTier(&t.tiers[level], force) && ok
	}
	return ok
}

// drainTier ships the front's newest committed checkpoint to one lower tier
// and accounts the outcome; what became durable counts even if it then failed.
func (t *Tiered) drainTier(ts *tier, force bool) bool {
	t.mu.Lock()
	if !t.targetLocked(ts.level) || (!force && ts.gen == t.gen) {
		t.mu.Unlock()
		return true
	}
	// Sampled before the ship resolves the front: every commit counted here
	// has its pointer record durable there already.
	gen, distrust := t.gen, ts.resync != 0
	t.mu.Unlock()

	ts.wrote.Store(0)
	ts.failed.Store(false)
	ts.took = extent{}
	t.src.ts = ts
	began := time.Now()
	durable, err := t.shipper.Ship(&t.src, ts, distrust)
	now, wrote, failed := time.Now(), ts.wrote.Load(), ts.failed.Load()

	t.mu.Lock()
	ts.drainedB += wrote
	if err != nil || failed {
		ts.tail.add(ts.took) // the next ship's to copy
	}
	advanced := durable > ts.durable
	if advanced {
		ts.durable, ts.durableNS = durable, now.UnixNano()
	}
	switch {
	case err == nil:
		if wrote > 0 {
			ts.drains++
		}
		if distrust {
			ts.resyncs++
		}
	case !failed: // not a tier fault, which is counted where it happens
		ts.errors++
		ts.lastErr = err
	}
	t.mu.Unlock()

	if m, ok := ts.dev.(Marker); ok && advanced {
		m.Mark(durable) // after, never before, the persist that covers it
	}
	if err != nil && !failed {
		t.emitError(ts.level, 1, err)
	}
	if err == nil && distrust {
		t.emit(obs.Event{TS: began.UnixNano(), Phase: obs.PhaseTierResync, Slot: int32(ts.level), Bytes: wrote})
	}
	if wrote > 0 {
		t.emit(obs.Event{
			TS: began.UnixNano(), Dur: now.Sub(began).Nanoseconds(),
			Phase: obs.PhaseTierDrain, Slot: int32(ts.level),
			Counter: durable, Bytes: wrote,
		})
	}
	// Caught up only now: whoever WaitDrained releases finds the mark and the
	// events in place. A resync asked for while this ship ran still stands.
	t.mu.Lock()
	if err == nil {
		if ts.gen = gen; ts.resync <= gen {
			ts.resync = 0
		}
	}
	t.drained.Broadcast()
	t.mu.Unlock()
	return err == nil
}

// shipSource is the active front as the shipper reads it.
type shipSource struct {
	Device // set by drainAll; no failover can change the front while a pass runs
	t      *Tiered
	ts     *tier // the tier being shipped
}

func (s *shipSource) Pin(f func() (off, n int64)) {
	s.t.frontMu.Lock()
	s.t.pinOff, s.t.pinLen = f()
	s.t.clobbered.Store(false)
	s.t.frontMu.Unlock()
}

func (s *shipSource) Clobbered() bool { return s.t.clobbered.Load() }

func (s *shipSource) Tail(from int64) (off, n int64) {
	// Announced before taken: a write that missed the announcement had been
	// applied by then, so the copy about to be made reads it.
	s.t.tailOff.Store(from)
	s.t.mu.Lock()
	s.ts.took, s.ts.tail = s.ts.tail, extent{}
	s.t.mu.Unlock()
	off = max(s.ts.took.lo, from)
	return off, max(min(s.ts.took.hi, s.Size())-off, 0)
}

// do runs one of the shipper's operations on a lower level under the retry
// budget: transient faults back off exponentially and try again, anything
// else (or an exhausted budget) fails it and, first in its ship, counts a tier
// error. Bytes that landed are counted as drained.
func (ts *tier) do(op devOp, p []byte, off, n int64) error {
	t := ts.t
	backoff := t.retryBase
	for attempt := 1; ; attempt++ {
		err := op.on(ts.dev, p, off, n)
		if err == nil {
			if op == opWrite || op == opPersist {
				ts.wrote.Add(int64(len(p)))
			}
			return nil
		}
		if !IsTransient(err) || attempt >= t.retryMax {
			if !ts.failed.Swap(true) {
				t.mu.Lock()
				ts.errors++
				ts.lastErr = err
				t.mu.Unlock()
				t.emitError(ts.level, attempt, err)
			}
			return err
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, t.retryCap)
	}
}

func (ts *tier) ReadAt(p []byte, off int64) error  { return ts.do(opRead, p, off, 0) }
func (ts *tier) WriteAt(p []byte, off int64) error { return ts.do(opWrite, p, off, 0) }
func (ts *tier) Sync(off, n int64) error           { return ts.do(opSync, nil, off, n) }
func (ts *tier) Persist(p []byte, off int64) error { return ts.do(opPersist, p, off, 0) }
func (ts *tier) Size() int64                       { return ts.dev.Size() }
func (ts *tier) Kind() Kind                        { return ts.dev.Kind() }
func (ts *tier) Close() error                      { return nil } // Tiered closes the levels

func (t *Tiered) emit(ev obs.Event) {
	if t.obsv != nil {
		ev.Writer, ev.Rank = -1, -1
		t.obsv.Emit(ev)
	}
}

func (t *Tiered) emitError(level, attempt int, err error) {
	t.emit(obs.Event{
		TS: time.Now().UnixNano(), Phase: obs.PhaseTierError,
		Slot: int32(level), Attempt: int32(attempt), Value: int64(Classify(err)),
	})
}

// caughtUpLocked: every live lower tier has shipped every commit and resync
// request so far (trivially so when there never was one). mu held.
func (t *Tiered) caughtUpLocked() bool {
	for i := range t.tiers {
		if ts := &t.tiers[i]; t.targetLocked(i) && ts.gen != t.gen {
			return false
		}
	}
	return true
}

// WaitDrained blocks until every live lower tier has caught up with the
// commits (and resync requests) made so far, or until timeout. It reports
// whether the tiers converged.
func (t *Tiered) WaitDrained(timeout time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.caughtUpLocked() && !t.closed {
		t.Kick()
		// The drainer broadcasts whenever a tier moves, the timer at the
		// deadline, so a permanently failing tier cannot park us forever.
		deadline := time.Now().Add(timeout)
		timer := time.AfterFunc(timeout, func() {
			t.mu.Lock()
			t.drained.Broadcast()
			t.mu.Unlock()
		})
		defer timer.Stop()
		for !t.caughtUpLocked() && time.Now().Before(deadline) {
			t.drained.Wait()
		}
	}
	return t.caughtUpLocked()
}

// TierStatus is one level's durability standing. The drainer's accounting is
// cumulative, and zero for a level that was never a drain target.
type TierStatus struct {
	Level int  // 0 = the fastest level
	Kind  Kind // the level's persistence technology
	// DurableCounter is the newest checkpoint counter durable at this level
	// (at the active front: the commit watermark), DurableAt when it advanced.
	DurableCounter uint64
	DurableAt      time.Time
	Drains         uint64
	DrainedBytes   int64 // every byte written to the level: payloads, headers, records
	Errors         uint64
	Resyncs        uint64
	Failovers      uint64 // write-path failovers away from this level
	Active         bool   // the level serving the write path
	Failed         bool   // a level the write path has permanently abandoned
	// PendingOps is how many commits (and resync requests) this tier has not
	// caught up with; Resyncing marks a tier whose next ship distrusts it.
	PendingOps int64
	Resyncing  bool
	LastErr    error // the most recent drain error (nil when healthy)
}

// Status reports every level's durability standing, tier 0 first.
func (t *Tiered) Status() []TierStatus {
	out := make([]TierStatus, len(t.tiers))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.tiers {
		ts, st := &t.tiers[i], &out[i]
		*st = TierStatus{
			Level: i, Kind: ts.dev.Kind(), DurableCounter: ts.durable,
			Drains: ts.drains, DrainedBytes: ts.drainedB,
			Errors: ts.errors, Resyncs: ts.resyncs, Failovers: ts.failovers,
			Active: i == t.active && !ts.dead, Failed: ts.dead, LastErr: ts.lastErr,
		}
		if st.Active {
			st.DurableCounter = t.watermark
		}
		if ts.durableNS > 0 {
			st.DurableAt = time.Unix(0, ts.durableNS)
		}
		if t.targetLocked(i) {
			st.PendingOps, st.Resyncing = int64(t.gen-ts.gen), ts.resync != 0
		}
	}
	return out
}

var _ Device = (*Tiered)(nil)
var _ CheckpointCommitter = (*Tiered)(nil)
