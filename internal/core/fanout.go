package core

import (
	"slices"
	"sync"
	"sync/atomic"
)

// fanout is the engine's one parallel mechanism (§3.3: p threads each take a
// share of a checkpoint, and the shares are joined). The first error of a pass
// wins and ends it, each lane looks for it between pieces, and per-piece CRCs
// are joined in piece order. Goroutines start from one prebuilt lane func and
// take lane numbers from a counter, and an owner keeps a pass's arguments in
// its own fields, so once a pass as long has run, a pass allocates nothing.
// The lane func captures the fanout: a built owner is never copied.
//
// A cut pass (run) gives lane w the w-th contiguous run of a pieceCut's
// pieces, lane 0 on the caller; its body is the owner, a cutter. A save's
// writers take pieces from a queue as the producer stages them, so there all
// p lanes are goroutines (build, start, wait).
type fanout struct {
	lane   func()       // what each goroutine started runs
	next   atomic.Int64 // the lane the last one started took
	wg     sync.WaitGroup
	failed atomic.Bool
	err    error  // the first failure's; read after wait
	folds  []fold // piece i's CRC and length
	// The running cut pass: its pieces, lanes and body.
	cut  pieceCut
	p    int64
	work cutter
}

// cutter is a cut pass's body: it does piece [lo, hi) on lane w and returns
// the piece's CRC.
type cutter interface {
	piece(w int, lo, hi int64) (uint32, error)
}

// fold is the CRC of n bytes.
type fold struct {
	crc uint32
	n   int64
}

// build makes body(w) what lane w runs as a goroutine, with room for k pieces.
func (f *fanout) build(body func(w int), k int64) {
	f.lane = func() { defer f.wg.Done(); body(int(f.next.Add(1))) }
	f.slots(k)
}

// slots gives f room for k pieces.
func (f *fanout) slots(k int64) {
	f.folds = slices.Grow(f.folds[:0], int(k))[:k]
}

// start begins a pass with lanes [from, p) as goroutines.
func (f *fanout) start(from, p int) {
	f.failed.Store(false)
	f.err = nil
	f.next.Store(int64(from) - 1)
	f.wg.Add(p - from)
	for range p - from {
		go f.lane()
	}
}

// wait ends a pass and returns its first error.
func (f *fanout) wait() error {
	f.wg.Wait()
	return f.err
}

// run is a cut pass of work over cut on min(p, cut.k) lanes. The lane func is
// built by the first pass that starts a goroutine.
func (f *fanout) run(cut pieceCut, p int, work cutter) error {
	f.cut, f.p, f.work = cut, min(int64(p), cut.k), work
	if f.lane == nil && f.p > 1 {
		f.build(f.runs, 0)
	}
	f.slots(cut.k)
	f.start(1, int(f.p))
	f.runs(0)
	return f.wait()
}

// runs is lane w of a cut pass: pieces [w·k/p, (w+1)·k/p). A lane's first
// piece always runs, so lanes started together all reach the device.
func (f *fanout) runs(w int) {
	for i := int64(w) * f.cut.k / f.p; i < int64(w+1)*f.cut.k/f.p; i++ {
		lo, hi := f.cut.start(i), f.cut.start(i+1)
		crc, err := f.work.piece(w, lo, hi)
		if f.done(i, crc, hi-lo, err); f.failed.Load() {
			return
		}
	}
}

// done reports piece i: its CRC and length, or the error that ends the pass.
func (f *fanout) done(i int64, crc uint32, n int64, err error) {
	if err != nil {
		f.fail(err)
	}
	f.folds[i] = fold{crc, n}
}

// fail ends the pass unless it has failed already.
func (f *fanout) fail(err error) {
	if f.failed.CompareAndSwap(false, true) {
		f.err = err
	}
}

// crc joins the CRCs of pieces [0, k) in piece order.
func (f *fanout) crc(k int64) (crc uint32) {
	for _, p := range f.folds[:k] {
		crc = crc32Combine(crc, p.crc, p.n)
	}
	return crc
}
