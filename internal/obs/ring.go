package obs

import (
	"runtime"
	"sync/atomic"
)

// ring is a bounded multi-producer multi-consumer event buffer in the
// style of Vyukov's MPMC array queue: every cell carries an atomic
// sequence number that hands exclusive ownership back and forth between
// producers and consumers; a snapshot reads cells it does not own, so the
// Event is held in atomic words. When the ring is full, producers discard
// the oldest buffered event instead of blocking or dropping the newest —
// flight-recorder semantics: the buffer always holds the most recent
// window of activity.
type ring struct {
	mask    uint64
	enq     atomic.Uint64
	deq     atomic.Uint64
	dropped atomic.Uint64
	cells   []ringCell
}

type ringCell struct {
	// seq encodes the cell's state relative to the cursors: seq == pos
	// means free for the producer claiming position pos; seq == pos+1
	// means it holds that position's event; seq == pos+capacity means the
	// event was consumed and the cell is free for the next lap.
	seq atomic.Uint64
	w   [8]atomic.Uint64 // the Event, packed by store
}

func (c *ringCell) store(ev Event) {
	for i, v := range [8]uint64{uint64(ev.TS), uint64(ev.Dur), ev.Counter, uint64(ev.Bytes), uint64(ev.Value),
		uint64(ev.Phase) | uint64(uint32(ev.Attempt))<<32, uint64(uint32(ev.Slot)) | uint64(uint32(ev.Writer))<<32, uint64(uint32(ev.Rank))} {
		c.w[i].Store(v)
	}
}

func (c *ringCell) load() Event {
	var w [8]uint64
	for i := range w {
		w[i] = c.w[i].Load()
	}
	return Event{TS: int64(w[0]), Dur: int64(w[1]), Counter: w[2], Bytes: int64(w[3]), Value: int64(w[4]),
		Phase: Phase(w[5]), Attempt: int32(w[5] >> 32), Slot: int32(w[6]), Writer: int32(w[6] >> 32), Rank: int32(w[7])}
}

// newRing allocates a ring holding capacity events, rounded up to a power
// of two (minimum 64 so bursts of concurrent producers cannot lap each
// other pathologically).
func newRing(capacity int) *ring {
	n := 64
	for n < capacity {
		n <<= 1
	}
	r := &ring{mask: uint64(n - 1), cells: make([]ringCell, n)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// put stores ev, discarding the oldest buffered event when full. It is
// lock-free: a stalled producer cannot block others, and no path
// allocates.
func (r *ring) put(ev Event) {
	for {
		pos := r.enq.Load()
		c := &r.cells[pos&r.mask]
		seq := c.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.store(ev)
				c.seq.Store(pos + 1)
				return
			}
		case seq < pos:
			// The cell still holds an event from one lap ago: the ring is
			// full. Consume and discard the oldest, then retry.
			r.stealOldest()
		default:
			// Another producer claimed this position and has not yet
			// published; its seq store is imminent.
			runtime.Gosched()
		}
	}
}

// stealOldest discards the event at the consume cursor, if any, freeing
// one cell for a producer that found the ring full.
func (r *ring) stealOldest() {
	pos := r.deq.Load()
	c := &r.cells[pos&r.mask]
	if c.seq.Load() != pos+1 {
		return // empty, or a concurrent consumer got there first
	}
	if r.deq.CompareAndSwap(pos, pos+1) {
		c.seq.Store(pos + uint64(len(r.cells)))
		r.dropped.Add(1)
	}
}

// drain consumes every buffered event, oldest first. Producers may keep
// appending concurrently; drain returns once it catches an empty cursor.
func (r *ring) drain() []Event {
	var out []Event
	for {
		pos := r.deq.Load()
		c := &r.cells[pos&r.mask]
		if c.seq.Load() != pos+1 {
			return out
		}
		if r.deq.CompareAndSwap(pos, pos+1) {
			ev := c.load()
			c.seq.Store(pos + uint64(len(r.cells)))
			out = append(out, ev)
		}
	}
}

// snapshot copies every buffered event, oldest first (see tail).
func (r *ring) snapshot() []Event {
	return r.tail(make([]Event, 0, r.len()), len(r.cells))
}

// tail copies the newest n buffered events into dst[:0], oldest first,
// WITHOUT consuming: concurrent consumers still observe the same events. It
// is weakly consistent under concurrent producers — a cell not yet published
// or recycled mid-copy ends the walk — so it returns a contiguous, in-order
// run of the buffered window.
func (r *ring) tail(dst []Event, n int) []Event {
	dst = dst[:0]
	start := r.deq.Load() // before enq, so start <= end
	end := r.enq.Load()
	if end-start > uint64(n) {
		start = end - uint64(n)
	}
	for pos := start; pos < end; pos++ {
		c := &r.cells[pos&r.mask]
		if c.seq.Load() != pos+1 {
			break // not yet published, or consumed ahead of us
		}
		ev := c.load()
		if c.seq.Load() != pos+1 {
			break // recycled mid-copy; ev may be torn — stop before it
		}
		dst = append(dst, ev)
	}
	return dst
}

// len reports how many events are currently buffered (approximate under
// concurrency).
func (r *ring) len() int {
	e, d := r.enq.Load(), r.deq.Load()
	if e < d {
		return 0
	}
	return int(e - d)
}
