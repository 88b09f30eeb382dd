package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// slotState is where a slot is in its lifecycle (§4.1, Listing 1). held is a
// sealed slot: published, a link of the delta chain, or a save about to
// publish. parked is a superseded slot the durable pointer record may still
// name (that record's successor failed to persist); a newer record frees it.
type slotState uint64

const (
	stateFree slotState = iota
	stateWriting
	stateHeld
	stateParked
	numStates
)

func (s slotState) String() string { return [...]string{"free", "writing", "held", "parked"}[s] }

// A slot word is gen<<stateBits | state. The generation is odd exactly while
// the slot's bytes change: a claim makes it odd, a seal or fail even again,
// and the scrubber's in-place rewrite takes a held slot odd and back.
const stateBits = 2

func slotWord(gen uint64, st slotState) uint64 { return gen<<stateBits | uint64(st) }
func wordState(w uint64) slotState             { return slotState(w & (1<<stateBits - 1)) }
func wordGen(w uint64) uint64                  { return w >> stateBits }

// slotMoves is the transition table: each legal move's generation step, -1
// for an illegal one. A claim (free → writing) and an in-place rewrite
// (held → held) have methods of their own.
var slotMoves = [numStates][numStates]int8{
	stateFree:    {-1, -1, -1, -1},
	stateWriting: {1, -1, 1, -1}, // fail, seal
	stateHeld:    {0, -1, -1, 0}, // superseded: the record it needs is durable, or not yet
	stateParked:  {0, -1, -1, -1},
}

// slots is one state word per checkpoint slot and the only way into or out
// of the free pool. A slot goes to exactly one claimer, because a claim CASes
// its word from free, and a held or parked slot is never claimed, so the
// newest persisted checkpoint is never overwritten.
type slots struct {
	w    []atomic.Uint64
	last atomic.Int64 // the slot claimed last; the next scan starts after it
}

// newSlots returns n slots, those of held sealed and the rest free.
func newSlots(n int, held []checkMeta) *slots {
	s := &slots{w: make([]atomic.Uint64, n)}
	for _, m := range held {
		s.w[m.slot].Store(slotWord(0, stateHeld))
	}
	s.last.Store(int64(n - 1))
	return s
}

// claim scans the words round-robin from the slot claimed last and CASes the
// first free one to writing. ok is false when no slot is free.
func (s *slots) claim() (slot int, ok bool) {
	n, from := len(s.w), int(s.last.Load())
	for k := 1; k <= n; k++ {
		i := (from + k) % n
		if w := s.w[i].Load(); wordState(w) == stateFree && s.w[i].CompareAndSwap(w, slotWord(wordGen(w)+1, stateWriting)) {
			s.last.Store(int64(i))
			return i, true
		}
	}
	return 0, false
}

// move changes slot i from state from to state to, stepping the generation as
// slotMoves says. It refuses, changing nothing, an illegal pair or a slot not
// in from. A held slot mid-rewrite is waited out: it must not leave held with
// its bytes still changing.
func (s *slots) move(i int, from, to slotState) bool {
	step := slotMoves[from][to]
	for step >= 0 {
		w := s.w[i].Load()
		if wordState(w) != from {
			return false
		}
		if from == stateHeld && wordGen(w)%2 == 1 {
			runtime.Gosched()
		} else if s.w[i].CompareAndSwap(w, slotWord(wordGen(w)+uint64(step), to)) {
			return true
		}
	}
	return false
}

// rewrite runs fn, which changes held slot i's bytes in place, with the
// generation odd around it so readers retry instead of tearing. gen is the
// generation the caller judged the bytes under: a slot recycled since, or no
// longer held, is not rewritten and rewrite reports false.
func (s *slots) rewrite(i int, gen uint64, fn func() error) (bool, error) {
	if !s.w[i].CompareAndSwap(slotWord(gen, stateHeld), slotWord(gen+1, stateHeld)) {
		return false, nil
	}
	defer s.w[i].Add(1 << stateBits)
	return true, fn()
}

// gen samples slot i's generation before a read; stable tells, after it,
// whether the bytes held still throughout: the sample was even and is current.
func (s *slots) gen(i int) uint64            { return wordGen(s.w[i].Load()) }
func (s *slots) stable(i int, g uint64) bool { return g%2 == 0 && s.gen(i) == g }

func (s *slots) state(i int) slotState { return wordState(s.w[i].Load()) }

func (s *slots) count(st slotState) int {
	n := 0
	for i := range s.w {
		if s.state(i) == st {
			n++
		}
	}
	return n
}

// checkSlots checks the slot lifecycle's invariant, valid at quiescence (no
// save, repair or read in flight) and O(slots): the states account for every
// slot, none is writing, the held slots are exactly the published one (the
// chain in delta mode), and every slot the newest durable pointer record
// resolves to is held or parked, so no claim can reach it (past a scrubber
// tombstone that is the older record, whose slots nothing holds).
func (c *Checkpointer) checkSlots() error {
	if c.sb.deltaKeyframe > 0 {
		c.deltaMu.Lock()
		defer c.deltaMu.Unlock()
	}
	published := c.chain
	if m := c.checkAddr.Load(); c.sb.deltaKeyframe == 0 && m != nil {
		published = []checkMeta{*m}
	}
	pub := make([]bool, c.sb.slots)
	for _, m := range published {
		pub[m.slot] = true
	}
	var n [numStates]int
	for i := range c.slots.w {
		st := c.slots.state(i)
		if n[st]++; st == stateWriting || (st == stateHeld) != pub[i] {
			return fmt.Errorf("slot %d is %v at quiescence (published: %v)", i, st, pub[i])
		}
	}
	if sum := n[stateFree] + n[stateWriting] + n[stateHeld] + n[stateParked]; sum != c.sb.slots {
		return fmt.Errorf("slot states %v sum to %d, not %d slots", n, sum, c.sb.slots)
	}

	chain, _, err := resolve(c.dev, c.sb, 0, nil)
	if err != nil && err != ErrNoCheckpoint {
		return fmt.Errorf("resolve the durable record: %w", err)
	}
	for _, m := range chain {
		if st := c.slots.state(m.slot); st != stateHeld && st != stateParked {
			return fmt.Errorf("slot %d, which the durable record resolves to, is %v", m.slot, st)
		}
	}
	return nil
}
