package core

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func mustCheckSlots(t testing.TB, c *Checkpointer) {
	t.Helper()
	if err := c.checkSlots(); err != nil {
		t.Fatal(err)
	}
}

// Every (from, to) pair, from a slot in from: move takes exactly the legal
// ones, stepping the generation only where the bytes start or stop changing,
// and leaves the word alone otherwise. A slot in another state is refused.
func TestSlotTransitions(t *testing.T) {
	legal := map[[2]slotState]uint64{ // → generation step
		{stateWriting, stateHeld}: 1, // seal
		{stateWriting, stateFree}: 1, // fail
		{stateHeld, stateFree}:    0, // supersede, record durable; obsolete
		{stateHeld, stateParked}:  0, // supersede, record failed
		{stateParked, stateFree}:  0, // a newer record landed
	}
	const gen = 6
	for from := slotState(0); from < numStates; from++ {
		for to := slotState(0); to < numStates; to++ {
			g := uint64(gen)
			if from == stateWriting {
				g++ // a slot being written has an odd generation
			}
			s := newSlots(2, nil)
			s.w[0].Store(slotWord(g, from))
			step, ok := legal[[2]slotState{from, to}]
			if got := s.move(0, from, to); got != ok {
				t.Fatalf("move %v → %v = %v, want %v", from, to, got, ok)
			}
			want := slotWord(g, from)
			if ok {
				want = slotWord(g+step, to)
			}
			if w := s.w[0].Load(); w != want {
				t.Fatalf("move %v → %v: word gen %d %v, want gen %d %v", from, to, wordGen(w), wordState(w), wordGen(want), wordState(want))
			}
			if from != stateFree && (s.move(1, from, to) || s.state(1) != stateFree) {
				t.Fatalf("move %v → %v took a free slot", from, to)
			}
		}
	}

	// claim: free → writing only, generation odd; nothing left to claim.
	s := newSlots(3, []checkMeta{{slot: 1}})
	a, okA := s.claim()
	b, okB := s.claim()
	if _, ok := s.claim(); !okA || !okB || ok || a == b || a == 1 || b == 1 {
		t.Fatalf("claims = %d %v, %d %v; then %v: want slots 0 and 2, then none", a, okA, b, okB, ok)
	}
	if s.gen(a) != 1 || s.state(a) != stateWriting || s.state(1) != stateHeld {
		t.Fatalf("claimed slot gen %d %v, held slot %v", s.gen(a), s.state(a), s.state(1))
	}

	// rewrite: only a held slot at the generation the caller judged, odd
	// while fn runs, two steps on.
	ran := false
	if ok, _ := s.rewrite(a, s.gen(a), func() error { ran = true; return nil }); ok || ran {
		t.Fatal("rewrite ran on a writing slot")
	}
	if ok, _ := s.rewrite(1, 2, func() error { ran = true; return nil }); ok || ran {
		t.Fatal("rewrite ran at a stale generation")
	}
	if ok, _ := s.rewrite(1, 0, func() error { ran = s.gen(1) == 1; return nil }); !ok || !ran || s.gen(1) != 2 || s.state(1) != stateHeld {
		t.Fatalf("rewrite: ok=%v odd while running=%v, after gen %d %v", ok, ran, s.gen(1), s.state(1))
	}
}

// P goroutines claim, write, seal, publish and free over N+1 slots, the
// engine's own Listing 1 moves without the device. No slot is ever held by
// two claimers, a reader that samples the generation around a read never
// accepts a torn one, and checkSlots holds at the end.
func TestSlotsRace(t *testing.T) {
	const (
		n       = 3 // N; N+1 slots
		workers = 4 // P > N, so claims contend and some must wait
		rounds  = 2000
	)
	c := ramEngine(t, Config{Concurrent: n, SlotBytes: 1024})
	owner := make([]atomic.Int64, c.TotalSlots())
	// A slot's "bytes" are two words a writer stores one after the other.
	half := make([][2]atomic.Uint64, c.TotalSlots())
	var counter atomic.Uint64
	var wg sync.WaitGroup
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				last := c.checkAddr.Load()
				ctr := counter.Add(1)
				slot, ok := c.slots.claim()
				for ; !ok; slot, ok = c.slots.claim() {
					if t.Failed() {
						return
					}
					runtime.Gosched()
				}
				if prev := owner[slot].Swap(id); prev != 0 {
					t.Errorf("slot %d claimed by %d while %d holds it", slot, id, prev)
					return
				}
				if g := c.slots.gen(slot); g%2 == 0 {
					t.Errorf("slot %d claimed at even generation %d: readers cannot see it change", slot, g)
					return
				}
				half[slot][0].Store(ctr)
				runtime.Gosched()
				half[slot][1].Store(ctr)
				owner[slot].Store(0)
				if !c.slots.move(slot, stateWriting, stateHeld) {
					t.Errorf("seal of slot %d refused", slot)
					return
				}
				cur := &checkMeta{slot: slot, counter: ctr}
				for {
					if c.checkAddr.CompareAndSwap(last, cur) {
						if last != nil {
							c.retire(last.slot, nil)
						}
						break
					}
					if last = c.checkAddr.Load(); last.counter > ctr {
						c.slots.move(slot, stateHeld, stateFree) // obsolete
						break
					}
				}
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	var reads, torn atomic.Int64
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := c.checkAddr.Load()
			if m == nil {
				continue
			}
			g := c.slots.gen(m.slot)
			if g%2 == 1 {
				continue
			}
			a, b := half[m.slot][0].Load(), half[m.slot][1].Load()
			if c.slots.gen(m.slot) != g {
				continue
			}
			reads.Add(1)
			if a != b {
				torn.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if reads.Load() == 0 || torn.Load() > 0 {
		t.Fatalf("%d of %d generation-validated reads were torn", torn.Load(), reads.Load())
	}
	if free := c.FreeSlots(); free != c.TotalSlots()-1 {
		t.Fatalf("free slots = %d, want %d", free, c.TotalSlots()-1)
	}
	mustCheckSlots(t, c)
}

// Sequential saves rotate through every slot, as a FIFO free queue would, so
// a superseded version stays on the device (ReadVersion) for N more saves.
func TestSlotClaimRoundRobin(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 2, SlotBytes: 1024})
	var got []int
	for i := 0; i < 7; i++ {
		if _, err := c.Checkpoint(context.Background(), BytesSource(payload(int64(i), 100))); err != nil {
			t.Fatal(err)
		}
		got = append(got, c.checkAddr.Load().slot)
	}
	if want := []int{0, 1, 2, 0, 1, 2, 0}; !slices.Equal(got, want) {
		t.Fatalf("saves landed in slots %v, want %v", got, want)
	}
	if _, err := c.ReadVersion(5); err != nil {
		t.Fatalf("version 5, superseded two saves ago: %v", err)
	}
}

// Random claims, moves and rewrites against a mutex-guarded reference that
// spells the lifecycle out case by case: the words must agree after every
// operation.
func TestSlotsAgainstModel(t *testing.T) {
	type slot struct {
		st  slotState
		gen uint64
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 5
		s, model, last := newSlots(n, nil), make([]slot, n), n-1
		for op := 0; op < 2000; op++ {
			i, from, to := rng.Intn(n), slotState(rng.Intn(int(numStates))), slotState(rng.Intn(int(numStates)))
			switch rng.Intn(3) {
			case 0:
				got, ok := s.claim()
				want, wantOK := 0, false
				for k := 1; k <= n && !wantOK; k++ {
					if j := (last + k) % n; model[j].st == stateFree {
						want, wantOK, last = j, true, j
						model[j] = slot{stateWriting, model[j].gen + 1}
					}
				}
				if got != want || ok != wantOK {
					t.Fatalf("seed %d op %d: claim = %d %v, want %d %v", seed, op, got, ok, want, wantOK)
				}
			case 1:
				ok := s.move(i, from, to)
				m := &model[i]
				wantOK := m.st == from
				switch {
				case wantOK && from == stateWriting && (to == stateHeld || to == stateFree):
					*m = slot{to, m.gen + 1}
				case wantOK && (from == stateHeld && (to == stateFree || to == stateParked) || from == stateParked && to == stateFree):
					m.st = to
				default:
					wantOK = false
				}
				if ok != wantOK {
					t.Fatalf("seed %d op %d: move %d %v → %v = %v, want %v", seed, op, i, from, to, ok, wantOK)
				}
			default:
				g := model[i].gen - uint64(rng.Intn(2))
				ok, _ := s.rewrite(i, g, func() error { return nil })
				if want := model[i].st == stateHeld && model[i].gen == g; ok != want {
					t.Fatalf("seed %d op %d: rewrite %d at gen %d = %v, want %v", seed, op, i, g, ok, want)
				} else if ok {
					model[i].gen += 2
				}
			}
			for j := range model {
				if w := s.w[j].Load(); w != slotWord(model[j].gen, model[j].st) {
					t.Fatalf("seed %d op %d: slot %d is gen %d %v, model gen %d %v", seed, op, j, wordGen(w), wordState(w), model[j].gen, model[j].st)
				}
			}
		}
	}
}
