package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// A BytesSource payload is persisted from where it lies; any other source is
// staged through the chunk pool (see writePayload). The tests here hold the
// two ways of obtaining a piece to one result: the same bytes on the device,
// the same counters, the caller's buffer never written, the same allocation
// budget, the same reaction to a cancelled context.

// scriptStep is one save of a scripted sequence: mutate evolves the payload
// (it may replace it) and returns the ranges to feed the dirty tracker, nil
// for none.
type scriptStep struct {
	name   string
	mutate func(p []byte) ([]byte, [][2]int64)
}

type saveScript struct {
	name  string
	cfg   Config
	steps []scriptStep // the first one makes the initial payload
}

// saveScripts covers, per configuration, every shape of piece writePayload
// cuts: full mode with a short last piece; delta keyframe, content-hash
// delta, trusted-tracker delta, the dense restart, size changes in both
// directions, and a payload that is a multiple of neither the piece nor the
// granule.
func saveScripts() []saveScript {
	sparse := func(seed, step uint64, marks bool) scriptStep {
		name := "sparse"
		if marks {
			name = "tracked"
		}
		return scriptStep{name, func(p []byte) ([]byte, [][2]int64) {
			r := mutateSparse(p, seed, step)
			if !marks {
				r = nil
			}
			return p, r
		}}
	}
	replace := func(name string, p []byte) scriptStep {
		return scriptStep{name, func([]byte) ([]byte, [][2]int64) { return p, nil }}
	}
	resize := func(name string, seed int64, n int) scriptStep {
		return scriptStep{name, func(p []byte) ([]byte, [][2]int64) {
			if n <= len(p) {
				return p[:n:n], nil
			}
			return append(p[:len(p):len(p)], payload(seed, n-len(p))...), nil
		}}
	}
	return []saveScript{
		{"full", Config{Concurrent: 2, SlotBytes: 10_000, Writers: 3, ChunkBytes: 3000, VerifyPayload: true}, []scriptStep{
			replace("first", payload(1, 9999)), replace("same size", payload(2, 9999)), replace("one piece", payload(3, 3000)),
			replace("one byte", payload(4, 1)), replace("empty", nil), replace("slot-sized", payload(6, 10_000)),
		}},
		// Granule 64, pieces of 192 (ChunkBytes rounded down to whole granules).
		{"delta", Config{Concurrent: 1, SlotBytes: 8192, Writers: 2, ChunkBytes: 200, VerifyPayload: true, DeltaKeyframe: 4}, []scriptStep{
			replace("first", sparsePayload(7, 0, 5001)), sparse(7, 1, false), sparse(7, 2, true), sparse(7, 3, false),
			replace("dense restart", payload(8, 5001)), replace("dense", payload(9, 5001)),
			sparse(7, 4, false), sparse(7, 5, false),
			resize("grow", 10, 6007), sparse(7, 6, true), resize("shrink", 0, 3001),
			sparse(7, 7, false), sparse(7, 8, false), sparse(7, 9, false), sparse(7, 10, false),
		}},
		{"delta-unchunked", Config{Concurrent: 1, SlotBytes: 1 << 16, Writers: 1, DeltaKeyframe: 2}, []scriptStep{
			replace("first", sparsePayload(11, 0, 40_000)), sparse(11, 1, true), sparse(11, 2, false), sparse(11, 3, false),
			resize("grow", 12, 1<<16),
		}},
	}
}

// run plays the script: before each save it evolves the payload, feeds the
// step's marks to every engine's tracker, and hands save the payload.
func (sc saveScript) run(t *testing.T, engines []*Checkpointer, save func(tag string, p []byte)) {
	var p []byte
	for i, step := range sc.steps {
		var marks [][2]int64
		p, marks = step.mutate(p)
		for _, c := range engines {
			for _, r := range marks {
				c.DirtyTracker().MarkRange(r[0], r[1])
			}
		}
		save(fmt.Sprintf("save %d (%s)", i, step.name), p)
	}
	if st := engines[0].Stats(); sc.cfg.DeltaKeyframe > 0 && (st.DeltaSaves == 0 || st.KeyframeSaves < 2) {
		t.Fatalf("script saved %d deltas and %d keyframes: a shape went untested", st.DeltaSaves, st.KeyframeSaves)
	}
}

func deviceImage(t *testing.T, dev storage.Device) []byte {
	t.Helper()
	img := make([]byte, dev.Size())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

// TestViewAndStagedImagesIdentical feeds two engines the same saves, one
// through BytesSource and one through a source that hides the memory, and
// compares the whole device and the counters after every save.
func TestViewAndStagedImagesIdentical(t *testing.T) {
	for _, sc := range saveScripts() {
		t.Run(sc.name, func(t *testing.T) {
			view, viewDev := deltaEngine(t, sc.cfg)
			stag, stagDev := deltaEngine(t, sc.cfg)
			defer view.Close()
			defer stag.Close()
			sc.run(t, []*Checkpointer{view, stag}, func(tag string, p []byte) {
				if _, err := view.Checkpoint(context.Background(), BytesSource(p)); err != nil {
					t.Fatalf("%s, view: %v", tag, err)
				}
				if _, err := stag.Checkpoint(context.Background(), staged(p)); err != nil {
					t.Fatalf("%s, staged: %v", tag, err)
				}
				if !bytes.Equal(deviceImage(t, viewDev), deviceImage(t, stagDev)) {
					t.Fatalf("%s: device images differ", tag)
				}
				vs, ss := view.Stats(), stag.Stats()
				vs.Persist, ss.Persist = 0, 0 // wall time
				if vs != ss {
					t.Fatalf("%s: stats differ:\n view   %+v\n staged %+v", tag, vs, ss)
				}
				if got, _, err := Recover(viewDev); err != nil || !bytes.Equal(got, p) {
					t.Fatalf("%s: recover: err=%v equal=%v", tag, err, bytes.Equal(got, p))
				}
			})
		})
	}
}

// TestSaveNeverWritesPayload: the engine reads an in-memory payload where it
// lies and must never write it — the delta stage in particular compacts
// dirty granules, and must do so into a pooled chunk. Each scripted save is
// bracketed by a checksum of the payload, and another goroutine keeps reading
// the payload while the save runs (which the contract allows: it forbids
// mutation only), so under -race an engine write is a reported race.
func TestSaveNeverWritesPayload(t *testing.T) {
	for _, sc := range saveScripts() {
		t.Run(sc.name, func(t *testing.T) {
			c, _ := deltaEngine(t, sc.cfg)
			defer c.Close()
			sc.run(t, []*Checkpointer{c}, func(tag string, p []byte) {
				before := crc32.ChecksumIEEE(p)
				var stop atomic.Bool
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if crc32.ChecksumIEEE(p) != before {
							t.Errorf("%s: payload changed during the save", tag)
							return
						}
					}
				}()
				_, err := c.Checkpoint(context.Background(), BytesSource(p))
				stop.Store(true)
				wg.Wait()
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if crc32.ChecksumIEEE(p) != before {
					t.Fatalf("%s: the engine wrote the caller's payload", tag)
				}
			})
		})
	}
}

// TestSaveAllocs bounds what a save allocates once its slot's plumbing is
// pooled. What is left is the source box and the published checkMeta; a
// keyframe also starts a new chain slice. Freeing a slot allocates nothing.
func TestSaveAllocs(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		name   string
		cfg    Config
		source func([]byte) Source
		max    float64 // mallocs per save
	}{
		{"full/view", Config{Concurrent: 2}, BytesSource, 2},
		{"full/staged", Config{Concurrent: 2}, staged, 3}, // the source is boxed twice
		// K=1: every other save is a keyframe; K=64: none of the measured ones.
		{"keyframe/view", Config{Concurrent: 1, DeltaKeyframe: 1}, BytesSource, 3},
		{"keyframe/staged", Config{Concurrent: 1, DeltaKeyframe: 1}, staged, 4},
		{"delta/view", Config{Concurrent: 1, DeltaKeyframe: 64}, BytesSource, 2},
		{"delta/staged", Config{Concurrent: 1, DeltaKeyframe: 64}, staged, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.SlotBytes, cfg.Writers, cfg.ChunkBytes, cfg.VerifyPayload = size, 2, size/8, true
			c, _ := deltaEngine(t, cfg)
			defer c.Close()
			p := payload(1, size)
			step := 0
			save := func() {
				step++
				dirty5(p, step)
				if _, err := c.Checkpoint(context.Background(), tc.source(p)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4; i++ { // warm the pass buffers and the chain slice
				save()
			}
			if got := testing.AllocsPerRun(40, save); got > tc.max {
				t.Errorf("a save makes %.1f allocations, want at most %.0f", got, tc.max)
			}
			if st := c.Stats(); cfg.DeltaKeyframe == 64 && st.DeltaSaves < 40 || cfg.DeltaKeyframe == 1 && st.KeyframeSaves < 20 {
				t.Fatalf("measured the wrong kind of save: %d deltas, %d keyframes", st.DeltaSaves, st.KeyframeSaves)
			}
		})
	}
}

// cancelOnFirstPersist cancels a save's context as its first piece lands.
type cancelOnFirstPersist struct {
	cancel context.CancelFunc
	at     atomic.Int64 // UnixNano of the cancel, 0 before
}

func (o *cancelOnFirstPersist) Emit(ev obs.Event) {
	if ev.Phase == obs.PhasePersist && o.at.CompareAndSwap(0, time.Now().UnixNano()) {
		o.cancel()
	}
}

// TestCancelEndsSaveAtNextPiece: a cancelled context ends a save at the next
// piece — whichever way pieces are obtained — instead of only when the
// chunk pool happens to be empty. The device is throttled to one piece per
// pieceTime and the pool is larger than the payload, so Acquire never
// blocks; p pieces are in flight at the cancel and share the device, so the
// save is over within p = 2 piece-times (at the parent commit it ran its
// remaining 7 to the end).
func TestCancelEndsSaveAtNextPiece(t *testing.T) {
	const (
		piece     = 32 << 10
		pieces    = 8
		pieceTime = 40 * time.Millisecond
	)
	for _, tc := range []struct {
		name   string
		source func([]byte) Source
	}{{"view", BytesSource}, {"staged", staged}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			watch := &cancelOnFirstPersist{cancel: cancel}
			cfg := Config{Concurrent: 1, SlotBytes: pieces * piece, Writers: 2, ChunkBytes: piece,
				DRAMBudget: 2 * pieces * piece, Observer: watch}
			dev, err := storage.OpenSSD(t.TempDir()+"/dev", DeviceBytesFor(cfg),
				storage.WithSSDThrottle(storage.NewThrottle(piece/pieceTime.Seconds())))
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			c, err := New(dev, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			p := payload(1, pieces*piece)

			_, err = c.Checkpoint(ctx, tc.source(p))
			took := time.Duration(time.Now().UnixNano() - watch.at.Load())
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled save: err = %v, want context.Canceled", err)
			}
			// Two piece-times, and one more of slack for a loaded machine.
			if took > 3*pieceTime {
				t.Errorf("save ended %v after the cancel, want within %v", took, 2*pieceTime)
			}
			if free, want := c.FreeSlots(), c.TotalSlots()-c.PinnedSlots(); free != want {
				t.Errorf("%d free slots after the cancelled save, want %d", free, want)
			}
			if st := c.Stats(); st.FailedSaves != 1 || st.Checkpoints != 0 {
				t.Errorf("stats after the cancelled save: %+v", st)
			}
			if c.pool.Free() != c.pool.Total() {
				t.Errorf("%d of %d chunks back in the pool", c.pool.Free(), c.pool.Total())
			}
			watch.at.Store(1) // disarm
			if _, err := c.Checkpoint(context.Background(), tc.source(p)); err != nil {
				t.Fatalf("save after the cancelled one: %v", err)
			}
			if got, _, err := Recover(dev); err != nil || !bytes.Equal(got, p) {
				t.Fatalf("recover: err=%v equal=%v", err, bytes.Equal(got, p))
			}
		})
	}
}
