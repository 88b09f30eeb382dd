package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pccheck/internal/pmem"
	"pccheck/internal/storage"
)

// Soak tests: long mixed workloads hammering the engine with concurrency,
// crashes and faults simultaneously. Skipped with -short.

// TestSoakCrashStorm runs rounds of: concurrent checkpointing → hard crash →
// recovery → reattach → continue. Every recovery must yield an intact
// checkpoint at least as new as everything acknowledged before the crash.
func TestSoakCrashStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		slotBytes = 4096
		rounds    = 30
		workers   = 4
	)
	rng := rand.New(rand.NewSource(7))
	region := pmem.NewRegion(int(DeviceBytes(3, slotBytes)))
	dev := storage.NewPMEM(region)
	eng, err := New(dev, Config{Concurrent: 3, SlotBytes: slotBytes, Writers: 2, ChunkBytes: 1024, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}

	var seq atomic.Uint64
	for round := 0; round < rounds; round++ {
		var acked atomic.Uint64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					p := selfPayload(seq.Add(1), 1024+wrng.Intn(2048))
					counter, err := eng.Checkpoint(context.Background(), BytesSource(p))
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Error(err)
						return
					}
					for {
						cur := acked.Load()
						if counter <= cur || acked.CompareAndSwap(cur, counter) {
							break
						}
					}
				}
			}(rng.Int63())
		}
		time.Sleep(time.Duration(1+rng.Intn(5)) * time.Millisecond)
		ackedBefore := acked.Load()
		// Fork the crash state while workers still run, then stop them.
		crashed := region.CloneDurable()
		close(stop)
		wg.Wait()
		mustCheckSlots(t, eng)

		p, counter, err := Recover(storage.NewPMEM(crashed))
		if err != nil {
			if errors.Is(err, ErrNoCheckpoint) && ackedBefore == 0 && round == 0 {
				continue
			}
			t.Fatalf("round %d: %v", round, err)
		}
		if counter < ackedBefore {
			t.Fatalf("round %d: recovered %d < acked %d", round, counter, ackedBefore)
		}
		checkSelfPayload(t, p)

		// "Reattach the disk to a new VM": continue on the crashed replica.
		region = crashed
		dev = storage.NewPMEM(region)
		eng, err = Open(dev, Config{Writers: 2, ChunkBytes: 1024, VerifyPayload: true})
		if err != nil {
			t.Fatalf("round %d reopen: %v", round, err)
		}
	}
}

// TestSoakMixedFaultsAndReaders interleaves checkpoint writers, latest
// readers and sporadic injected device faults for a sustained period.
func TestSoakMixedFaultsAndReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const slotBytes = 8192
	inner := storage.NewRAM(DeviceBytes(4, slotBytes))
	dev := storage.NewFaultDevice(inner)
	eng, err := New(dev, Config{Concurrent: 4, SlotBytes: slotBytes, Writers: 3, ChunkBytes: 2048, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	var okSaves, failedSaves, reads atomic.Int64

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(deadline) {
				p := selfPayload(uint64(rng.Int63()), 2048+rng.Intn(4096))
				if _, err := eng.Checkpoint(context.Background(), BytesSource(p)); err != nil {
					if errors.Is(err, storage.ErrInjected) {
						failedSaves.Add(1)
						continue
					}
					t.Error(err)
					return
				}
				okSaves.Add(1)
			}
		}(w)
	}
	// Fault injector.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for time.Now().Before(deadline) {
			time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
			dev.FailAfter(storage.OpWrite, int64(1+rng.Intn(8)), nil)
		}
		dev.Clear()
	}()
	// Reader: the latest checkpoint must always be intact.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, slotBytes)
		for time.Now().Before(deadline) {
			counter, size, ok := eng.Latest()
			if !ok {
				continue
			}
			gc, gs, err := eng.ReadLatest(buf)
			if err != nil {
				// A fault can hit the read-back too; only corruption is fatal.
				if errors.Is(err, storage.ErrInjected) {
					continue
				}
				t.Errorf("ReadLatest: %v", err)
				return
			}
			if gc < counter || gs <= 0 {
				t.Errorf("latest went backwards: %d -> %d (size %d)", counter, gc, size)
				return
			}
			if len(buf) >= 8 {
				seed := binary.LittleEndian.Uint64(buf)
				want := selfPayload(seed, int(gs))
				if !bytes.Equal(buf[:gs], want) {
					t.Errorf("latest checkpoint %d corrupt", gc)
					return
				}
			}
			reads.Add(1)
		}
	}()
	wg.Wait()
	if okSaves.Load() < 20 || failedSaves.Load() < 1 || reads.Load() < 20 {
		t.Fatalf("soak too weak: ok=%d failed=%d reads=%d", okSaves.Load(), failedSaves.Load(), reads.Load())
	}
	// No slots leaked across hundreds of mixed successes and failures.
	if free := eng.FreeSlots(); free != eng.sb.slots-1 {
		t.Fatalf("slots leaked: free=%d want %d", free, eng.sb.slots-1)
	}
	mustCheckSlots(t, eng)
}

// TestSoakTransientFaultStorm hammers a retry-enabled engine with concurrent
// checkpoint writers while an injector schedules bursts of transient faults
// across every device operation the persist path uses. Acknowledged saves
// must stay readable, transient bursts within the retry budget must be
// absorbed, and slot accounting must balance at the end — the invariant that
// matters most under -race.
func TestSoakTransientFaultStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const slotBytes = 8192
	inner := storage.NewRAM(DeviceBytes(4, slotBytes))
	dev := storage.NewFaultDevice(inner)
	eng, err := New(dev, Config{
		Concurrent: 4, SlotBytes: slotBytes, Writers: 3, ChunkBytes: 2048,
		VerifyPayload: true,
		Retry:         RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(1500 * time.Millisecond)
	var wg sync.WaitGroup
	var okSaves, failedSaves atomic.Int64

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for time.Now().Before(deadline) {
				p := selfPayload(uint64(rng.Int63()), 2048+rng.Intn(4096))
				if _, err := eng.Checkpoint(context.Background(), BytesSource(p)); err != nil {
					// Bursts longer than the budget may exhaust retries;
					// anything else is a bug.
					if !errors.Is(err, storage.ErrInjected) && !storage.IsTransient(err) {
						t.Errorf("unexpected error class: %v", err)
						return
					}
					failedSaves.Add(1)
					continue
				}
				okSaves.Add(1)
			}
		}(w)
	}
	// Injector: transient bursts on writes, syncs and persists, with the
	// occasional burst long enough to blow the attempt budget.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(4242))
		ops := []storage.Op{storage.OpWrite, storage.OpSync, storage.OpPersist}
		for time.Now().Before(deadline) {
			time.Sleep(time.Duration(2+rng.Intn(10)) * time.Millisecond)
			dev.FailTransient(ops[rng.Intn(len(ops))], int64(1+rng.Intn(8)), int64(1+rng.Intn(6)))
		}
		dev.Clear()
	}()
	wg.Wait()
	dev.Clear()

	s := eng.Stats()
	if okSaves.Load() < 20 || s.TransientFaults < 5 {
		t.Fatalf("soak too weak: ok=%d transient=%d", okSaves.Load(), s.TransientFaults)
	}
	if s.IORetries == 0 {
		t.Fatal("retry path never exercised")
	}
	// The latest acknowledged checkpoint must be intact.
	buf := make([]byte, slotBytes)
	if _, _, err := eng.ReadLatest(buf); err != nil {
		t.Fatalf("latest unreadable after storm: %v", err)
	}
	// Slot conservation: drive one clean save to flush any slot parked by a
	// record failure, then every slot but the published one must be free.
	if _, err := eng.Checkpoint(context.Background(), BytesSource(selfPayload(1, 2048))); err != nil {
		t.Fatalf("clean save after storm: %v", err)
	}
	if free := eng.FreeSlots(); free != eng.TotalSlots()-1 {
		t.Fatalf("slots leaked: free=%d want %d (ok=%d failed=%d)", free, eng.TotalSlots()-1, okSaves.Load(), failedSaves.Load())
	}
	mustCheckSlots(t, eng)
}
