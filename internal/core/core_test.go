package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"pccheck/internal/storage"
)

func ramEngine(t *testing.T, cfg Config) *Checkpointer {
	t.Helper()
	dev := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func payload(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestConfigValidation(t *testing.T) {
	dev := storage.NewRAM(1 << 20)
	if _, err := New(dev, Config{Concurrent: 0, SlotBytes: 100}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(dev, Config{Concurrent: 1, SlotBytes: 0}); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := New(dev, Config{Concurrent: 100, SlotBytes: 1 << 20}); err == nil {
		t.Fatal("undersized device accepted")
	}
}

func TestCheckpointReadLatestRoundTrip(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 2, SlotBytes: 4096, Writers: 2, VerifyPayload: true})
	want := payload(1, 3000)
	counter, err := c.Checkpoint(context.Background(), BytesSource(want))
	if err != nil {
		t.Fatal(err)
	}
	if counter != 1 {
		t.Fatalf("first counter = %d, want 1", counter)
	}
	got := make([]byte, 4096)
	gotCounter, size, err := c.ReadLatest(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotCounter != 1 || size != 3000 {
		t.Fatalf("ReadLatest meta = %d/%d", gotCounter, size)
	}
	if !bytes.Equal(got[:size], want) {
		t.Fatal("payload mismatch")
	}
}

func TestSequentialCheckpointsAdvance(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true})
	for i := 1; i <= 10; i++ {
		want := payload(int64(i), 512+i)
		counter, err := c.Checkpoint(context.Background(), BytesSource(want))
		if err != nil {
			t.Fatal(err)
		}
		if counter != uint64(i) {
			t.Fatalf("counter = %d, want %d", counter, i)
		}
		got := make([]byte, 1024)
		gc, size, err := c.ReadLatest(got)
		if err != nil {
			t.Fatal(err)
		}
		if gc != uint64(i) || !bytes.Equal(got[:size], want) {
			t.Fatalf("latest after %d checkpoints is %d", i, gc)
		}
	}
	st := c.Stats()
	if st.Checkpoints != 10 || st.Obsolete != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestTooLarge(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 100})
	if _, err := c.Checkpoint(context.Background(), BytesSource(make([]byte, 101))); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 100, VerifyPayload: true})
	if _, err := c.Checkpoint(context.Background(), BytesSource(nil)); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	got := make([]byte, 0)
	counter, size, err := c.ReadLatest(got)
	if err != nil || counter != 1 || size != 0 {
		t.Fatalf("empty latest: %d/%d/%v", counter, size, err)
	}
}

func TestClosedEngine(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 100})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource([]byte("x"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestNoCheckpointYet(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 100})
	if _, _, ok := c.Latest(); ok {
		t.Fatal("Latest on empty engine reported ok")
	}
	if _, _, err := c.ReadLatest(make([]byte, 100)); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestPipelinedChunks(t *testing.T) {
	// 64 KB payload through 4 KB chunks with a 16 KB DRAM budget: staging it,
	// the producer must recycle the pool's four chunks; in memory it is
	// persisted in place, in the same 16 pieces.
	c := ramEngine(t, Config{
		Concurrent: 2, SlotBytes: 64 << 10,
		Writers: 3, ChunkBytes: 4 << 10, DRAMBudget: 16 << 10,
		VerifyPayload: true,
	})
	for i, source := range []func([]byte) Source{staged, BytesSource} {
		want := payload(int64(7+i), 64<<10)
		if _, err := c.Checkpoint(context.Background(), source(want)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 64<<10)
		if _, _, err := c.ReadLatest(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("pipelined payload mismatch")
		}
	}
}

func TestUnalignedPayloadAndChunks(t *testing.T) {
	// Payload not a multiple of the chunk size exercises the short final
	// piece, staged and in place.
	c := ramEngine(t, Config{
		Concurrent: 1, SlotBytes: 10_000,
		Writers: 2, ChunkBytes: 3000, DRAMBudget: 6000,
		VerifyPayload: true,
	})
	for i, source := range []func([]byte) Source{staged, BytesSource} {
		want := payload(int64(9+i), 9999)
		if _, err := c.Checkpoint(context.Background(), source(want)); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 9999)
		if _, _, err := c.ReadLatest(got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("unaligned payload mismatch")
		}
	}
}

// TestConcurrentCheckpointers is the core concurrency test: many goroutines
// checkpoint simultaneously; afterwards the latest checkpoint must be intact
// and every slot accounted for.
func TestConcurrentCheckpointers(t *testing.T) {
	const workers, rounds = 8, 30
	c := ramEngine(t, Config{Concurrent: 3, SlotBytes: 8192, Writers: 2, VerifyPayload: true})
	payloads := make(map[uint64][]byte)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				p := payload(int64(w*1000+r), 4096)
				// Stamp the payload with something recoverable for checking.
				counter, err := c.Checkpoint(context.Background(), BytesSource(p))
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				payloads[counter] = p
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.Checkpoints+st.Obsolete != workers*rounds {
		t.Fatalf("checkpoints %d + obsolete %d != %d", st.Checkpoints, st.Obsolete, workers*rounds)
	}
	got := make([]byte, 8192)
	counter, size, err := c.ReadLatest(got)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := payloads[counter]
	if !ok {
		t.Fatalf("latest counter %d unknown", counter)
	}
	if !bytes.Equal(got[:size], want) {
		t.Fatalf("latest checkpoint %d corrupted", counter)
	}
	// All slots except the published one must be back in the free queue.
	if free := c.freeSpace.Len(); free != c.sb.slots-1 {
		t.Fatalf("free slots = %d, want %d", free, c.sb.slots-1)
	}
}

// Monotonicity: the published counter never decreases, even under heavy
// concurrency.
func TestPublishedCounterMonotone(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 4, SlotBytes: 1024, Writers: 1})
	stop := make(chan struct{})
	var maxSeen uint64
	var monErr error
	var monWg sync.WaitGroup
	monWg.Add(1)
	go func() {
		defer monWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if counter, _, ok := c.Latest(); ok {
				if counter < maxSeen {
					monErr = fmt.Errorf("counter went backwards: %d after %d", counter, maxSeen)
					return
				}
				maxSeen = counter
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				if _, err := c.Checkpoint(context.Background(), BytesSource(payload(int64(w), 512))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	monWg.Wait()
	if monErr != nil {
		t.Fatal(monErr)
	}
}

func TestOpenRecoversLatest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dev")
	cfg := Config{Concurrent: 2, SlotBytes: 4096, Writers: 2, VerifyPayload: true}
	dev, err := storage.OpenSSD(path, DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	var lastCounter uint64
	for i := 0; i < 5; i++ {
		want = payload(int64(i), 2000)
		lastCounter, err = c.Checkpoint(context.Background(), BytesSource(want))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}

	// "Process restart": reopen the device file and the engine.
	dev2, err := storage.ReopenSSD(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dev2.Close()
	c2, err := Open(dev2, Config{Writers: 2})
	if err != nil {
		t.Fatal(err)
	}
	counter, size, ok := c2.Latest()
	if !ok || counter != lastCounter {
		t.Fatalf("recovered counter %d, want %d", counter, lastCounter)
	}
	got := make([]byte, size)
	if _, _, err := c2.ReadLatest(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered payload mismatch")
	}
	// The engine must continue the counter sequence…
	next, err := c2.Checkpoint(context.Background(), BytesSource(payload(99, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if next != lastCounter+1 {
		t.Fatalf("next counter = %d, want %d", next, lastCounter+1)
	}
	// …and the standalone Recover must now see the new checkpoint.
	p, rc, err := Recover(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if rc != next || int64(len(p)) != 100 {
		t.Fatalf("Recover got counter %d, %d bytes", rc, len(p))
	}
}

func TestOpenUnformatted(t *testing.T) {
	dev := storage.NewRAM(1 << 16)
	if _, err := Open(dev, Config{}); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("err = %v, want ErrNotFormatted", err)
	}
	if _, _, err := Recover(dev); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("Recover err = %v, want ErrNotFormatted", err)
	}
}

func TestRecoverEmptyFormattedDevice(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(1, 1024))
	if _, err := New(dev, Config{Concurrent: 1, SlotBytes: 1024}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dev); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestReformatDestroysOldCheckpoints(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 1024}
	dev := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 100))); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dev, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dev); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("reformat left a recoverable checkpoint: %v", err)
	}
}

func TestContextCancelDuringSlotWait(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 1024})
	// Drain both slots so the next checkpoint must wait.
	s1, _ := c.freeSpace.Deq()
	s2, _ := c.freeSpace.Deq()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Checkpoint(ctx, BytesSource(payload(1, 100))); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	c.freeSpace.Enq(s1)
	c.freeSpace.Enq(s2)
}

func TestDeviceBytesFootprint(t *testing.T) {
	// Table 1: PCcheck needs (N+1)·m storage (plus fixed headers).
	n, m := 3, int64(1<<20)
	got := DeviceBytes(n, m)
	min := int64(n+1) * m
	if got < min || got > min+int64(n+2)*4096 {
		t.Fatalf("DeviceBytes(%d, %d) = %d, want ≈ %d", n, m, got, min)
	}
}

func TestSourceErrorsPropagate(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 1024})
	src := failingSource{size: 512}
	if _, err := c.Checkpoint(context.Background(), src); err == nil {
		t.Fatal("failing source accepted")
	}
	// The slot must have been returned: next checkpoint succeeds.
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 100))); err != nil {
		t.Fatal(err)
	}
}

type failingSource struct{ size int64 }

func (s failingSource) Size() int64 { return s.size }
func (s failingSource) ReadInto(p []byte, off int64) error {
	return errors.New("injected source failure")
}

func TestReadVersionRetained(t *testing.T) {
	// With N=3 (4 slots), the last few checkpoints stay resident.
	c := ramEngine(t, Config{Concurrent: 3, SlotBytes: 1024, VerifyPayload: true})
	var wants [][]byte
	for i := 1; i <= 4; i++ {
		p := payload(int64(i), 700+i)
		wants = append(wants, p)
		if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	// All four published sequentially; 4 slots hold counters 1..4.
	for counter := uint64(1); counter <= 4; counter++ {
		got, err := c.ReadVersion(counter)
		if err != nil {
			t.Fatalf("version %d: %v", counter, err)
		}
		if !bytes.Equal(got, wants[counter-1]) {
			t.Fatalf("version %d payload mismatch", counter)
		}
	}
	// A fifth checkpoint recycles checkpoint 1's slot.
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(5, 700))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadVersion(1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("overwritten version still readable: %v", err)
	}
	if _, err := c.ReadVersion(99); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("phantom version: %v", err)
	}
}

func TestRecoverVersionStandalone(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(2, 512))
	c, err := New(dev, Config{Concurrent: 2, SlotBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	want := payload(3, 400)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(4, 400))); err != nil {
		t.Fatal(err)
	}
	got, err := RecoverVersion(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("RecoverVersion payload mismatch")
	}
	if _, err := RecoverVersion(storage.NewRAM(1024), 1); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("unformatted device: %v", err)
	}
}

// Property: for any small configuration and any sequence of payload sizes,
// sequential checkpoints always leave the engine recoverable at exactly the
// last payload.
func TestQuickSequentialCheckpointRecovery(t *testing.T) {
	f := func(nRaw, writersRaw uint8, sizesRaw []uint16, verify bool) bool {
		n := int(nRaw%3) + 1
		writers := int(writersRaw%4) + 1
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 8 {
			sizesRaw = sizesRaw[:8]
		}
		const slotBytes = 4096
		dev := storage.NewRAM(DeviceBytes(n, slotBytes))
		c, err := New(dev, Config{
			Concurrent: n, SlotBytes: slotBytes,
			Writers: writers, ChunkBytes: 1024,
			VerifyPayload: verify,
		})
		if err != nil {
			return false
		}
		var last []byte
		var lastCounter uint64
		for i, raw := range sizesRaw {
			size := int(raw) % (slotBytes + 1)
			p := payload(int64(i), size)
			counter, err := c.Checkpoint(context.Background(), BytesSource(p))
			if err != nil {
				return false
			}
			last = p
			lastCounter = counter
		}
		got, counter, err := Recover(dev)
		if err != nil {
			return false
		}
		return counter == lastCounter && bytes.Equal(got, last)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigAccessorAndPacing(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 2, SlotBytes: 1024, Writers: 3})
	cfg := c.Config()
	if cfg.Concurrent != 2 || cfg.Writers != 3 || cfg.SlotBytes != 1024 {
		t.Fatalf("Config() = %+v", cfg)
	}
	// Runtime pacing applies to subsequent checkpoints.
	c.SetPerWriterBW(float64(64 << 20)) // 64 MB/s: 512 KB ⇒ ~8 ms per writer share
	p := payload(1, 1024)
	if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
		t.Fatal(err)
	}
	c.SetPerWriterBW(-1) // negative clamps to unpaced
	if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSuperblockRejects(t *testing.T) {
	// Valid magic + CRC but implausible geometry.
	sb := superblock{slots: 1, slotBytes: 64} // slots < 2
	if _, err := decodeSuperblock(sb.encode()); err == nil {
		t.Fatal("slots=1 accepted")
	}
	sb2 := superblock{slots: 3, slotBytes: 0}
	if _, err := decodeSuperblock(sb2.encode()); err == nil {
		t.Fatal("slotBytes=0 accepted")
	}
	// Wrong version.
	buf := superblock{slots: 2, slotBytes: 64}.encode()
	buf[4] = 99
	// CRC covers the version, so this reads as a checksum failure.
	if _, err := decodeSuperblock(buf); err == nil {
		t.Fatal("tampered version accepted")
	}
	if _, err := decodeSuperblock(make([]byte, 10)); err == nil {
		t.Fatal("short superblock accepted")
	}
}

func TestDecodeRecordRejects(t *testing.T) {
	if _, ok := decodeRecord(make([]byte, 4)); ok {
		t.Fatal("short record accepted")
	}
	// Counter 0 means "never written" even if the CRC matches.
	zero := encodeRecord(checkMeta{counter: 0, slot: 1, size: 10})
	if _, ok := decodeRecord(zero); ok {
		t.Fatal("counter-0 record accepted")
	}
}

func TestValidateSlotRejects(t *testing.T) {
	dev := storage.NewRAM(DeviceBytes(1, 256))
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 100))); err != nil {
		t.Fatal(err)
	}
	sb := superblock{slots: 2, slotBytes: 256}
	if _, err := slotHeld(dev, sb, 5, 1, 100); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := slotHeld(dev, sb, 0, 1, 999); err == nil {
		t.Fatal("oversized record accepted")
	}
	if _, err := slotHeld(dev, sb, 0, 77, 100); err == nil {
		t.Fatal("mismatched counter accepted")
	}
}

func TestBytesSourceBounds(t *testing.T) {
	src := BytesSource([]byte("abcdef"))
	if err := src.ReadInto(make([]byte, 4), 4); err == nil {
		t.Fatal("read past end accepted")
	}
	if err := src.ReadInto(make([]byte, 2), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestReadLatestSmallBuffer(t *testing.T) {
	c := ramEngine(t, Config{Concurrent: 1, SlotBytes: 1024})
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 500))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadLatest(make([]byte, 100)); err == nil {
		t.Fatal("undersized buffer accepted")
	}
}
