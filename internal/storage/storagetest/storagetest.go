// Package storagetest is the shared conformance suite for the
// storage.Backend contract. Every device the engine can sit on — SSD, PMEM,
// RAM, the fault/crash wrappers, the remote object-store stub, and the
// tiered composite — must behave identically at this boundary: bounded
// addressing with no integer-overflow escape hatches, read-your-writes
// visibility, zero-length operations accepted at the size boundary, and a
// stable Size/Kind. Backends register by handing Run a factory; the suite
// runs the same table of subtests against each.
package storagetest

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"pccheck/internal/storage"
)

// Factory builds a fresh, zeroed backend of exactly size bytes. The suite
// owns the returned device and closes it when the subtest finishes.
type Factory func(t *testing.T, size int64) storage.Backend

// Size is the device size the suite requests from factories. Large enough
// to exercise multi-sector offsets, small enough to stay fast.
const Size = int64(4096)

// Run exercises the Backend contract against devices built by factory.
func Run(t *testing.T, factory Factory) {
	t.Helper()

	openSized := func(t *testing.T, size int64) storage.Backend {
		t.Helper()
		dev := factory(t, size)
		if dev == nil {
			t.Fatal("factory returned nil backend")
		}
		t.Cleanup(func() { dev.Close() })
		return dev
	}
	open := func(t *testing.T) storage.Backend { return openSized(t, Size) }

	pattern := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i*7)
		}
		return p
	}

	// uniform: every byte of p equals the first, as one writer's fill does.
	uniform := func(p []byte) bool { return bytes.Count(p, p[:1]) == len(p) }

	t.Run("RoundTrip", func(t *testing.T) {
		dev := open(t)
		for _, off := range []int64{0, 1, 511, 512, Size - 64} {
			want := pattern(64, byte(off))
			if err := dev.WriteAt(want, off); err != nil {
				t.Fatalf("WriteAt(%d): %v", off, err)
			}
			got := make([]byte, len(want))
			if err := dev.ReadAt(got, off); err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip at %d: got %x want %x", off, got[:8], want[:8])
			}
		}
	})

	t.Run("PersistIsVisible", func(t *testing.T) {
		dev := open(t)
		want := pattern(256, 0x5a)
		if err := dev.Persist(want, 128); err != nil {
			t.Fatalf("Persist: %v", err)
		}
		got := make([]byte, len(want))
		if err := dev.ReadAt(got, 128); err != nil {
			t.Fatalf("ReadAt after Persist: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("Persist data not visible to ReadAt")
		}
	})

	t.Run("OverlappingWritesLastWins", func(t *testing.T) {
		dev := open(t)
		a := pattern(100, 0x11)
		b := pattern(100, 0x77)
		if err := dev.WriteAt(a, 100); err != nil {
			t.Fatalf("WriteAt a: %v", err)
		}
		if err := dev.WriteAt(b, 150); err != nil {
			t.Fatalf("WriteAt b: %v", err)
		}
		got := make([]byte, 150)
		if err := dev.ReadAt(got, 100); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got[:50], a[:50]) || !bytes.Equal(got[50:], b) {
			t.Fatal("overlapping writes: newer write did not win")
		}
	})

	t.Run("SyncCoversRange", func(t *testing.T) {
		dev := open(t)
		if err := dev.WriteAt(pattern(512, 1), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		if err := dev.Sync(0, dev.Size()); err != nil {
			t.Fatalf("full-device Sync: %v", err)
		}
		if err := dev.Sync(256, 128); err != nil {
			t.Fatalf("subrange Sync: %v", err)
		}
		if err := dev.Sync(0, dev.Size()+1); err == nil {
			t.Fatal("Sync past device end succeeded")
		}
	})

	t.Run("ZeroLengthAtBoundary", func(t *testing.T) {
		dev := open(t)
		if err := dev.WriteAt(nil, dev.Size()); err != nil {
			t.Fatalf("zero-length WriteAt at size boundary: %v", err)
		}
		if err := dev.ReadAt(nil, dev.Size()); err != nil {
			t.Fatalf("zero-length ReadAt at size boundary: %v", err)
		}
		if err := dev.Sync(dev.Size(), 0); err != nil {
			t.Fatalf("zero-length Sync at size boundary: %v", err)
		}
	})

	t.Run("RejectsOutOfRange", func(t *testing.T) {
		dev := open(t)
		one := []byte{0xff}
		cases := []struct {
			name string
			off  int64
			p    []byte
		}{
			{"negative offset", -1, one},
			{"offset at size", dev.Size(), one},
			{"length past end", dev.Size() - 1, pattern(2, 0)},
			{"length over size", 0, pattern(int(dev.Size())+1, 0)},
		}
		for _, c := range cases {
			if err := dev.WriteAt(c.p, c.off); err == nil {
				t.Errorf("WriteAt %s: no error", c.name)
			}
			if err := dev.ReadAt(make([]byte, len(c.p)), c.off); err == nil {
				t.Errorf("ReadAt %s: no error", c.name)
			}
			if err := dev.Persist(c.p, c.off); err == nil {
				t.Errorf("Persist %s: no error", c.name)
			}
		}
	})

	// The regression surface for the off+n overflow bug: offsets near
	// MaxInt64 must be rejected, not wrapped negative into an accepted
	// (and memory-corrupting) range.
	t.Run("RejectsOffsetOverflow", func(t *testing.T) {
		dev := open(t)
		p := pattern(16, 0)
		for _, off := range []int64{math.MaxInt64, math.MaxInt64 - 8, math.MaxInt64 - int64(len(p)) + 1} {
			if err := dev.WriteAt(p, off); err == nil {
				t.Errorf("WriteAt(off=%d) accepted overflowing range", off)
			}
			if err := dev.ReadAt(make([]byte, len(p)), off); err == nil {
				t.Errorf("ReadAt(off=%d) accepted overflowing range", off)
			}
			if err := dev.Persist(p, off); err == nil {
				t.Errorf("Persist(off=%d) accepted overflowing range", off)
			}
			if err := dev.Sync(off, int64(len(p))); err == nil {
				t.Errorf("Sync(off=%d) accepted overflowing range", off)
			}
		}
		if err := dev.Sync(8, math.MaxInt64-4); err == nil {
			t.Error("Sync with overflowing length accepted")
		}
	})

	// Calls are atomic with respect to each other: a device may run calls on
	// disjoint ranges in parallel (storage.RAM does, one lock stripe per 1 MiB
	// unit), but a reader never sees part of a write. Bulk writers on disjoint
	// ranges run against writers and readers of a 64-byte record placed across
	// a unit boundary; every read of the record must be one writer's bytes.
	// The file-backed SSD answers for race-cleanliness and for the final state
	// only: the kernel orders a file's writes among themselves but lets a read
	// overlap one.
	t.Run("ConcurrentCallsDoNotTear", func(t *testing.T) {
		const (
			unit       = 1 << 20
			bulk       = 64 << 10
			bulkRounds = 150
			recRounds  = 4000
		)
		dev := openSized(t, 2*unit)
		_, fileBacked := dev.(*storage.SSD)
		recOff := int64(unit - 32)
		var wg sync.WaitGroup
		start := make(chan struct{}) // so that the short loops really overlap
		// The middle two bulk ranges share the record's units.
		bulkOffs := []int64{0, unit - 32 - bulk, unit + 32, 2*unit - bulk}
		for w, off := range bulkOffs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, bulk)
				<-start
				for r := 1; r <= bulkRounds; r++ {
					for i := range buf {
						buf[i] = byte(w<<6 | r&63)
					}
					if err := dev.WriteAt(buf, off); err != nil {
						t.Errorf("bulk WriteAt(%d): %v", off, err)
						return
					}
				}
			}()
		}
		for w := 0; w < 2; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				images := [2][]byte{bytes.Repeat([]byte{byte(2*w + 1)}, 64), bytes.Repeat([]byte{byte(2*w + 2)}, 64)}
				<-start
				for r := 0; r < recRounds; r++ {
					if err := dev.WriteAt(images[r&1], recOff); err != nil {
						t.Errorf("record WriteAt: %v", err)
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				got := make([]byte, 64)
				<-start
				for r := 0; r < recRounds; r++ {
					if err := dev.ReadAt(got, recOff); err != nil {
						t.Errorf("record ReadAt: %v", err)
						return
					}
					if !fileBacked && !uniform(got) {
						t.Errorf("torn record read: %x", got)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		got := make([]byte, bulk)
		for w, off := range bulkOffs {
			if err := dev.ReadAt(got, off); err != nil {
				t.Fatalf("ReadAt(%d): %v", off, err)
			}
			if want := byte(w<<6 | bulkRounds&63); !uniform(got) || got[0] != want {
				t.Errorf("bulk range at %d holds %#x…, want its writer's last round %#x throughout", off, got[0], want)
			}
		}
		if err := dev.ReadAt(got[:64], recOff); err != nil || !uniform(got[:64]) {
			t.Errorf("record after the run: err=%v bytes=%x", err, got[:64])
		}
	})

	// Overlapping WriteAts that race leave, per call, one writer's bytes: the
	// overlap is all of one or all of the other, never a mix — also across a
	// unit boundary, where storage.RAM holds two stripes.
	t.Run("OverlappingWritesDoNotMix", func(t *testing.T) {
		const unit = 1 << 20
		dev := openSized(t, 2*unit)
		offs := [2]int64{unit - 48, unit - 16} // 96 bytes each; overlap [unit-16, unit+48)
		got := make([]byte, 64)
		for r := 0; r < 500; r++ {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w, off := range offs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := bytes.Repeat([]byte{byte(w<<7 | r&127)}, 96)
					<-start
					if err := dev.WriteAt(p, off); err != nil {
						t.Errorf("WriteAt(%d): %v", off, err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if err := dev.ReadAt(got, offs[1]); err != nil {
				t.Fatalf("ReadAt: %v", err)
			}
			if !uniform(got) {
				t.Fatalf("round %d: racing writes mixed in their overlap: %x", r, got)
			}
		}
	})

	t.Run("SizeAndKindStable", func(t *testing.T) {
		dev := open(t)
		if got := dev.Size(); got != Size {
			t.Fatalf("Size() = %d, want %d", got, Size)
		}
		if dev.Kind().String() == "" {
			t.Fatal("Kind().String() is empty")
		}
		if err := dev.WriteAt(pattern(128, 3), 0); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		if got := dev.Size(); got != Size {
			t.Fatalf("Size() changed after write: %d", got)
		}
	})
}

// RunCorruption exercises the FaultDevice latent-fault contract with a
// factory-built backend underneath: seeded corruption schedules strike
// already-durable bytes without failing the durability op itself, direct
// CorruptAt damage is visible to reads, and poisoned ranges fail reads
// permanently until overwritten. Every backend the conformance suite
// covers must behave identically under the wrapper — latent faults are a
// property of the injection layer, not of the medium.
func RunCorruption(t *testing.T, factory Factory) {
	t.Helper()

	open := func(t *testing.T) *storage.FaultDevice {
		t.Helper()
		inner := factory(t, Size)
		if inner == nil {
			t.Fatal("factory returned nil backend")
		}
		dev := storage.NewFaultDevice(inner)
		t.Cleanup(func() { dev.Close() })
		return dev
	}

	pattern := func(n int, seed byte) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = seed + byte(i*7)
		}
		return p
	}

	t.Run("ScheduledBitFlipAfterSync", func(t *testing.T) {
		dev := open(t)
		want := pattern(512, 0x21)
		if err := dev.WriteAt(want, 1024); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		dev.SetCorruptSchedule(storage.CorruptSchedule{
			CorruptAfter: 1, CorruptCount: 1, Mode: storage.CorruptBitFlip, Seed: 42,
		})
		if err := dev.Sync(1024, 512); err != nil {
			t.Fatalf("Sync surfaced the latent fault: %v", err)
		}
		got := make([]byte, 512)
		if err := dev.ReadAt(got, 1024); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if bytes.Equal(got, want) {
			t.Fatal("synced range not corrupted")
		}
		log := dev.CorruptLog()
		if len(log) != 1 || log[0].Mode != storage.CorruptBitFlip {
			t.Fatalf("corrupt log = %+v, want one bit-flip record", log)
		}
		if log[0].Off < 1024 || log[0].Off+log[0].Len > 1536 {
			t.Fatalf("damage [%d,%d) outside synced range", log[0].Off, log[0].Off+log[0].Len)
		}
	})

	t.Run("ScheduledSectorZeroAfterPersist", func(t *testing.T) {
		dev := open(t)
		dev.SetCorruptSchedule(storage.CorruptSchedule{
			CorruptAfter: 1, CorruptCount: 1, Mode: storage.CorruptSectorZero, Seed: 7,
		})
		want := pattern(storage.CrashSectorSize, 0xEE)
		if err := dev.Persist(want, storage.CrashSectorSize); err != nil {
			t.Fatalf("Persist surfaced the latent fault: %v", err)
		}
		got := make([]byte, storage.CrashSectorSize)
		if err := dev.ReadAt(got, storage.CrashSectorSize); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if !bytes.Equal(got, make([]byte, storage.CrashSectorSize)) {
			t.Fatal("persisted sector not zeroed")
		}
	})

	t.Run("CorruptAtIsVisible", func(t *testing.T) {
		dev := open(t)
		want := pattern(64, 0x33)
		if err := dev.WriteAt(want, 256); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		if err := dev.CorruptAt(256, 64, storage.CorruptBitFlip); err != nil {
			t.Fatalf("CorruptAt: %v", err)
		}
		got := make([]byte, 64)
		if err := dev.ReadAt(got, 256); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		if bytes.Equal(got, want) {
			t.Fatal("direct damage not visible")
		}
	})

	t.Run("PoisonReadHealsOnOverwrite", func(t *testing.T) {
		dev := open(t)
		if err := dev.WriteAt(pattern(256, 0x44), 512); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
		dev.PoisonRead(512, 256)
		buf := make([]byte, 256)
		err := dev.ReadAt(buf, 512)
		if err == nil {
			t.Fatal("poisoned read succeeded")
		}
		if storage.Classify(err) != storage.ClassPermanent {
			t.Fatalf("poisoned read classified %v, want permanent", storage.Classify(err))
		}
		if err := dev.ReadAt(buf, 1024); err != nil {
			t.Fatalf("read outside poison: %v", err)
		}
		heal := pattern(256, 0x55)
		if err := dev.WriteAt(heal, 512); err != nil {
			t.Fatalf("healing WriteAt: %v", err)
		}
		if err := dev.ReadAt(buf, 512); err != nil {
			t.Fatalf("healed range still poisoned: %v", err)
		}
		if !bytes.Equal(buf, heal) {
			t.Fatal("healed range lost the overwrite")
		}
	})
}
