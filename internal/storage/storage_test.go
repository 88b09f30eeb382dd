package storage

import (
	"bytes"
	"math/bits"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"pccheck/internal/pmem"
)

func TestKindString(t *testing.T) {
	if KindSSD.String() != "ssd" || KindPMEM.String() != "pmem" || KindRAM.String() != "ram" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind: %s", Kind(9))
	}
}

func deviceContract(t *testing.T, d Device, size int64) {
	t.Helper()
	if d.Size() != size {
		t.Fatalf("Size = %d, want %d", d.Size(), size)
	}
	msg := []byte("the quick brown fox")
	if err := d.WriteAt(msg, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	if err := d.Sync(100, int64(len(msg))); err != nil {
		t.Fatal(err)
	}
	if err := d.Persist([]byte("xyz"), 0); err != nil {
		t.Fatal(err)
	}
	got3 := make([]byte, 3)
	if err := d.ReadAt(got3, 0); err != nil {
		t.Fatal(err)
	}
	if string(got3) != "xyz" {
		t.Fatalf("Persist read back %q", got3)
	}
	// Out-of-range operations must fail cleanly.
	if err := d.WriteAt(msg, size-1); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := d.ReadAt(make([]byte, 2), size-1); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	if err := d.WriteAt(msg, -1); err == nil {
		t.Fatal("negative offset write succeeded")
	}
	if err := d.Sync(size, 1); err == nil {
		t.Fatal("out-of-range sync succeeded")
	}
}

func TestSSDContract(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := OpenSSD(path, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	deviceContract(t, d, 4096)
}

func TestPMEMContract(t *testing.T) {
	d := NewPMEM(pmem.NewRegion(4096))
	deviceContract(t, d, 4096)
}

func TestPMEMCLWBContract(t *testing.T) {
	d := NewPMEM(pmem.NewRegion(4096), WithPMEMMode(CLWB))
	deviceContract(t, d, 4096)
}

func TestRAMContract(t *testing.T) {
	deviceContract(t, NewRAM(4096), 4096)
}

func TestSSDReopenPreservesContents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := OpenSSD(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Persist([]byte("persist-me"), 7); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := ReopenSSD(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Size() != 1024 {
		t.Fatalf("reopened size = %d", d2.Size())
	}
	got := make([]byte, 10)
	if err := d2.ReadAt(got, 7); err != nil {
		t.Fatal(err)
	}
	if string(got) != "persist-me" {
		t.Fatalf("reopened contents %q", got)
	}
}

func TestOpenSSDNegativeSize(t *testing.T) {
	if _, err := OpenSSD(filepath.Join(t.TempDir(), "x"), -1); err == nil {
		t.Fatal("negative size should error")
	}
}

func TestPMEMWriteAtDurableOnlyAfterSync(t *testing.T) {
	region := pmem.NewRegion(256)
	d := NewPMEM(region)
	if err := d.WriteAt([]byte("dataA"), 0); err != nil {
		t.Fatal(err)
	}
	region.Crash(pmem.DropAll)
	got := make([]byte, 5)
	_ = d.ReadAt(got, 0)
	if string(got) == "dataA" {
		t.Fatal("WriteAt without Sync survived crash")
	}

	region2 := pmem.NewRegion(256)
	d2 := NewPMEM(region2)
	_ = d2.WriteAt([]byte("dataB"), 0)
	if err := d2.Sync(0, 5); err != nil {
		t.Fatal(err)
	}
	region2.Crash(pmem.DropAll)
	_ = d2.ReadAt(got, 0)
	if string(got) != "dataB" {
		t.Fatal("WriteAt+Sync lost on crash")
	}
}

func TestPMEMCLWBDurability(t *testing.T) {
	region := pmem.NewRegion(256)
	d := NewPMEM(region, WithPMEMMode(CLWB))
	_ = d.WriteAt([]byte("clwb-path"), 64)
	_ = d.Sync(64, 9)
	region.Crash(pmem.DropAll)
	got := make([]byte, 9)
	_ = d.ReadAt(got, 64)
	if string(got) != "clwb-path" {
		t.Fatal("CLWB+fence data lost")
	}
}

func TestNilThrottleIsNoOp(t *testing.T) {
	var th *Throttle
	start := time.Now()
	th.Acquire(1 << 30)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("nil throttle slept")
	}
	if th.Rate() != 0 {
		t.Fatal("nil throttle rate nonzero")
	}
}

func TestThrottleRate(t *testing.T) {
	// 10 MB/s; acquiring 1 MB should take ~100 ms.
	th := NewThrottle(10 << 20)
	start := time.Now()
	th.Acquire(1 << 20)
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond || elapsed > 400*time.Millisecond {
		t.Fatalf("1 MB at 10 MB/s took %v, want ~100ms", elapsed)
	}
	if th.Rate() != float64(10<<20) {
		t.Fatalf("Rate = %v", th.Rate())
	}
}

func TestThrottleAggregateAcrossGoroutines(t *testing.T) {
	// 4 goroutines sharing a 20 MB/s device writing 1 MB each ⇒ ≥ ~200 ms
	// total, i.e. concurrency must NOT multiply bandwidth.
	th := NewThrottle(20 << 20)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th.Acquire(1 << 20)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("4 MB at 20 MB/s finished in %v; throttle leaked bandwidth", elapsed)
	}
}

func TestThrottleDisabled(t *testing.T) {
	th := NewThrottle(0)
	start := time.Now()
	th.Acquire(1 << 30)
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("disabled throttle slept")
	}
}

func TestThrottledSSDPacesWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev")
	d, err := OpenSSD(path, 1<<20, WithSSDThrottle(NewThrottle(5<<20))) // 5 MB/s
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, 512<<10) // 512 KB ⇒ ~100 ms
	start := time.Now()
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("throttled write returned in %v", elapsed)
	}
}

func TestRAMConcurrentAccess(t *testing.T) {
	d := NewRAM(1 << 16)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			block := bytes.Repeat([]byte{byte(i + 1)}, 1024)
			for j := 0; j < 100; j++ {
				if err := d.WriteAt(block, int64(i*1024)); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 1024)
				if err := d.ReadAt(got, int64(i*1024)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		got := make([]byte, 1024)
		_ = d.ReadAt(got, int64(i*1024))
		for _, b := range got {
			if b != byte(i+1) {
				t.Fatalf("region %d corrupted", i)
			}
		}
	}
}

// TestRAMStripesDoNotAlias: checkpoint slots lie a payload apart, so writers
// moving through two slots in step touch the same relative offsets at the
// same time. For the layout of a 64 MiB-slot engine (core's: a 256-byte
// header, then slots of a 64-byte header plus the payload) cut into 4 MiB
// pieces, the same piece of any two slots must share no stripe — which a
// plain modulus over the unit index would get wrong for every piece.
func TestRAMStripesDoNotAlias(t *testing.T) {
	const (
		slotBytes = 64 << 20
		piece     = 4 << 20
		stride    = 64 + slotBytes
	)
	payloadBase := func(slot int64) int64 { return 256 + slot*stride + 64 }
	for a := int64(0); a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			for off := int64(0); off < slotBytes; off += piece {
				ma, mb := ramStripeMask(payloadBase(a)+off, piece), ramStripeMask(payloadBase(b)+off, piece)
				if ma&mb != 0 {
					t.Errorf("piece at %d MiB of slots %d and %d share stripes %#x", off>>20, a, b, ma&mb)
				}
			}
		}
	}
	if got := ramStripeMask(12345, 0); got != 0 {
		t.Errorf("empty range takes stripes %#x", got)
	}
	if got := ramStripeMask(1<<20-1, 2); bits.OnesCount64(got) != 2 {
		t.Errorf("two bytes across a unit boundary take stripes %#x, want two", got)
	}
	if got := ramStripeMask(0, 63<<20); got != ^uint64(0) {
		t.Errorf("a range of 63 units takes stripes %#x, want all", got)
	}
}

// BenchmarkRAMParallelWrite writes disjoint 4 MiB ranges of one RAM device
// from as many goroutines as there are procs: run with -cpu 1,2 and compare
// MB/s. Under the device-wide lock the second writer added nothing.
func BenchmarkRAMParallelWrite(b *testing.B) {
	const piece = 4 << 20
	writers := runtime.GOMAXPROCS(0)
	d := NewRAM(int64(writers) * 16 * piece)
	b.SetBytes(int64(writers) * piece)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := bytes.Repeat([]byte{byte(w + 1)}, piece)
			base := int64(w) * 16 * piece
			for i := 0; i < b.N; i++ {
				if err := d.WriteAt(src, base+int64(i%16)*piece); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
