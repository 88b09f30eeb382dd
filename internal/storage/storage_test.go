package storage

import (
	"bytes"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pccheck/internal/pmem"
	"pccheck/internal/simd"
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
				if both := ma.minus(ma.minus(mb)); both != (stripeSet{}) {
					t.Errorf("piece at %d MiB of slots %d and %d share stripes %#x", off>>20, a, b, both)
				}
			}
		}
	}
	if got := ramStripeMask(12345, 0); got != (stripeSet{}) {
		t.Errorf("empty range takes stripes %#x", got)
	}
	if got := ramStripeMask(1<<20-1, 2); stripeCount(got) != 2 {
		t.Errorf("two bytes across a unit boundary take stripes %#x, want two", got)
	}
	if got := ramStripeMask(0, 255<<20); stripeCount(got) != ramStripes {
		t.Errorf("a range of 255 units takes stripes %#x, want all", got)
	}
}

func stripeCount(s stripeSet) (n int) {
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
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

// withoutKernels runs fn with simd's kernels turned off: RAM.WriteAt then
// copies with copy.
func withoutKernels(fn func()) {
	defer func(saved simd.Features) { simd.CPU = saved }(simd.CPU)
	simd.CPU = simd.Features{}
	fn()
}

// TestRAMWritesMatchCopy writes through a device whose memory starts 13
// bytes past a page, so a write's head, inner and tail copies all start on
// an unaligned dst, and compares every byte with a model kept by copy: pieces
// as the engine cuts them, a write whose three parts are each long enough to
// stream, short writes, and random ones up to 3 MiB. Each case is written by
// WriteAt and again by WriteAtCRC, whose CRC must be crc32.Update's.
func TestRAMWritesMatchCopy(t *testing.T) {
	const size, skew = 8 << 20, 13
	run := func(t *testing.T) {
		buf := make([]byte, skew+size+skew)
		d, model := NewRAMFromBytes(buf[skew:skew+size]), make([]byte, size)
		rng := rand.New(rand.NewSource(1))
		writes := [][2]int64{
			{320, 4 << 20}, {320 + 4<<20, 4<<20 - 320},
			{1<<20 - 100<<10 - 3, 100<<10 + 3 + 2<<20 + 200<<10 + 5},
			{0, 1}, {1<<20 - 1, 2}, {5, 64<<10 - 1}, {7, 64 << 10},
		}
		for i := 0; i < 40; i++ {
			n := rng.Int63n(3 << 20)
			writes = append(writes, [2]int64{rng.Int63n(size - n), n})
		}
		for _, w := range writes {
			for _, fold := range []bool{false, true} {
				p := make([]byte, w[1])
				rng.Read(p)
				if !fold {
					if err := d.WriteAt(p, w[0]); err != nil {
						t.Fatal(err)
					}
				} else {
					crc := rng.Uint32()
					got, err := d.WriteAtCRC(p, w[0], crc)
					if err != nil {
						t.Fatal(err)
					}
					if want := crc32.Update(crc, crc32.IEEETable, p); got != want {
						t.Fatalf("WriteAtCRC of %d bytes at %d: CRC %#x, want %#x", w[1], w[0], got, want)
					}
				}
				copy(model[w[0]:], p)
				if !bytes.Equal(buf[skew:skew+size], model) {
					t.Fatalf("after %d bytes at %d (fold %v) the device differs from copy", w[1], w[0], fold)
				}
			}
		}
		if !bytes.Equal(buf[:skew], make([]byte, skew)) || !bytes.Equal(buf[skew+size:], make([]byte, skew)) {
			t.Fatal("a write landed outside the device")
		}
	}
	t.Run("kernel", run)
	t.Run("copy", func(t *testing.T) { withoutKernels(func() { run(t) }) })
}

// TestWriteAtCRCWrappers: storage.WriteAtCRC through a device that wraps a
// RAM device (or is not one) checksums and then writes, with the same bytes
// and CRC as a bare RAM device.
func TestWriteAtCRCWrappers(t *testing.T) {
	const size = 4 << 20
	for _, tc := range []struct {
		name string
		dev  func(t *testing.T) Device
	}{
		{"ram", func(*testing.T) Device { return NewRAM(size) }},
		{"fault", func(*testing.T) Device { return NewFaultDevice(NewRAM(size)) }},
		{"crash", func(*testing.T) Device { return NewCrashDevice(size, KindRAM) }},
		{"tiered", func(t *testing.T) Device {
			td, err := NewTiered([]Device{NewRAM(size), NewRAM(size)})
			if err != nil {
				t.Fatal(err)
			}
			return td
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.dev(t)
			defer d.Close()
			rng := rand.New(rand.NewSource(4))
			for _, w := range [][2]int64{{320, 2<<20 + 5}, {1<<20 - 7, 64 << 10}, {3, 100}} {
				p := make([]byte, w[1])
				rng.Read(p)
				crc := rng.Uint32()
				got, err := WriteAtCRC(d, p, w[0], crc)
				if err != nil {
					t.Fatal(err)
				}
				if want := crc32.Update(crc, crc32.IEEETable, p); got != want {
					t.Fatalf("%d bytes at %d: CRC %#x, want %#x", w[1], w[0], got, want)
				}
				back := make([]byte, w[1])
				if err := d.ReadAt(back, w[0]); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, p) {
					t.Fatalf("%d bytes at %d read back differently", w[1], w[0])
				}
			}
		})
	}
}

// BenchmarkRAMWrite persists one 64 MiB save per op as the engine cuts it:
// 4 MiB pieces from a slot's payload offset (320 in the first slot), taken
// in turn by 2 writers. Ops rotate over three slots, so the slot written is
// not in cache. The copy leg turns the streaming kernel off; the crc legs
// also checksum each piece, crc+write as simd.CRC32Update then WriteAt (what
// WriteAtCRC does through any wrapper) and crc through RAM.WriteAtCRC. Run
// with -cpu 1,2.
func BenchmarkRAMWrite(b *testing.B) {
	const (
		save, piece = 64 << 20, 4 << 20
		stride      = 64 + save // slot header + payload
		slots       = 3
		writers     = 2
	)
	src := make([]byte, save)
	rand.New(rand.NewSource(1)).Read(src)
	d := NewRAM(320 + slots*stride)
	payload := func(slot int) int64 { return 320 + int64(slot)*stride }
	for slot := 0; slot < slots; slot++ { // fault the slots in
		if err := d.WriteAt(src, payload(slot)); err != nil {
			b.Fatal(err)
		}
	}
	var crcs [save / piece]uint32
	legs := []struct {
		name  string
		write func(k int64, p []byte, off int64) error
	}{
		{"kernel", func(_ int64, p []byte, off int64) error { return d.WriteAt(p, off) }},
		{"copy", func(_ int64, p []byte, off int64) error { return d.WriteAt(p, off) }},
		{"crc+write", func(k int64, p []byte, off int64) error {
			crcs[k] = simd.CRC32Update(0, p)
			return d.WriteAt(p, off)
		}},
		{"crc", func(k int64, p []byte, off int64) (err error) {
			crcs[k], err = d.WriteAtCRC(p, off, 0)
			return err
		}},
	}
	for _, leg := range legs {
		saveOnce := func(b *testing.B, base int64) {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := next.Add(1) - 1; k < save/piece; k = next.Add(1) - 1 {
						if err := leg.write(k, src[k*piece:(k+1)*piece], base+k*piece); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
		b.Run(leg.name, func(b *testing.B) {
			run := func() {
				b.SetBytes(save)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					saveOnce(b, payload(i%slots))
				}
			}
			if leg.name == "copy" {
				withoutKernels(run)
			} else {
				run()
			}
		})
	}
}

// TestRAMEndUnitsReleasedInOrder races a write over three units — partly
// covered ends, whose stripes it lets go before it copies the middle one —
// against writes that overlap one end alone or an end and the middle. Each
// overlap must hold one writer's bytes throughout; a write that let the
// middle stripe go early would be overwritten by its own middle copy.
func TestRAMEndUnitsReleasedInOrder(t *testing.T) {
	const unit = 1 << 20
	d := NewRAM(4 * unit)
	long := [2]int64{unit - 48, 2*unit + 48} // [off, end)
	for _, other := range [][2]int64{
		{unit - 80, unit - 16},     // the head end alone
		{2*unit + 16, 2*unit + 80}, // the tail end alone
		{2*unit - 48, 2*unit + 16}, // the middle unit's last bytes and the tail end
	} {
		lo, hi := max(long[0], other[0]), min(long[1], other[1])
		got := make([]byte, hi-lo)
		for r := 0; r < 500; r++ {
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w, rg := range [][2]int64{long, other} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := d.WriteAt(bytes.Repeat([]byte{byte(w<<7 | r&127)}, int(rg[1]-rg[0])), rg[0]); err != nil {
						t.Error(err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if err := d.ReadAt(got, lo); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat(got[:1], len(got))) {
				t.Fatalf("overlap [%d, %d) mixes the racing writes", lo, hi)
			}
		}
	}
}

// TestRAMEndUnitsWrittenBeforeReleased races a write with long partly
// covered end units against reads of one end alone. A write lets an end's
// stripe go early, but only once its bytes are in: a read that gets the
// stripe must see one version of the whole end, never a copy in progress.
func TestRAMEndUnitsWrittenBeforeReleased(t *testing.T) {
	const unit, end = 1 << 20, 768 << 10
	d := NewRAM(4 * unit)
	long := [2]int64{unit - end, 2*unit + end} // [off, end): head, one inner unit, tail
	for _, read := range [][2]int64{{long[0], unit}, {2 * unit, long[1]}} {
		got := make([]byte, read[1]-read[0])
		for r := 1; r <= 500; r++ {
			var wg sync.WaitGroup
			start := make(chan struct{})
			wg.Add(2)
			go func() {
				defer wg.Done()
				<-start
				if err := d.WriteAt(bytes.Repeat([]byte{byte(r)}, int(long[1]-long[0])), long[0]); err != nil {
					t.Error(err)
				}
			}()
			go func() {
				defer wg.Done()
				<-start
				if err := d.ReadAt(got, read[0]); err != nil {
					t.Error(err)
				}
			}()
			close(start)
			wg.Wait()
			if !bytes.Equal(got, bytes.Repeat(got[:1], len(got))) {
				t.Fatalf("a read of [%d, %d) saw a write in progress", read[0], read[1])
			}
		}
	}
}

// TestRAMHeadSharesStripeWithInnerUnit: units 4 and 148 hash onto one
// stripe (120), the nearest such pair. A write whose head unit is 4 and
// whose inner units reach 148 must keep that stripe until the inner copy
// is in, so a reader that sees the new head also sees the new unit 148.
func TestRAMHeadSharesStripeWithInnerUnit(t *testing.T) {
	if raceEnabled {
		t.Skip("a 150 MiB device and a 145 MiB write: too much shadow memory under -race")
	}
	const unit = 1 << 20
	off := int64(4*unit + unit/2) // [off, off+len(p)): head unit 4, inner 5..148, tail 149
	if ramStripeMask(4*unit, 1) != ramStripeMask(148*unit, 1) {
		t.Fatal("units 4 and 148 no longer share a stripe")
	}
	d := NewRAM(150 * unit)
	p := make([]byte, 145*unit)
	head, inner := make([]byte, unit/2), make([]byte, unit)
	for r := 1; r <= 5; r++ {
		p[0] = byte(r)
		for n := 1; n < len(p); n *= 2 {
			copy(p[n:], p[:n])
		}
		done := make(chan error)
		go func() { done <- d.WriteAt(p, off) }()
		for head[0] != byte(r) { // until the head shows this round's write
			if err := d.ReadAt(head, off); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.ReadAt(inner, 148*unit); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(head, bytes.Repeat([]byte{byte(r)}, len(head))) || !bytes.Equal(inner, bytes.Repeat([]byte{byte(r)}, len(inner))) {
			t.Fatalf("round %d: the new head was readable before unit 148 was written (unit 148 reads %d)", r, inner[0])
		}
	}
}
