package core

import (
	"context"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"pccheck/internal/storage"
)

// benchDeltaEngine builds a delta engine (K=8) on an un-throttled RAM device
// sized for one size-byte payload, with the benchmark's 4 MiB pipeline chunks.
func benchDeltaEngine(tb testing.TB, size int) (*Checkpointer, storage.Device) {
	tb.Helper()
	cfg := Config{Concurrent: 2, SlotBytes: int64(size), Writers: 2, ChunkBytes: min(size, 4<<20), VerifyPayload: true, DeltaKeyframe: 8}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	c, err := New(dev, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c, dev
}

// dirty5 rewrites about 5 % of p in granule-sized runs scattered by step.
func dirty5(p []byte, step int) {
	gran := deltaGranularity(int64(len(p)))
	n := ceilDiv(int64(len(p)), gran)
	for k := 0; k < max(1, n/20); k++ {
		lo := (step*7919 + k*20) % n * gran
		for i := lo; i < min(lo+gran, len(p)); i += 64 {
			p[i] += byte(step + 1)
		}
	}
}

// BenchmarkDeltaSave is one delta-mode save of a 5 %-dirty payload on RAM:
// eight of nine iterations store a delta record, the ninth a keyframe. 32 MiB
// is the first size whose up-front diff gets two workers (coresFor), given
// -cpu 2 or more. The keyframe legs save a 64 MiB keyframe every time, whose
// two writers hash and checksum what they persist; with evict, an untimed
// copy and checksum of the payload into a sink between saves leaves it out
// of cache, as a trainer's step would. The dense legs change every granule
// of a 64 MiB payload between saves, so with delta mode on each save is a
// keyframe whose writers also hash: what a dense trainer pays for delta mode.
//
//	go test -run '^$' -bench DeltaSave -cpu 1,2 ./internal/core/
func BenchmarkDeltaSave(b *testing.B) {
	// verify=false against verify=true on a full save is what the payload
	// CRC costs a memory-bound save.
	for _, leg := range []struct{ delta, verify bool }{{false, false}, {false, true}, {true, true}} {
		b.Run(fmt.Sprintf("dense/64MiB/delta=%v/verify=%v", leg.delta, leg.verify), func(b *testing.B) {
			const size = 64 << 20
			cfg := Config{Concurrent: 2, SlotBytes: size, Writers: 2, ChunkBytes: 4 << 20, VerifyPayload: leg.verify}
			if leg.delta {
				cfg.DeltaKeyframe = 8
			}
			c, err := New(storage.NewRAM(DeviceBytesFor(cfg)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			p := payload(1, size)
			rewrite := func() {
				for j := 0; j < size; j += 1 << 10 {
					p[j]++
				}
			}
			ctx := context.Background()
			for i := 0; i < 3; i++ { // warm: the first keyframe, then saves found dense
				rewrite()
				if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rewrite()
				b.StartTimer()
				if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
					b.Fatal(err)
				}
			}
			if st := c.Stats(); st.DeltaSaves != 0 {
				b.Fatalf("%d of the dense saves were deltas", st.DeltaSaves)
			}
		})
	}
	for _, evict := range []bool{true, false} {
		b.Run(fmt.Sprintf("keyframe/64MiB/evict=%v", evict), func(b *testing.B) {
			const size = 64 << 20
			cfg := Config{Concurrent: 1, SlotBytes: size, Writers: 2, ChunkBytes: 4 << 20, DRAMBudget: 4 << 20,
				VerifyPayload: true, DeltaKeyframe: 1, DeltaEvery: 1 << 30}
			c, err := New(storage.NewRAM(DeviceBytesFor(cfg)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			p, sink := payload(1, size), make([]byte, size)
			ctx := context.Background()
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dirty5(p, i)
				if evict {
					copy(sink, p)
					benchCRC = crc32.ChecksumIEEE(sink)
				}
				b.StartTimer()
				if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
					b.Fatal(err)
				}
			}
			if st := c.Stats(); st.DeltaSaves != 0 {
				b.Fatalf("%d of the saves were deltas", st.DeltaSaves)
			}
		})
	}
	for _, size := range []int{4 << 20, 32 << 20, 64 << 20} {
		b.Run(fmt.Sprintf("%dMiB", size>>20), func(b *testing.B) {
			c, _ := benchDeltaEngine(b, size)
			p := payload(1, size)
			ctx := context.Background()
			if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dirty5(p, i)
				if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var (
	benchSink []byte
	benchCRC  uint32
)

// BenchmarkChainRecover is a cold Recover of a keyframe plus K=8 deltas.
func BenchmarkChainRecover(b *testing.B) {
	const size = 64 << 20
	c, dev := benchDeltaEngine(b, size)
	p := payload(1, size)
	for i := 0; i < 9; i++ {
		dirty5(p, i)
		if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
			b.Fatal(err)
		}
	}
	if got := len(c.chain); got != 9 {
		b.Fatalf("chain holds %d links, want 9", got)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := Recover(dev)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
	}
}

// TestDeltaSaveAllocs bounds what a delta save allocates at 1 % of the
// payload: no staging copy, no heap record, no per-save hash arrays.
func TestDeltaSaveAllocs(t *testing.T) {
	const size = 4 << 20
	c, _ := benchDeltaEngine(t, size)
	p := payload(1, size)
	ctx := context.Background()
	save := func(i int) {
		dirty5(p, i)
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the pass buffers
		save(i)
	}
	const saves = 27 // three keyframe cycles
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < saves; i++ {
		save(3 + i)
	}
	runtime.ReadMemStats(&m1)
	if st := c.Stats(); st.DeltaSaves < saves*2/3 {
		t.Fatalf("only %d of %d saves were deltas", st.DeltaSaves, saves)
	}
	if perSave := (m1.TotalAlloc - m0.TotalAlloc) / saves; perSave > size/100 {
		t.Fatalf("a delta save allocates %d bytes, more than 1%% of its %d-byte payload", perSave, size)
	}
}
