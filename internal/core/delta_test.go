package core

import (
	"bytes"
	"context"
	"hash/maphash"
	"math/rand"
	"slices"
	"testing"

	"pccheck/internal/storage"
)

func deltaEngine(t *testing.T, cfg Config) (*Checkpointer, storage.Device) {
	t.Helper()
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dev
}

func TestDeltaGranularityBounds(t *testing.T) {
	cases := []struct {
		slotBytes int64
		want      int
	}{
		{64, 64},              // floor
		{4096, 64},            // 4 rounds up to 64
		{1 << 20, 1024},       // exactly 1/1024th
		{100 << 20, 64 << 10}, // ceiling (102400 clamps)
		{1 << 16, 64},
	}
	for _, c := range cases {
		if got := deltaGranularity(c.slotBytes); got != c.want {
			t.Errorf("deltaGranularity(%d) = %d, want %d", c.slotBytes, got, c.want)
		}
		if g := deltaGranularity(c.slotBytes); g%64 != 0 {
			t.Errorf("deltaGranularity(%d) = %d, not a 64-byte multiple", c.slotBytes, g)
		}
	}
}

// TestDiffWorkers holds the up-front diff of an in-memory payload to one
// answer however many workers split it: for p = 1..4 the bitmap, the new
// hashes and the record length equal p = 1's, and p = 1 marks exactly the
// granules the reference encoder's computeDirty does. Granule counts are not
// multiples of 8·p and last granules are short; the cases grow, shrink, feed
// trusted marks (some across a worker boundary, some outside the payload),
// MarkAll, and diff a first save with no hashes, each as a delta and as a
// keyframe. A diff at p = 2 allocates nothing.
func TestDiffWorkers(t *testing.T) {
	const gran = 64
	seed := maphash.MakeSeed()
	prev := payload(1, 61*gran-5)
	hashes := func(p []byte) []uint64 {
		hs := make([]uint64, ceilDiv(int64(len(p)), gran))
		for i := range hs {
			hs[i] = maphash.Bytes(seed, p[i*gran:min((i+1)*gran, len(p))])
		}
		return hs
	}
	evolve := func(size int) []byte {
		p := append(append([]byte(nil), prev[:min(size, len(prev))]...), payload(2, max(0, size-len(prev)))...)
		for _, off := range []int{3, 8*gran + 1, 17*gran - 1, 40 * gran} {
			if off < len(p) {
				p[off] ^= 0x5a
			}
		}
		return p
	}
	marks := [][2]int64{{3, 1}, {7*gran + 10, 2 * gran}, {40 * gran, 1}, {-gran, gran + 1}, {1 << 40, 1}}
	for _, tc := range []struct {
		name       string
		size       int
		old        []uint64
		marks      [][2]int64
		all, trust bool
	}{
		{name: "same size", size: len(prev), old: hashes(prev)},
		{name: "grow", size: 75*gran - 3, old: hashes(prev)},
		{name: "shrink", size: 23*gran - 7, old: hashes(prev)},
		{name: "short", size: 9*gran + 1, old: hashes(prev)},
		{name: "one granule", size: 40, old: hashes(prev)},
		{name: "empty", size: 0, old: hashes(prev)},
		{name: "trusted marks", size: len(prev), old: hashes(prev), marks: marks, trust: true},
		{name: "trusted marks, grow", size: 70 * gran, old: hashes(prev), marks: marks, trust: true},
		{name: "MarkAll", size: len(prev), old: hashes(prev), all: true},
		{name: "first save", size: 33*gran + 9},
	} {
		for _, filter := range []bool{true, false} {
			next := evolve(tc.size)
			diff := func(p int) *deltaPass {
				dp := &deltaPass{seed: seed, gran: gran, filter: filter, old: tc.old, lastSize: int64(len(prev)),
					marks: tc.marks, all: tc.all, trust: tc.trust}
				dp.begin(int64(len(next)))
				dp.diffAll(next, p)
				return dp
			}
			ref := diff(1)
			lastSize := int64(len(prev))
			if tc.old == nil {
				lastSize = 0
			}
			ds := computeDirty(next, gran, lastSize, chunkHashes(prev, gran), tc.marks, tc.all, tc.trust || tc.all)
			if tc.old == nil {
				ds = computeDirty(next, gran, lastSize, nil, nil, false, false)
			}
			want := int64(len(ref.head))
			for i, d := range ds.dirty {
				if ref.marked(i) != d {
					t.Fatalf("%s (filter %v): granule %d marked %v, the reference encoder says %v", tc.name, filter, i, ref.marked(i), d)
				}
				if d {
					want += int64(chunkLen(int64(len(next)), gran, i))
				}
			}
			if ref.recLen != want {
				t.Fatalf("%s (filter %v): record length %d, want %d", tc.name, filter, ref.recLen, want)
			}
			for p := 2; p <= 4; p++ {
				got := diff(p)
				if !bytes.Equal(got.head, ref.head) || !slices.Equal(got.next, ref.next) || got.recLen != ref.recLen {
					t.Fatalf("%s (filter %v): %d workers disagree with one: bitmap equal=%v hashes equal=%v record %d vs %d",
						tc.name, filter, p, bytes.Equal(got.head, ref.head), slices.Equal(got.next, ref.next), got.recLen, ref.recLen)
				}
			}
		}
	}
	next := evolve(len(prev))
	dp := &deltaPass{seed: seed, gran: gran, filter: true, old: hashes(prev), lastSize: int64(len(prev))}
	if allocs := testing.AllocsPerRun(20, func() { dp.begin(int64(len(next))); dp.diffAll(next, 2) }); allocs != 0 {
		t.Errorf("a diff on two workers makes %.1f allocations, want 0", allocs)
	}
	t.Run("keyframe writers", testKeyframeWriters)
}

// testKeyframeWriters: an in-place keyframe is diffed by the writers that
// persist it, each over its own pieces. On 1–4 writers the engine must hold
// the hashes, bitmap and record length a serial diff of the payload gives, and
// decide the next save's density the same way — when the size changed too
// (the boundary rule in begin), under trusted marks, and when the whole
// payload changed.
func testKeyframeWriters(t *testing.T) {
	const size = 150<<10 + 5
	prev := payload(1, size)
	flip := func(p []byte) []byte {
		for _, off := range []int{3, 9<<10 + 1, 77 << 10, len(p) - 1} {
			p[off] ^= 0x5a
		}
		return p
	}
	for _, tc := range []struct {
		name  string
		next  []byte
		marks [][2]int64
	}{
		{"same size", flip(bytes.Clone(prev)), nil},
		{"grow", flip(append(bytes.Clone(prev), payload(2, 20<<10+3)...)), nil},
		{"shrink", flip(bytes.Clone(prev[:100<<10+7])), nil},
		{"trusted marks", flip(bytes.Clone(prev)), [][2]int64{{3, 1}, {9 << 10, 8}, {77 << 10, 1}, {size - 1, 1}}},
		{"dense", payload(3, size), nil},
	} {
		for writers := 1; writers <= 4; writers++ {
			cfg := Config{Concurrent: 1, SlotBytes: 1 << 20, Writers: writers, ChunkBytes: 16 << 10, VerifyPayload: true,
				DeltaKeyframe: 4, DeltaEvery: 1 << 30}
			c, _ := deltaEngine(t, cfg)
			if _, err := c.Checkpoint(context.Background(), BytesSource(prev)); err != nil {
				t.Fatal(err)
			}
			ref := &deltaPass{seed: c.pass.seed, gran: c.pass.gran, old: slices.Clone(c.hashes), lastSize: size,
				marks: tc.marks, trust: tc.marks != nil}
			ref.begin(int64(len(tc.next)))
			ref.recLen += ref.diff(tc.next, 0)
			for _, r := range tc.marks {
				c.DirtyTracker().MarkRange(r[0], r[1])
			}
			if _, err := c.Checkpoint(context.Background(), BytesSource(tc.next)); err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.KeyframeSaves != 2 {
				t.Fatalf("%s: %d keyframes of 2 saves", tc.name, st.KeyframeSaves)
			}
			dense := ref.recLen >= int64(len(tc.next))
			if !slices.Equal(c.hashes, ref.next) || !bytes.Equal(c.pass.head, ref.head) || c.pass.recLen != ref.recLen || c.dense != dense {
				t.Fatalf("%s: %d writers disagree with a serial diff: hashes equal=%v bitmap equal=%v record %d vs %d dense %v vs %v",
					tc.name, writers, slices.Equal(c.hashes, ref.next), bytes.Equal(c.pass.head, ref.head),
					c.pass.recLen, ref.recLen, c.dense, dense)
			}
			if tc.name == "dense" && !dense || tc.name == "same size" && dense {
				t.Fatalf("%s: dense = %v, the case tests nothing", tc.name, dense)
			}
			c.Close()
		}
	}
}

func TestDeltaEncodeDecodeApply(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		gran := 64 * (1 + rng.Intn(4))
		n := 1 + rng.Intn(4000)
		base := payload(int64(trial), n)
		next := append([]byte(nil), base...)
		// Mutate a few scattered ranges.
		for r := 0; r < 1+rng.Intn(5); r++ {
			off := rng.Intn(n)
			span := 1 + rng.Intn(min(64, n-off))
			rng.Read(next[off : off+span])
		}
		ds := computeDirty(next, gran, int64(n), chunkHashes(base, gran), nil, false, false)
		rec := encodeDelta(next, 7, gran, ds)
		d, err := decodeDelta(rec)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if d.base != 7 || d.fullSize != int64(n) || d.gran != gran {
			t.Fatalf("trial %d: decoded header %+v", trial, d)
		}
		got, err := applyDelta(base, d)
		if err != nil {
			t.Fatalf("trial %d: apply: %v", trial, err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("trial %d: apply did not reconstruct the mutated payload", trial)
		}
	}
}

func TestDeltaApplyAcrossSizeChange(t *testing.T) {
	const gran = 64
	for _, sizes := range [][2]int{{1000, 1500}, {1500, 1000}, {64, 65}, {65, 64}, {1, 4000}, {4000, 1}} {
		base := payload(1, sizes[0])
		next := payload(2, sizes[1])
		ds := computeDirty(next, gran, int64(len(base)), chunkHashes(base, gran), nil, false, false)
		d, err := decodeDelta(encodeDelta(next, 3, gran, ds))
		if err != nil {
			t.Fatalf("%v: decode: %v", sizes, err)
		}
		got, err := applyDelta(base, d)
		if err != nil {
			t.Fatalf("%v: apply: %v", sizes, err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("%v: reconstruction mismatch", sizes)
		}
	}
}

func TestDeltaDecodeRejectsCorruption(t *testing.T) {
	p := payload(9, 1000)
	ds := computeDirty(p, 64, 0, nil, nil, true, false)
	rec := encodeDelta(p, 1, 64, ds)
	if _, err := decodeDelta(rec); err != nil {
		t.Fatalf("pristine record rejected: %v", err)
	}
	for _, off := range []int{0, 4, 8, 16, 24, 28, 32, 40} {
		mut := append([]byte(nil), rec...)
		mut[off] ^= 0xff
		if _, err := decodeDelta(mut); err == nil {
			t.Errorf("corruption at byte %d not detected", off)
		}
	}
	if _, err := decodeDelta(rec[:len(rec)-1]); err == nil {
		t.Error("truncated record not detected")
	}
	if _, err := decodeDelta(append(append([]byte(nil), rec...), 0)); err == nil {
		t.Error("trailing byte not detected")
	}
}

// TestDeltaCheckpointRecoverSequence drives the engine save path across
// several keyframe cycles, checking Recover and ReadLatest after every save.
func TestDeltaCheckpointRecoverSequence(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 3}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()

	p := sparsePayload(77, 0, 6000)
	var lastCtr uint64
	for i := 0; i < 10; i++ {
		if i > 0 {
			mutateSparse(p, 77, uint64(i))
		}
		ctr, err := c.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if ctr <= lastCtr {
			t.Fatalf("save %d: counter %d did not advance past %d", i, ctr, lastCtr)
		}
		lastCtr = ctr

		got, rc, err := Recover(dev)
		if err != nil {
			t.Fatalf("save %d: recover: %v", i, err)
		}
		if rc != ctr || !bytes.Equal(got, p) {
			t.Fatalf("save %d: recover returned counter %d (want %d), equal=%v", i, rc, ctr, bytes.Equal(got, p))
		}
		dst := make([]byte, len(p))
		rctr, n, err := c.ReadLatest(dst)
		if err != nil {
			t.Fatalf("save %d: ReadLatest: %v", i, err)
		}
		if rctr != ctr || n != int64(len(p)) || !bytes.Equal(dst[:n], p) {
			t.Fatalf("save %d: ReadLatest mismatch", i)
		}
	}
	st := c.Stats()
	if st.DeltaSaves == 0 || st.KeyframeSaves < 2 {
		t.Fatalf("expected mixed delta/keyframe saves, got deltas=%d keyframes=%d", st.DeltaSaves, st.KeyframeSaves)
	}
	if st.BytesPersisted >= st.BytesWritten {
		t.Fatalf("sparse workload persisted %d bytes for %d logical — no reduction", st.BytesPersisted, st.BytesWritten)
	}
}

// TestDeltaTrackerFed exercises trusted-marks mode: the trainer feeds exact
// mutated ranges and the engine skips hashing entirely.
func TestDeltaTrackerFed(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 4}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()
	tr := c.DirtyTracker()
	if tr == nil {
		t.Fatal("delta engine has no tracker")
	}

	p := sparsePayload(5, 0, 5000)
	for i := 0; i < 9; i++ {
		if i > 0 {
			for _, r := range mutateSparse(p, 5, uint64(i)) {
				tr.MarkRange(r[0], r[1])
			}
		}
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		got, _, err := Recover(dev)
		if err != nil {
			t.Fatalf("save %d: recover: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("save %d: tracked delta recovery mismatch", i)
		}
	}
	if st := c.Stats(); st.DeltaSaves == 0 {
		t.Fatal("tracked workload produced no delta saves")
	}
}

// TestDeltaOpenReattach crashes (drops) the engine after a mid-chain save
// and re-attaches with Open: the chain must be rebuilt and pinned, saving
// must continue, and the pre-crash checkpoint must stay recoverable.
func TestDeltaOpenReattach(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 3}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()

	p := sparsePayload(11, 0, 4000)
	var last uint64
	for i := 0; i < 5; i++ { // 5 saves: keyframe + 3 deltas + keyframe
		if i > 0 {
			mutateSparse(p, 11, uint64(i))
		}
		ctr, err := c.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		last = ctr
	}

	c2, err := Open(dev, Config{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := c2.Config().DeltaKeyframe; got != 3 {
		t.Fatalf("Open recovered DeltaKeyframe %d, want 3", got)
	}
	if free, want := c2.FreeSlots(), c2.TotalSlots()-c2.PinnedSlots(); free != want {
		t.Fatalf("after reattach: %d free slots, want %d", free, want)
	}
	dst := make([]byte, 4000)
	rctr, _, err := c2.ReadLatest(dst)
	if err != nil || rctr != last || !bytes.Equal(dst, p) {
		t.Fatalf("reattach ReadLatest: ctr=%d want=%d err=%v", rctr, last, err)
	}
	for i := 5; i < 9; i++ {
		mutateSparse(p, 11, uint64(i))
		ctr, err := c2.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			t.Fatalf("post-reattach save %d: %v", i, err)
		}
		if ctr <= last {
			t.Fatalf("post-reattach counter %d did not advance past %d", ctr, last)
		}
		last = ctr
	}
	got, rc, err := Recover(dev)
	if err != nil || rc != last || !bytes.Equal(got, p) {
		t.Fatalf("recover after reattach saves: rc=%d want=%d err=%v", rc, last, err)
	}
}

// TestDeltaRecoveryIterator streams a delta-tip checkpoint through the
// persistent iterator.
func TestDeltaRecoveryIterator(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 4}
	c, dev := deltaEngine(t, cfg)
	ctx := context.Background()

	p := sparsePayload(21, 0, 6500)
	for i := 0; i < 3; i++ { // keyframe + 2 deltas: tip is a delta
		if i > 0 {
			mutateSparse(p, 21, uint64(i))
		}
		if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	it, err := NewRecoveryIterator(dev, 1000, 0)
	if err != nil {
		t.Fatalf("NewRecoveryIterator: %v", err)
	}
	if it.Size() != int64(len(p)) {
		t.Fatalf("iterator size %d, want logical %d", it.Size(), len(p))
	}
	var out []byte
	buf := make([]byte, 1000)
	for !it.Done() {
		n, err := it.Next(buf)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, buf[:n]...)
	}
	if !bytes.Equal(out, p) {
		t.Fatal("iterator did not reconstruct the delta chain")
	}
}

// TestDeltaBytesPersistedReduction is the issue's acceptance bar: on a
// sparse workload, delta mode must cut bytes persisted per iteration by at
// least 5× versus full checkpoints.
func TestDeltaBytesPersistedReduction(t *testing.T) {
	const (
		size  = 32 << 10
		iters = 40
	)
	run := func(cfg Config) StatsSnapshot {
		c, _ := deltaEngine(t, cfg)
		ctx := context.Background()
		p := sparsePayload(99, 0, size)
		for i := 0; i < iters; i++ {
			if i > 0 {
				mutateSparse(p, 99, uint64(i))
			}
			if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	full := run(Config{Concurrent: 1, SlotBytes: size + 64})
	delta := run(Config{Concurrent: 1, SlotBytes: size + 64, DeltaEvery: 1, DeltaKeyframe: 10})
	if full.BytesPersisted != full.BytesWritten {
		t.Fatalf("baseline persisted %d != logical %d", full.BytesPersisted, full.BytesWritten)
	}
	ratio := float64(full.BytesPersisted) / float64(delta.BytesPersisted)
	t.Logf("bytes persisted: full=%d delta=%d reduction=%.1fx (deltas=%d keyframes=%d)",
		full.BytesPersisted, delta.BytesPersisted, ratio, delta.DeltaSaves, delta.KeyframeSaves)
	if ratio < 5 {
		t.Fatalf("delta reduction %.2fx < required 5x", ratio)
	}
}

// TestDeltaCrashSweep runs the delta workloads of the sweep matrix under
// simulated power cuts: the durable floor must never regress past the last
// acknowledged checkpoint — which for a delta tip means the last complete
// keyframe+chain — and recovery must reproduce acknowledged bytes exactly.
func TestDeltaCrashSweep(t *testing.T) {
	stride := 3
	samples := 24
	if testing.Short() {
		stride, samples = 7, 8
	}
	for _, w := range CrashSweepConfigs(3) {
		if w.DeltaKeyframe == 0 {
			continue
		}
		w := w
		t.Run(w.String(), func(t *testing.T) {
			t.Parallel()
			res, err := ExploreCrashes(CrashExploreOptions{
				Workload: w,
				Stride:   stride,
				Samples:  samples,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.Acked != w.Checkpoints {
				t.Errorf("acked %d checkpoints, want %d", res.Acked, w.Checkpoints)
			}
			if res.Recovered == 0 {
				t.Error("no case recovered a checkpoint")
			}
		})
	}
}

func FuzzDeltaDecode(f *testing.F) {
	p := payload(1, 700)
	ds := computeDirty(p, 64, 0, nil, nil, true, false)
	f.Add(encodeDelta(p, 3, 64, ds))
	base := payload(2, 700)
	next := append([]byte(nil), base...)
	copy(next[100:], payload(3, 80))
	f.Add(encodeDelta(next, 9, 64, computeDirty(next, 64, 700, chunkHashes(base, 64), nil, false, false)))
	f.Add([]byte{})
	f.Add(make([]byte, deltaHdrSize))
	f.Fuzz(func(t *testing.T, rec []byte) {
		d, err := decodeDelta(rec)
		if err != nil {
			return
		}
		// A record that decodes must also apply without panicking (bounded
		// to keep the fuzzer from allocating multi-GiB reconstructions).
		if d.fullSize <= 1<<20 {
			if out, err := applyDelta(base, d); err == nil && int64(len(out)) != d.fullSize {
				t.Fatalf("apply returned %d bytes, record claims %d", len(out), d.fullSize)
			}
		}
	})
}
