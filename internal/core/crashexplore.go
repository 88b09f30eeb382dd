package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

// Crash-point exploration: the machine-checked version of the paper's §4.1
// invariant — "at any instant, at least one fully persisted checkpoint
// exists and is recoverable".
//
// A workload of concurrent checkpoints runs once against a journaling
// storage.CrashDevice. The recorded op journal then serves as a replayable
// history: for every operation boundary (every point at which power could be
// cut) the explorer materializes the post-crash device image — first under
// the pessimistic cache-loss schedule (all un-synced writes dropped), then
// under sampled adversarial schedules that keep, drop, tear, and reorder
// un-synced writes — and runs real recovery against it. Each image must
// satisfy:
//
//  1. Recovery succeeds whenever any Checkpoint call had returned nil before
//     the cut, and the recovered counter is ≥ the newest such counter.
//  2. The recovered payload is internally consistent (self-verifying), and
//     byte-identical to what was saved when its counter was acknowledged.
//  3. Re-attaching with Open on the crashed image yields a working engine:
//     subsequent checkpoints publish with fresh counters and slot accounting
//     balances (slot conservation holds across the crash).
//  4. Recovery never panics and never returns garbage — at worst
//     ErrNoCheckpoint (or ErrNotFormatted for a cut mid-format).

// CrashWorkload describes the concurrent-checkpoint run recorded for
// exploration.
type CrashWorkload struct {
	// Kind selects the device semantics the engine sees (KindPMEM routes
	// per-writer fences, anything else the single covering sync).
	Kind storage.Kind
	// Concurrent is the engine's N; the device holds N+1 slots.
	Concurrent int
	// SlotBytes is the slot capacity (default 4096).
	SlotBytes int64
	// Writers is the engine's parallel writer count (default 2).
	Writers int
	// ChunkBytes pipelines the payload through DRAM chunks; 0 = unchunked.
	ChunkBytes int
	// VerifyPayload enables the payload CRC.
	VerifyPayload bool
	// Goroutines is how many savers checkpoint concurrently (default N+1,
	// so slot contention occurs). Delta workloads force 1: each save is
	// diffed against the one before it, so the recorded history must be a
	// single evolving state.
	Goroutines int
	// Checkpoints is how many checkpoints each saver runs (default 4).
	Checkpoints int
	// DeltaEvery / DeltaKeyframe switch the workload to delta mode (the
	// engine's Config knobs). The recorded history is then a single sparse
	// payload evolving step by step, so crash cuts land mid-delta,
	// mid-keyframe, and across chain boundaries.
	DeltaEvery    int
	DeltaKeyframe int
	// Tracker feeds the engine's DirtyTracker with the exact mutated
	// ranges (trusted-marks mode); false leaves the content-hash fallback.
	Tracker bool
	// BlackBox attaches a full observer chain (goodput ledger → flight
	// recorder) and a black-box telemetry region, with an
	// explicit flush after every acknowledged checkpoint. Each crash cut
	// then additionally asserts the telemetry invariants: the region
	// decodes without panicking, every surviving frame is CRC-valid and
	// the tail strictly sequence-monotonic, the newest frame belongs to a
	// flush that started before the cut (no fabricated or resurrected
	// telemetry), and whenever a flush fully completed before the cut the
	// box is non-empty and at least that fresh.
	BlackBox bool
	// Seed drives payload contents and sizes.
	Seed int64
}

func (w CrashWorkload) withDefaults() CrashWorkload {
	if w.Concurrent < 1 {
		w.Concurrent = 1
	}
	if w.SlotBytes <= 0 {
		w.SlotBytes = 4096
	}
	if w.Writers < 1 {
		w.Writers = 2
	}
	if w.DeltaKeyframe > 0 {
		w.Goroutines = 1
	}
	if w.Goroutines < 1 {
		w.Goroutines = w.Concurrent + 1
	}
	if w.Checkpoints < 1 {
		w.Checkpoints = 4
	}
	return w
}

// String names the workload in reports: kind/N/chunking/verify[/delta].
func (w CrashWorkload) String() string {
	chunk := "unchunked"
	if w.ChunkBytes > 0 {
		chunk = fmt.Sprintf("chunk=%d", w.ChunkBytes)
	}
	verify := "verify=off"
	if w.VerifyPayload {
		verify = "verify=on"
	}
	s := fmt.Sprintf("%s N=%d %s %s", w.Kind, w.Concurrent, chunk, verify)
	if w.DeltaKeyframe > 0 {
		s += fmt.Sprintf(" delta=%d/K=%d", w.DeltaEvery, w.DeltaKeyframe)
		if w.Tracker {
			s += " tracked"
		}
	}
	if w.BlackBox {
		s += " blackbox"
	}
	return s
}

// CrashExploreOptions bounds one exploration.
type CrashExploreOptions struct {
	Workload CrashWorkload
	// Samples is how many additional (crash point, cache-loss schedule)
	// cases to draw beyond the per-boundary pessimistic sweep. Each sample
	// picks a uniform boundary and a seeded drop/keep/tear schedule.
	Samples int
	// Stride visits every Stride-th op boundary in the pessimistic sweep
	// (1 = every boundary; the bounded fast mode in go test uses a larger
	// stride to stay within its op budget).
	Stride int
	// ReattachEvery runs the full Open + keep-checkpointing probe on every
	// k-th case (it is the expensive part of a case). 0 defaults to 8;
	// negative disables re-attach probing.
	ReattachEvery int
}

// CrashExploreResult summarizes one exploration.
type CrashExploreResult struct {
	Workload    CrashWorkload
	Ops         int // recorded journal length
	CrashPoints int // op boundaries visited by the pessimistic sweep
	Cases       int // total (boundary, schedule) cases checked
	Recovered   int // cases where recovery returned a checkpoint
	Empty       int // cases with no checkpoint (legal only before the first ack)
	Reattached  int // cases that ran the re-attach probe
	Acked       int // checkpoints acknowledged by the workload
	Violations  []string
}

// Ok reports whether the invariant held in every case.
func (r CrashExploreResult) Ok() bool { return len(r.Violations) == 0 }

// crashPayload builds a self-verifying payload: the seed and length are
// embedded, the rest is a pure function of them, so any recovered payload
// can be validated without knowing which checkpoint survived.
func crashPayload(seed uint64, n int) []byte {
	if n < 16 {
		n = 16
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Read(b[16:])
	return b
}

// checkCrashPayload validates a payload against its embedded seed+length.
func checkCrashPayload(p []byte) error {
	if len(p) < 16 {
		return fmt.Errorf("payload too short: %d bytes", len(p))
	}
	seed := binary.LittleEndian.Uint64(p)
	n := binary.LittleEndian.Uint64(p[8:])
	if n != uint64(len(p)) {
		return fmt.Errorf("payload claims %d bytes, has %d", n, len(p))
	}
	if want := crashPayload(seed, len(p)); !bytes.Equal(p, want) {
		return fmt.Errorf("payload for seed %d is corrupted", seed)
	}
	return nil
}

// sparseMagic tags the sparse payload family used by delta workloads. The
// high byte makes it impossible to collide with a crashPayload, whose first
// eight bytes are a seed always < 2^40.
const sparseMagic = 0xC0DE5EED5EEDC0DE

// sparsePayload builds the self-verifying evolving payload delta workloads
// checkpoint: magic u64 @0, seed u64 @8, step u64 @16, length u64 @24, then
// an rng body. Step s is reached by applying mutateSparse s times, so any
// recovered payload can be regenerated from its embedded fields alone.
func sparsePayload(seed, step uint64, n int) []byte {
	if n < 128 {
		n = 128
	}
	b := make([]byte, n)
	binary.LittleEndian.PutUint64(b, sparseMagic)
	binary.LittleEndian.PutUint64(b[8:], seed)
	binary.LittleEndian.PutUint64(b[24:], uint64(n))
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Read(b[32:])
	for s := uint64(1); s <= step; s++ {
		mutateSparse(b, seed, s)
	}
	return b
}

// mutateSparse evolves b in place to the given step, touching the step
// field and a handful of small scattered ranges — the access pattern delta
// encoding exists for. It returns the exact mutated ranges so tracked
// workloads can feed them to the DirtyTracker.
func mutateSparse(b []byte, seed, step uint64) [][2]int64 {
	binary.LittleEndian.PutUint64(b[16:], step)
	ranges := [][2]int64{{16, 8}}
	rng := rand.New(rand.NewSource(int64(seed*1_000_003 + step)))
	for r := 0; r < 4; r++ {
		span := 16 + rng.Intn(48)
		if len(b)-32-span < 1 {
			continue
		}
		off := 32 + rng.Intn(len(b)-32-span)
		rng.Read(b[off : off+span])
		ranges = append(ranges, [2]int64{int64(off), int64(span)})
	}
	return ranges
}

// checkSparsePayload validates a sparse payload by regenerating it from its
// embedded seed, step and length.
func checkSparsePayload(p []byte) error {
	if len(p) < 32 {
		return fmt.Errorf("sparse payload too short: %d bytes", len(p))
	}
	seed := binary.LittleEndian.Uint64(p[8:])
	step := binary.LittleEndian.Uint64(p[16:])
	n := binary.LittleEndian.Uint64(p[24:])
	if n != uint64(len(p)) {
		return fmt.Errorf("sparse payload claims %d bytes, has %d", n, len(p))
	}
	if step > 1<<20 {
		return fmt.Errorf("sparse payload claims implausible step %d", step)
	}
	if want := sparsePayload(seed, step, len(p)); !bytes.Equal(p, want) {
		return fmt.Errorf("sparse payload for seed %d step %d is corrupted", seed, step)
	}
	return nil
}

// checkAnyCrashPayload dispatches on the payload family tag.
func checkAnyCrashPayload(p []byte) error {
	if len(p) >= 8 && binary.LittleEndian.Uint64(p) == sparseMagic {
		return checkSparsePayload(p)
	}
	return checkCrashPayload(p)
}

// ExploreCrashes records one concurrent workload and sweeps simulated power
// cuts over it. A non-empty Violations list (or a non-nil error for setup
// failures) means the §4.1 durability invariant does not hold.
func ExploreCrashes(opts CrashExploreOptions) (CrashExploreResult, error) {
	w := opts.Workload.withDefaults()
	res := CrashExploreResult{Workload: w}
	if opts.Stride < 1 {
		opts.Stride = 1
	}
	if opts.ReattachEvery == 0 {
		opts.ReattachEvery = 8
	}

	cfg := Config{
		Concurrent:    w.Concurrent,
		SlotBytes:     w.SlotBytes,
		Writers:       w.Writers,
		ChunkBytes:    w.ChunkBytes,
		VerifyPayload: w.VerifyPayload,
		DeltaEvery:    w.DeltaEvery,
		DeltaKeyframe: w.DeltaKeyframe,
	}
	if w.BlackBox {
		// Full observer chain plus a manually-flushed telemetry region,
		// sized so the sweep's flushes never wrap (one frame slot per
		// acknowledged checkpoint, with headroom) — a completed flush must
		// therefore survive every later cut.
		cfg.Observer = obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05}, obs.NewRecorder(512))
		cfg.BlackBox = blackbox.Config{
			Bytes:      blackbox.SectorBytes + 64*4096,
			FrameBytes: 4096,
			FlushEvery: -1, // explicit flushes only: the journal stays deterministic
			EventTail:  32,
		}
	}
	dev := storage.NewCrashDevice(DeviceBytesFor(cfg), w.Kind)
	eng, err := New(dev, cfg)
	if err != nil {
		return res, err
	}

	// Black-box flush bookkeeping: each flush is bracketed by journal op
	// counts so any cut can be classified — a flush with endOp <= cut is
	// fully durable in the image; one with startOp >= cut contributed
	// nothing to it.
	var (
		bbMu      sync.Mutex
		bbFlushes []bbFlushMark
	)
	flushBB := func() error {
		if !w.BlackBox {
			return nil
		}
		bbMu.Lock()
		defer bbMu.Unlock()
		start := dev.Ops()
		seq, err := eng.FlushBlackBox()
		if err != nil {
			return fmt.Errorf("black box flush: %w", err)
		}
		bbFlushes = append(bbFlushes, bbFlushMark{seq: seq, startOp: start, endOp: dev.Ops()})
		return nil
	}

	// Record phase. Each ack is marked in the journal at a point no earlier
	// than its durable record, and the payload is remembered for byte-exact
	// comparison.
	var (
		ackedMu  sync.Mutex
		acked    = make(map[uint64][]byte)
		saveErr  error
		saveOnce sync.Once
		wg       sync.WaitGroup
	)
	if w.DeltaKeyframe > 0 {
		// Delta mode: a single sparse payload evolves step by step, so the
		// journal holds keyframes and deltas interleaved and crash cuts land
		// mid-delta, mid-keyframe, and across chain boundaries.
		rng := rand.New(rand.NewSource(w.Seed))
		pseed := uint64(w.Seed)<<20 + 1
		n := 1024 + rng.Intn(int(w.SlotBytes)-1024)
		p := sparsePayload(pseed, 0, n)
		tracker := eng.DirtyTracker()
		for i := 0; i < w.Checkpoints; i++ {
			if i > 0 {
				ranges := mutateSparse(p, pseed, uint64(i))
				if w.Tracker {
					for _, r := range ranges {
						tracker.MarkRange(r[0], r[1])
					}
				}
			}
			ctr, err := eng.Checkpoint(context.Background(), BytesSource(p))
			if err != nil {
				return res, fmt.Errorf("delta ckpt %d: %w", i, err)
			}
			// p mutates in place next iteration — remember a copy.
			acked[ctr] = append([]byte(nil), p...)
			dev.Mark(ctr)
			if err := flushBB(); err != nil {
				return res, err
			}
		}
	} else {
		// Concurrent mode: Goroutines savers race Checkpoint calls.
		for g := 0; g < w.Goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(w.Seed + int64(g)*7919))
				for i := 0; i < w.Checkpoints; i++ {
					seed := uint64(w.Seed)<<20 + uint64(g)<<10 + uint64(i) + 1
					n := 16 + rng.Intn(int(w.SlotBytes)-15)
					p := crashPayload(seed, n)
					ctr, err := eng.Checkpoint(context.Background(), BytesSource(p))
					if err != nil {
						saveOnce.Do(func() { saveErr = fmt.Errorf("saver %d ckpt %d: %w", g, i, err) })
						return
					}
					ackedMu.Lock()
					acked[ctr] = p
					ackedMu.Unlock()
					dev.Mark(ctr)
					if err := flushBB(); err != nil {
						saveOnce.Do(func() { saveErr = err })
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	if saveErr != nil {
		return res, saveErr
	}
	res.Ops = dev.Ops()
	res.Acked = len(acked)

	// Explore phase. The pessimistic sweep visits op boundaries; samples
	// add torn/reordered cache-loss schedules at random boundaries.
	rng := rand.New(rand.NewSource(w.Seed ^ 0x5cc))
	runCase := func(cut int, choose storage.CrashChooser, desc string, reattach bool) {
		res.Cases++
		defer func() {
			if p := recover(); p != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: cut %d (%s): recovery PANICKED: %v", w, cut, desc, p))
			}
		}()
		img, err := dev.CrashImage(cut, choose)
		if err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("%s: cut %d (%s): %v", w, cut, desc, err))
			return
		}
		ackedMin := dev.HighestMark(cut)
		rdev := storage.NewRAMFromBytes(img)
		if w.BlackBox {
			// Telemetry invariants hold at every cut, independent of
			// whether a checkpoint is recoverable from this image.
			if msg := checkCrashBlackBox(rdev, bbFlushes, cut); msg != "" {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: cut %d (%s): %s", w, cut, desc, msg))
			}
		}
		p, rc, err := Recover(rdev)
		if err != nil {
			if ackedMin > 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: cut %d (%s): checkpoint %d acknowledged but recovery failed: %v", w, cut, desc, ackedMin, err))
			} else {
				res.Empty++ // crashed before anything completed — legal
			}
			return
		}
		res.Recovered++
		if rc < ackedMin {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: cut %d (%s): recovered counter %d older than acknowledged %d", w, cut, desc, rc, ackedMin))
			return
		}
		if err := checkAnyCrashPayload(p); err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: cut %d (%s): recovered checkpoint %d is garbage: %v", w, cut, desc, rc, err))
			return
		}
		if want, ok := acked[rc]; ok && !bytes.Equal(p, want) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("%s: cut %d (%s): recovered checkpoint %d differs from its acknowledged payload", w, cut, desc, rc))
			return
		}
		if reattach {
			if err := reattachProbe(rdev, rc); err != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("%s: cut %d (%s): re-attach after crash: %v", w, cut, desc, err))
				return
			}
			res.Reattached++
		}
	}

	caseNo := 0
	probe := func() bool {
		caseNo++
		return opts.ReattachEvery > 0 && caseNo%opts.ReattachEvery == 0
	}
	for cut := 0; cut <= res.Ops; cut += opts.Stride {
		res.CrashPoints++
		runCase(cut, storage.DropAllWrites, "drop-all", probe())
	}
	for s := 0; s < opts.Samples; s++ {
		cut := rng.Intn(res.Ops + 1)
		seed := rng.Int63()
		runCase(cut, storage.SeededChooser(seed), fmt.Sprintf("sampled seed=%d", seed), probe())
	}
	return res, nil
}

// bbFlushMark brackets one explicit black-box flush in the recorded
// journal: seq is the frame written, startOp/endOp the journal lengths
// sampled immediately before and after the flush.
type bbFlushMark struct {
	seq     uint64
	startOp int
	endOp   int
}

// checkCrashBlackBox asserts the black-box telemetry invariants on one
// post-crash image. It returns a violation description, or "" when the
// invariants hold:
//
//   - the region decodes (or is legally absent when no flush completed
//     before the cut — e.g. a cut during format);
//   - the surviving frames form a strictly monotonic sequence tail
//     (Decode already dropped torn and stale-epoch frames via CRC and
//     epoch checks);
//   - the newest frame belongs to a flush that started before the cut:
//     telemetry is never fabricated or resurrected from the future;
//   - when at least one flush fully completed (covering sync included)
//     before the cut, the box is non-empty and at least that fresh.
func checkCrashBlackBox(dev storage.Device, flushes []bbFlushMark, cut int) string {
	var maxStarted, maxCompleted uint64
	for _, f := range flushes {
		if f.startOp < cut && f.seq > maxStarted {
			maxStarted = f.seq
		}
		if f.endOp <= cut && f.seq > maxCompleted {
			maxCompleted = f.seq
		}
	}
	pm, err := PostMortem(dev)
	if err != nil {
		if maxCompleted > 0 {
			return fmt.Sprintf("flush %d completed before the cut but the black box is unreadable: %v", maxCompleted, err)
		}
		return "" // nothing durable yet — an absent or torn region is legal
	}
	var last uint64
	for _, f := range pm.Frames {
		if f.Seq <= last {
			return fmt.Sprintf("black box tail not strictly monotonic: frame %d after %d", f.Seq, last)
		}
		last = f.Seq
	}
	if pm.LastSeq() > maxStarted {
		return fmt.Sprintf("black box holds frame %d but no flush that fresh had started before the cut (fabricated telemetry, newest legal %d)", pm.LastSeq(), maxStarted)
	}
	if maxCompleted > 0 && pm.LastSeq() < maxCompleted {
		return fmt.Sprintf("black box newest frame %d is older than completed flush %d (durable telemetry lost)", pm.LastSeq(), maxCompleted)
	}
	return ""
}

// reattachProbe is invariant (3): Open the crashed image, keep
// checkpointing, and verify counters advance past the recovered one and
// slot accounting balances — a crash must not cost the engine a slot.
func reattachProbe(dev storage.Device, recovered uint64) error {
	eng, err := Open(dev, Config{})
	if err != nil {
		return fmt.Errorf("Open: %w", err)
	}
	ctx := context.Background()
	var last uint64
	for i := 0; i < 2; i++ {
		p := crashPayload(recovered<<8+uint64(i)+1, 256)
		ctr, err := eng.Checkpoint(ctx, BytesSource(p))
		if err != nil {
			return fmt.Errorf("post-crash checkpoint %d: %w", i, err)
		}
		if ctr <= recovered || ctr <= last {
			return fmt.Errorf("post-crash counter %d did not advance past %d", ctr, recovered)
		}
		last = ctr
	}
	if free, want := eng.FreeSlots(), eng.TotalSlots()-eng.PinnedSlots(); free != want {
		return fmt.Errorf("slot conservation broken: %d free slots, want %d", free, want)
	}
	got, rc, err := Recover(dev)
	if err != nil {
		return fmt.Errorf("recover after re-attach: %w", err)
	}
	if rc != last {
		return fmt.Errorf("recover after re-attach returned counter %d, want %d", rc, last)
	}
	if err := checkAnyCrashPayload(got); err != nil {
		return fmt.Errorf("recover after re-attach: %v", err)
	}
	return nil
}

// CrashSweepConfigs returns the full workload matrix of the crash sweep:
// device kind × N ∈ {1,2,4} × {chunked, unchunked} × verify {on, off},
// plus delta workloads per kind covering keyframe-only chains, tracked
// sparse marks, and an every-other-save delta cadence. The delta entries
// run enough checkpoints to cross at least one keyframe boundary, so the
// sweep asserts the durable floor never regresses past the last complete
// keyframe+chain.
func CrashSweepConfigs(seed int64) []CrashWorkload {
	var out []CrashWorkload
	for _, kind := range []storage.Kind{storage.KindPMEM, storage.KindSSD} {
		for _, n := range []int{1, 2, 4} {
			for _, chunk := range []int{0, 1024} {
				for _, verify := range []bool{true, false} {
					out = append(out, CrashWorkload{
						Kind:          kind,
						Concurrent:    n,
						ChunkBytes:    chunk,
						VerifyPayload: verify,
						Seed:          seed,
					})
				}
			}
		}
		out = append(out,
			CrashWorkload{Kind: kind, Concurrent: 1, DeltaEvery: 1, DeltaKeyframe: 2, Checkpoints: 7, Seed: seed},
			CrashWorkload{Kind: kind, Concurrent: 1, DeltaEvery: 1, DeltaKeyframe: 3, Tracker: true, VerifyPayload: true, Checkpoints: 8, Seed: seed},
			CrashWorkload{Kind: kind, Concurrent: 2, DeltaEvery: 2, DeltaKeyframe: 2, ChunkBytes: 1024, Checkpoints: 6, Seed: seed},
			// Black-box workloads: every cut additionally asserts the
			// crash-surviving telemetry invariants (see CrashWorkload.BlackBox).
			CrashWorkload{Kind: kind, Concurrent: 1, BlackBox: true, Seed: seed},
			CrashWorkload{Kind: kind, Concurrent: 2, ChunkBytes: 1024, VerifyPayload: true, BlackBox: true, Seed: seed},
			CrashWorkload{Kind: kind, Concurrent: 1, DeltaEvery: 1, DeltaKeyframe: 2, Checkpoints: 6, BlackBox: true, Seed: seed},
		)
	}
	return out
}

// ErrCrashInvariantViolated is returned by callers that surface a failed
// exploration as a single error.
var ErrCrashInvariantViolated = errors.New("core: crash durability invariant violated")
