// Package tuner implements PCcheck's configuration tool (§3.4): given user
// constraints (DRAM budget M, storage budget S, acceptable slowdown q) and
// workload parameters (checkpoint size m, iteration time t), it empirically
// measures the per-checkpoint write time Tw for candidate numbers of
// concurrent checkpoints N, picks N* minimising Tw/N, and derives the
// minimum checkpoint interval f* = ceil(Tw / (N*·q·t)) — Eq. (3), from
// perfmodel's interval model with a free snapshot (S = 0).
//
// Profiling is real: each candidate N is exercised by running N concurrent
// checkpoints of m bytes against the actual device, so device- and
// per-thread bandwidth limits show up exactly as they will in production.
package tuner

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/perfmodel"
	"pccheck/internal/storage"
)

// Input bundles the workload parameters and user constraints of Table 2.
type Input struct {
	// IterTime is t, the measured no-checkpoint iteration time.
	IterTime time.Duration
	// CheckpointBytes is m.
	CheckpointBytes int64
	// DRAMBudget is M, the staging memory the user grants (0 ⇒ 2m).
	DRAMBudget int64
	// StorageBudget is S, the persistent capacity granted (0 ⇒ unlimited
	// within the device).
	StorageBudget int64
	// MaxOverhead is q, the acceptable slowdown (> 1).
	MaxOverhead float64
	// MaxN caps the N search (0 ⇒ min(S/m − 1, 8); §5.2.3 observes 2–4
	// suffice, so the default keeps profiling cheap).
	MaxN int
	// Writers fixes p; 0 searches 1–4 (§3.4: "ideally 2 to 4").
	Writers int
	// ChunkBytes fixes b; 0 picks m/4 (§3.4 sizes b to saturate GPU–CPU
	// bandwidth; for the emulated path a quarter-checkpoint chunk keeps the
	// pipeline busy without exhausting M).
	ChunkBytes int
	// Rounds is how many checkpoints each profiled configuration writes
	// (0 ⇒ 3).
	Rounds int
	// PerWriterBW forwards the per-thread bandwidth model to the engine
	// (0 = unpaced; tests use it to make the p-search meaningful).
	PerWriterBW float64
}

func (in Input) validate() error {
	if in.IterTime <= 0 {
		return fmt.Errorf("tuner: iteration time must be positive, got %v", in.IterTime)
	}
	if in.CheckpointBytes <= 0 {
		return fmt.Errorf("tuner: checkpoint size must be positive, got %d", in.CheckpointBytes)
	}
	if in.MaxOverhead <= 1 {
		return fmt.Errorf("tuner: overhead budget q must exceed 1, got %v", in.MaxOverhead)
	}
	return nil
}

// Result is the chosen configuration.
type Result struct {
	// N is the number of concurrent checkpoints.
	N int
	// Writers is p.
	Writers int
	// ChunkBytes is b.
	ChunkBytes int
	// Interval is f*, the minimum checkpoint interval in iterations that
	// keeps slowdown within q when the snapshot is free (S = 0).
	Interval int
	// Tw is the measured worst-case checkpoint write time at N.
	Tw time.Duration
	// TwOverN is the quantity §3.4 minimises.
	TwOverN time.Duration
	// Profile records Tw for every candidate N, for reporting.
	Profile map[int]time.Duration
}

// Profile measures candidate configurations on dev and returns the chosen
// one. dev must be large enough for the largest candidate N
// (core.DeviceBytes(maxN, m)); candidates that do not fit are skipped.
func Profile(dev storage.Device, in Input) (Result, error) {
	if err := in.validate(); err != nil {
		return Result{}, err
	}
	m := in.CheckpointBytes
	maxN := in.maxN()
	for maxN > 0 && dev.Size() < core.DeviceBytes(maxN, m) {
		maxN--
	}
	if maxN < 1 {
		return Result{}, fmt.Errorf("tuner: device/storage budget too small for even one checkpoint of %d bytes", m)
	}
	rounds := in.Rounds
	if rounds <= 0 {
		rounds = 3
	}
	chunk := in.ChunkBytes
	if chunk <= 0 {
		chunk = int(m / 4)
		if chunk < 1 {
			chunk = int(m)
		}
	}

	// Pick p first at N=1 (per-thread limits bind hardest there), then
	// search N with p fixed.
	writers := in.Writers
	if writers <= 0 {
		best := time.Duration(math.MaxInt64)
		for p := 1; p <= 4; p++ {
			tw, err := measureTw(dev, in, m, 1, p, chunk, rounds)
			if err != nil {
				return Result{}, err
			}
			// Require a meaningful (>5%) gain to add threads.
			if float64(tw) < 0.95*float64(best) {
				best = tw
				writers = p
			}
		}
	}

	return choose(in, maxN, writers, chunk, func(n int) (time.Duration, error) {
		return measureTw(dev, in, m, n, writers, chunk, rounds)
	})
}

// maxN is the top of the N search: MaxN (default 8), capped by the
// storage budget.
func (in Input) maxN() int {
	maxN := in.MaxN
	if maxN <= 0 {
		maxN = 8
	}
	if in.StorageBudget > 0 {
		maxN = min(maxN, perfmodel.MaxConcurrent(in.StorageBudget, in.CheckpointBytes))
	}
	return maxN
}

// choose is §3.4's search over N = 1..maxN, given tw(n), the write time of
// one checkpoint with n in flight: N* minimises Tw/N, preferring the
// smaller N within 5 % (fewer concurrent checkpoints means less rollback on
// failure, §5.2.3), and f* is the interval model's at N*. The tuner has no
// snapshot stall to price, so f* assumes a free snapshot (S = 0).
func choose(in Input, maxN, writers, chunk int, tw func(n int) (time.Duration, error)) (Result, error) {
	res := Result{Writers: writers, ChunkBytes: chunk, Profile: make(map[int]time.Duration),
		TwOverN: time.Duration(math.MaxInt64)}
	for n := 1; n <= maxN; n++ {
		d, err := tw(n)
		if err != nil {
			return Result{}, err
		}
		res.Profile[n] = d
		if perN := d / time.Duration(n); float64(perN) < 0.95*float64(res.TwOverN) {
			res.N, res.Tw, res.TwOverN = n, d, perN
		}
	}
	model := perfmodel.IntervalModel{T: in.IterTime.Seconds(), Tw: res.Tw.Seconds(), N: res.N}
	res.Interval = model.FStar(in.MaxOverhead)
	return res, nil
}

// measureTw formats dev for (n, p) and runs n concurrent checkpoint streams,
// returning the mean per-checkpoint write time under full contention — the
// worst-case Tw of §3.4.
func measureTw(dev storage.Device, in Input, m int64, n, p, chunk, rounds int) (time.Duration, error) {
	dram := in.DRAMBudget
	if dram <= 0 {
		dram = 2 * m
	}
	eng, err := core.New(dev, core.Config{
		Concurrent:  n,
		SlotBytes:   m,
		Writers:     p,
		ChunkBytes:  chunk,
		DRAMBudget:  dram,
		PerWriterBW: in.PerWriterBW,
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	payload := make([]byte, m)

	var mu sync.Mutex
	var total time.Duration
	var count int
	var firstErr error
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				start := time.Now()
				_, err := eng.Checkpoint(context.Background(), core.BytesSource(payload))
				d := time.Since(start)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				total += d
				count++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if count == 0 {
		return 0, fmt.Errorf("tuner: no measurements collected")
	}
	return total / time.Duration(count), nil
}

// Analyze is the model-only fallback for paper-scale workloads where real
// profiling is impractical: it evaluates the same search over the analytic
// model (perfmodel) instead of the device.
func Analyze(in Input, storageBW, perThreadBW float64) (Result, error) {
	if err := in.validate(); err != nil {
		return Result{}, err
	}
	if storageBW <= 0 {
		return Result{}, fmt.Errorf("tuner: storage bandwidth must be positive")
	}
	maxN := in.maxN()
	if maxN < 1 {
		return Result{}, fmt.Errorf("tuner: storage budget below one checkpoint")
	}
	writers := in.Writers
	if writers <= 0 {
		writers = 1
		if perThreadBW > 0 {
			writers = min(4, int(math.Ceil(storageBW/perThreadBW)))
		}
	}
	return choose(in, maxN, writers, in.ChunkBytes, func(n int) (time.Duration, error) {
		return perfmodel.Params{
			IterTime:        in.IterTime,
			CheckpointBytes: in.CheckpointBytes,
			StorageBW:       storageBW,
			PerThreadBW:     perThreadBW,
			N:               n,
			P:               writers,
			Interval:        1,
		}.Tw(), nil
	})
}
