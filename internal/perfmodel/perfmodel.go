// Package perfmodel implements the paper's analytic performance model: the
// interval model of §3.4 (slowdown, the minimum checkpoint interval f* of
// Eq. 3, the lost work of Eq. 4), the recovery-time bounds of §4.2, the
// MTBF goodput search, and the memory/storage footprint comparison of
// Table 1.
//
// The simulator (internal/sim) and the analytic model are developed
// independently and cross-validated in tests: where the model makes a
// prediction (training stalls iff Tw > N·f·t; slowdown ≈ Tw/(N·f·t)), the
// simulator must agree.
package perfmodel

import (
	"fmt"
	"time"
)

// Algorithm identifies a checkpointing mechanism under study.
type Algorithm int

const (
	// Ideal checkpoints with zero overhead (upper bound).
	Ideal Algorithm = iota
	// Traditional stalls training through copy and persist (Figure 3).
	Traditional
	// CheckFreq overlaps the persist with training but admits only one
	// in-flight checkpoint (Figure 4).
	CheckFreq
	// GPM stalls training while persisting directly from the GPU (no DRAM
	// staging).
	GPM
	// Gemini checkpoints to a remote machine's DRAM over the network, one
	// in flight.
	Gemini
	// PCcheck runs up to N concurrent checkpoints with p writers each.
	PCcheck
)

var algoNames = map[Algorithm]string{
	Ideal:       "ideal",
	Traditional: "traditional",
	CheckFreq:   "checkfreq",
	GPM:         "gpm",
	Gemini:      "gemini",
	PCcheck:     "pccheck",
}

func (a Algorithm) String() string {
	if s, ok := algoNames[a]; ok {
		return s
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Params carries the model's inputs using the paper's symbols (Table 2).
type Params struct {
	// IterTime is t, the no-checkpoint iteration time.
	IterTime time.Duration
	// CheckpointBytes is m.
	CheckpointBytes int64
	// StorageBW is T_S, the device's aggregate write bandwidth (bytes/s).
	StorageBW float64
	// PerThreadBW is the bandwidth one writer thread sustains.
	PerThreadBW float64
	// ReadBW is the recovery-path read bandwidth.
	ReadBW float64
	// N is the number of concurrent checkpoints (1 for the baselines).
	N int
	// P is the number of parallel writer threads per checkpoint.
	P int
	// Interval is f, the checkpoint interval in iterations.
	Interval int
}

func (p Params) validate() error {
	if p.IterTime <= 0 {
		return fmt.Errorf("perfmodel: non-positive iteration time %v", p.IterTime)
	}
	if p.CheckpointBytes <= 0 {
		return fmt.Errorf("perfmodel: non-positive checkpoint size %d", p.CheckpointBytes)
	}
	if p.StorageBW <= 0 {
		return fmt.Errorf("perfmodel: non-positive storage bandwidth %v", p.StorageBW)
	}
	if p.N < 1 || p.P < 1 || p.Interval < 1 {
		return fmt.Errorf("perfmodel: N=%d, P=%d, f=%d must all be ≥ 1", p.N, p.P, p.Interval)
	}
	return nil
}

// Tw is the worst-case time to write one checkpoint when all N checkpoints
// are in flight and contending (§3.4): the device bandwidth divides N ways,
// but no checkpoint can exceed its own p-thread lane.
func (p Params) Tw() time.Duration {
	bw := p.StorageBW / float64(p.N)
	if p.PerThreadBW > 0 {
		bw = min(bw, float64(p.P)*p.PerThreadBW)
	}
	return time.Duration(float64(p.CheckpointBytes) / bw * float64(time.Second))
}

// Model is p's interval model: the contended Tw of N in-flight checkpoints
// and a free snapshot (S = 0), as Eq. (3) assumes.
func (p Params) Model() IntervalModel {
	return IntervalModel{T: p.IterTime.Seconds(), Tw: p.Tw().Seconds(), N: p.N}
}

// Slowdown is the model's s(f) at p.Interval; 1.0 means checkpointing is
// fully hidden.
func (p Params) Slowdown() (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	return p.Model().Slowdown(p.Interval), nil
}

// FStar is Eq. (3): the model's minimum interval keeping the slowdown
// within q, f* = ceil(Tw / (N·q·t)). q must exceed 1; at q = 1
// checkpointing must be entirely free, which no finite interval guarantees
// when Tw > 0, so FStar returns an error.
func (p Params) FStar(q float64) (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if q <= 1 {
		return 0, fmt.Errorf("perfmodel: overhead budget q must be > 1, got %v", q)
	}
	return p.Model().FStar(q), nil
}

// IntervalModel is §3.4's model of the checkpoint interval f, in seconds:
// the iteration time T, the write time Tw of one checkpoint with N in
// flight, and the synchronous snapshot stall S that the N overlapping
// writes cannot hide. Every site that prices f (Params, the tuner,
// pccheck-plan, AdaptiveLoop and its retune decisions) goes through it.
type IntervalModel struct {
	T, Tw, S float64
	N        int
}

// MaxFStar is where FStar saturates when no smaller interval is eligible.
const MaxFStar = 1 << 30

// eligibleSlack absorbs float rounding when s(f) lands on q exactly.
const eligibleSlack = 1e-9

// Slowdown is s(f) = (max(Tw/N, f·t) + S)/(f·t), the asymptotic runtime
// inflation over no checkpointing at interval f. It never rises with f,
// also in floating point.
func (m IntervalModel) Slowdown(f int) float64 {
	ft := float64(f) * m.T
	return max(m.Tw/float64(m.N)/ft, 1) + m.S/ft
}

// Eligible reports whether interval f keeps the slowdown within the budget
// q. It is the one budget test: FStar picks by it and a retune's rejected
// intervals are flagged by it.
func (m IntervalModel) Eligible(f int, q float64) bool {
	return m.Slowdown(f) <= q+eligibleSlack
}

// FStar is the smallest f ≥ 1 that Eligible accepts: Eq. (3),
// ceil(Tw/(N·q·t)), when S = 0, and max(ceil((Tw/N + S)/(q·t)),
// ceil(S/((q−1)·t))) otherwise. Since s(f) never rises with f, it doubles f
// until f is eligible and bisects the last step, saturating at MaxFStar.
func (m IntervalModel) FStar(q float64) int {
	lo, hi := 0, 1 // lo is ineligible (0: none yet), hi the candidate
	for !m.Eligible(hi, q) {
		if hi == MaxFStar {
			return hi
		}
		lo, hi = hi, 2*hi
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; m.Eligible(mid, q) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// LostWork is Eq. (4)'s bound on the training lost to a failure at
// interval f: f·t + min(N·f·t, Tw), the iterations since the newest
// checkpoint plus the ones still being persisted.
func (m IntervalModel) LostWork(f int) float64 {
	ft := float64(f) * m.T
	return ft + min(float64(m.N)*ft, m.Tw)
}

// LoadTime is l, the time to read one checkpoint back during recovery.
func (p Params) LoadTime() time.Duration {
	bw := p.ReadBW
	if bw <= 0 {
		bw = p.StorageBW
	}
	return time.Duration(float64(p.CheckpointBytes) / bw * float64(time.Second))
}

// MaxRecovery bounds the recovery time (load + lost work) per §4.2:
//
//	PCcheck:             l + f·t + t·min(N·f, Tw/t)   (Eq. 4)
//	CheckFreq, Gemini:   l + 2·f·t
//	GPM, Traditional:    l + f·t
//	Ideal:               l
func (p Params) MaxRecovery(algo Algorithm) (time.Duration, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	l := p.LoadTime()
	ft := time.Duration(p.Interval) * p.IterTime
	switch algo {
	case Ideal:
		return l, nil
	case Traditional, GPM:
		return l + ft, nil
	case CheckFreq, Gemini:
		return l + 2*ft, nil
	case PCcheck:
		return l + ft + min(time.Duration(p.N)*ft, p.Tw()), nil
	default:
		return 0, fmt.Errorf("perfmodel: unknown algorithm %v", algo)
	}
}

// MeanRecovery is the expected recovery time assuming the failure instant is
// uniform within the checkpoint cycle: load time plus half the maximum lost
// work. The paper's goodput replay (§5.2.3) uses this average.
func (p Params) MeanRecovery(algo Algorithm) (time.Duration, error) {
	max, err := p.MaxRecovery(algo)
	if err != nil {
		return 0, err
	}
	l := p.LoadTime()
	return l + (max-l)/2, nil
}

// Footprint is one row of Table 1, in units of the checkpoint size m.
type Footprint struct {
	GPUMem     float64 // device memory beyond training state
	DRAMLow    float64 // minimum staging DRAM
	DRAMHigh   float64 // staging DRAM the system can exploit
	Storage    float64 // persistent storage
	NetBuffers float64 // remote-side DRAM (Gemini)
}

// FootprintOf reproduces Table 1. n is the number of concurrent checkpoints
// (only meaningful for PCcheck).
func FootprintOf(algo Algorithm, n int) (Footprint, error) {
	switch algo {
	case CheckFreq:
		return Footprint{GPUMem: 1, DRAMLow: 1, DRAMHigh: 1, Storage: 2}, nil
	case GPM:
		return Footprint{GPUMem: 1, DRAMLow: 0, DRAMHigh: 0, Storage: 2}, nil
	case Gemini:
		// "m + buffer" on the GPU (32 MB ≈ 0 in units of m), m of remote DRAM.
		return Footprint{GPUMem: 1, DRAMLow: 1, DRAMHigh: 1, Storage: 0, NetBuffers: 1}, nil
	case PCcheck:
		if n < 1 {
			return Footprint{}, fmt.Errorf("perfmodel: PCcheck needs n ≥ 1, got %d", n)
		}
		return Footprint{GPUMem: 1, DRAMLow: 1, DRAMHigh: 2, Storage: float64(n + 1)}, nil
	case Traditional:
		return Footprint{GPUMem: 1, DRAMLow: 1, DRAMHigh: 1, Storage: 2}, nil
	default:
		return Footprint{}, fmt.Errorf("perfmodel: no footprint for %v", algo)
	}
}

// MaxConcurrent is the storage-budget cap on N: N ≤ S/m − 1, keeping one
// slot for the protected latest checkpoint (§3.2).
func MaxConcurrent(storageBytes, checkpointBytes int64) int {
	if checkpointBytes <= 0 {
		return 0
	}
	return max(0, int(storageBytes/checkpointBytes)-1)
}

// GoodputAt estimates training goodput (useful iterations per second) for
// PCcheck at checkpoint interval f under a failure regime with the given
// mean time between failures: the failure-free throughput 1/(t·slowdown)
// discounted by the fraction of wall time spent recovering,
// (mean recovery + attach)/mtbf per failure cycle — the analytic form of
// the §5.2.3 trace replay.
func (p Params) GoodputAt(algo Algorithm, mtbf, attach time.Duration) (float64, error) {
	if mtbf <= 0 {
		return 0, fmt.Errorf("perfmodel: non-positive MTBF %v", mtbf)
	}
	s, err := p.Slowdown()
	if err != nil {
		return 0, err
	}
	rec, err := p.MeanRecovery(algo)
	if err != nil {
		return 0, err
	}
	thr := 1 / (p.IterTime.Seconds() * s)
	lost := (rec + attach).Seconds() / mtbf.Seconds()
	if lost >= 1 {
		return 0, nil
	}
	return thr * (1 - lost), nil
}

// OptimalInterval searches checkpoint intervals 1..maxF for the one
// maximising PCcheck's analytic goodput — the inverted-U of Figure 2:
// frequent checkpoints waste throughput, infrequent ones waste recovery.
func (p Params) OptimalInterval(algo Algorithm, mtbf, attach time.Duration, maxF int) (bestF int, bestGoodput float64, err error) {
	if maxF < 1 {
		return 0, 0, fmt.Errorf("perfmodel: maxF must be ≥ 1, got %d", maxF)
	}
	for f := 1; f <= maxF; f++ {
		q := p
		q.Interval = f
		g, err := q.GoodputAt(algo, mtbf, attach)
		if err != nil {
			return 0, 0, err
		}
		if g > bestGoodput {
			bestGoodput = g
			bestF = f
		}
	}
	if bestF == 0 {
		return 0, 0, fmt.Errorf("perfmodel: no interval yields positive goodput (mtbf %v too short)", mtbf)
	}
	return bestF, bestGoodput, nil
}
