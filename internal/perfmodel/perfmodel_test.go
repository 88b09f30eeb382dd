package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pccheck/internal/workload"
)

func opt13bParams(n, p, f int) Params {
	m, _ := workload.ByName("OPT-1.3B")
	return Params{
		IterTime:        m.IterTime,
		CheckpointBytes: m.CheckpointBytes,
		StorageBW:       workload.A100GCP.StorageWriteBW,
		PerThreadBW:     workload.A100GCP.PerThreadWriteBW,
		ReadBW:          workload.A100GCP.StorageReadBW,
		N:               n, P: p, Interval: f,
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{},
		{IterTime: time.Second},
		{IterTime: time.Second, CheckpointBytes: 1},
		{IterTime: time.Second, CheckpointBytes: 1, StorageBW: 1}, // N=P=f=0
	}
	for i, p := range bad {
		if _, err := p.Slowdown(); err == nil {
			t.Fatalf("case %d: invalid params accepted", i)
		}
	}
}

func TestTwSingleCheckpointIsMOverTs(t *testing.T) {
	// §3.4: "if N = 1, Tw = m/Ts" (with enough threads to saturate).
	p := opt13bParams(1, 4, 10)
	want := 16_200_000_000 / workload.A100GCP.StorageWriteBW
	got := p.Tw().Seconds()
	if diff := got/want - 1; diff < -0.01 || diff > 0.01 {
		t.Fatalf("Tw = %vs, want %vs", got, want)
	}
}

func TestTwSingleThreadIsSlower(t *testing.T) {
	p1 := opt13bParams(1, 1, 10)
	p4 := opt13bParams(1, 4, 10)
	if p1.Tw() <= p4.Tw() {
		t.Fatalf("1-thread Tw %v should exceed 4-thread Tw %v", p1.Tw(), p4.Tw())
	}
}

func TestTwContentionGrowsWithN(t *testing.T) {
	// With the device saturated, N concurrent checkpoints each see 1/N of
	// the bandwidth, so Tw grows with N while Tw/N stays flat.
	t2, t4 := opt13bParams(2, 4, 10).Tw(), opt13bParams(4, 4, 10).Tw()
	if t4 <= t2 {
		t.Fatalf("Tw should grow with N: N=2 %v, N=4 %v", t2, t4)
	}
	ratio := float64(t4) / float64(t2)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("Tw(4)/Tw(2) = %v, want ≈2 under full contention", ratio)
	}
}

func TestSlowdownRegimes(t *testing.T) {
	// f=1, N=1, p=3 (a 3-thread lane cannot saturate the device alone, so
	// extra concurrent checkpoints add aggregate bandwidth): Tw ≫ t ⇒ large
	// slowdown.
	s1, err := opt13bParams(1, 3, 1).Slowdown()
	if err != nil {
		t.Fatal(err)
	}
	if s1 < 10 {
		t.Fatalf("checkpoint-every-iteration slowdown = %v, want ≫ 1", s1)
	}
	// Same f with N=4: the stall amortizes over N intervals.
	s4, _ := opt13bParams(4, 3, 1).Slowdown()
	if s4 >= s1 {
		t.Fatalf("more concurrency should cut slowdown: N=1 %v, N=4 %v", s1, s4)
	}
	// f=100: hidden.
	s100, _ := opt13bParams(2, 4, 100).Slowdown()
	if s100 != 1 {
		t.Fatalf("f=100 slowdown = %v, want 1", s100)
	}
}

func TestFStarMatchesEquation3(t *testing.T) {
	p := opt13bParams(2, 4, 1)
	f, err := p.FStar(1.05)
	if err != nil {
		t.Fatal(err)
	}
	// Hand evaluation: bw = min(4·0.22, 0.8/2) = 0.4 GB/s ⇒ Tw =
	// 16.2e9/0.4e9 = 40.5s; N·q·t = 2·1.05·0.65 = 1.365 ⇒ f* =
	// ceil(29.67) = 30.
	if f != 30 {
		t.Fatalf("f* = %d, want 30", f)
	}
	// A checkpoint interval of f* must indeed keep slowdown ≤ q…
	p.Interval = f
	s, _ := p.Slowdown()
	if s > 1.05 {
		t.Fatalf("slowdown at f* = %v, exceeds q", s)
	}
	// …and f*−1 must violate it (minimality).
	p.Interval = f - 1
	s2, _ := p.Slowdown()
	if s2 <= 1.05 {
		t.Fatalf("f*−1 also satisfies q (s=%v); f* not minimal", s2)
	}
}

func TestFStarRejectsImpossibleBudget(t *testing.T) {
	if _, err := opt13bParams(1, 4, 1).FStar(1.0); err == nil {
		t.Fatal("q=1 accepted")
	}
}

// Property: f* is monotone — a looser overhead budget never requires MORE
// frequent checkpointing, and more concurrency never increases f*.
func TestQuickFStarMonotonicity(t *testing.T) {
	f := func(nRaw, qRaw uint8) bool {
		n := int(nRaw%6) + 1
		q := 1.01 + float64(qRaw)/100.0
		base := opt13bParams(n, 4, 1)
		f1, err := base.FStar(q)
		if err != nil {
			return false
		}
		f2, err := base.FStar(q + 0.5)
		if err != nil {
			return false
		}
		if f2 > f1 {
			return false
		}
		wider := opt13bParams(n+1, 4, 1)
		f3, err := wider.FStar(q)
		if err != nil {
			return false
		}
		return f3 <= f1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryBoundsOrdering(t *testing.T) {
	p := opt13bParams(2, 4, 10)
	ideal, _ := p.MaxRecovery(Ideal)
	gpm, _ := p.MaxRecovery(GPM)
	cf, _ := p.MaxRecovery(CheckFreq)
	pc, _ := p.MaxRecovery(PCcheck)
	gem, _ := p.MaxRecovery(Gemini)
	if !(ideal < gpm && gpm < cf) {
		t.Fatalf("bound ordering broken: ideal %v, gpm %v, checkfreq %v", ideal, gpm, cf)
	}
	if cf != gem {
		t.Fatalf("CheckFreq and Gemini share the bound; got %v vs %v", cf, gem)
	}
	// PCcheck's bound: l + f·t + min(N·f·t, Tw).
	l := p.LoadTime()
	ft := 10 * p.IterTime
	tw := p.Tw()
	extra := 2 * ft
	if tw < extra {
		extra = tw
	}
	if want := l + ft + extra; pc != want {
		t.Fatalf("PCcheck bound = %v, want %v", pc, want)
	}
}

func TestMeanRecoveryIsBetweenLoadAndMax(t *testing.T) {
	p := opt13bParams(2, 4, 25)
	for _, a := range []Algorithm{Ideal, Traditional, CheckFreq, GPM, Gemini, PCcheck} {
		mean, err := p.MeanRecovery(a)
		if err != nil {
			t.Fatal(err)
		}
		max, _ := p.MaxRecovery(a)
		if mean < p.LoadTime() || mean > max {
			t.Fatalf("%v: mean %v outside [load %v, max %v]", a, mean, p.LoadTime(), max)
		}
	}
}

func TestRecoveryMatchesPaperNumbers(t *testing.T) {
	// §5.2.2: OPT-1.3B, CheckFreq at f=100 recovers in ≈80 s; PCcheck at
	// f=50 recovers in ≈50 s. Allow ±30% — these pin the calibration.
	cf := opt13bParams(1, 4, 100)
	got, _ := cf.MeanRecovery(CheckFreq)
	if got.Seconds() < 56 || got.Seconds() > 104 {
		t.Fatalf("CheckFreq f=100 mean recovery = %v, paper ≈80s", got)
	}
	pc := opt13bParams(2, 4, 50)
	got2, _ := pc.MeanRecovery(PCcheck)
	if got2.Seconds() < 35 || got2.Seconds() > 78 {
		t.Fatalf("PCcheck f=50 mean recovery = %v, paper ≈50s", got2)
	}
}

func TestFootprintTable1(t *testing.T) {
	cf, err := FootprintOf(CheckFreq, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cf.DRAMHigh != 1 || cf.Storage != 2 {
		t.Fatalf("CheckFreq footprint %+v", cf)
	}
	gpm, _ := FootprintOf(GPM, 0)
	if gpm.DRAMHigh != 0 || gpm.Storage != 2 {
		t.Fatalf("GPM footprint %+v", gpm)
	}
	gem, _ := FootprintOf(Gemini, 0)
	if gem.Storage != 0 || gem.NetBuffers != 1 {
		t.Fatalf("Gemini footprint %+v", gem)
	}
	pc, _ := FootprintOf(PCcheck, 3)
	if pc.Storage != 4 || pc.DRAMLow != 1 || pc.DRAMHigh != 2 {
		t.Fatalf("PCcheck footprint %+v", pc)
	}
	if _, err := FootprintOf(PCcheck, 0); err == nil {
		t.Fatal("PCcheck footprint with n=0 accepted")
	}
	if _, err := FootprintOf(Ideal, 0); err == nil {
		t.Fatal("Ideal has no footprint row")
	}
}

func TestMaxConcurrent(t *testing.T) {
	// 1 TB SSD, 16.2 GB checkpoints ⇒ 61 slots ⇒ N ≤ 60.
	if got := MaxConcurrent(1_000_000_000_000, 16_200_000_000); got != 60 {
		t.Fatalf("MaxConcurrent = %d, want 60", got)
	}
	if got := MaxConcurrent(10, 16); got != 0 {
		t.Fatalf("tiny storage should give 0, got %d", got)
	}
	if got := MaxConcurrent(100, 0); got != 0 {
		t.Fatalf("zero checkpoint size should give 0, got %d", got)
	}
}

func TestAlgorithmString(t *testing.T) {
	if PCcheck.String() != "pccheck" || CheckFreq.String() != "checkfreq" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Fatal("unknown algorithm name wrong")
	}
}

func TestGoodputInvertedU(t *testing.T) {
	// André et al. regime: 26 failures / 3.5 h ⇒ MTBF ≈ 485 s.
	mtbf := 485 * time.Second
	attach := 5500 * time.Millisecond
	g := func(f int) float64 {
		p := opt13bParams(2, 4, f)
		v, err := p.GoodputAt(PCcheck, mtbf, attach)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if !(g(25) > g(1)) {
		t.Fatalf("overhead should dominate at f=1: g(1)=%v g(25)=%v", g(1), g(25))
	}
	if !(g(25) > g(2000)) {
		t.Fatalf("rollback should dominate at f=2000: g(25)=%v g(2000)=%v", g(25), g(2000))
	}
}

func TestOptimalIntervalFindsTheKnee(t *testing.T) {
	mtbf := 485 * time.Second
	attach := 5500 * time.Millisecond
	p := opt13bParams(2, 4, 1)
	f, goodput, err := p.OptimalInterval(PCcheck, mtbf, attach, 500)
	if err != nil {
		t.Fatal(err)
	}
	if goodput <= 0 {
		t.Fatalf("optimal goodput %v", goodput)
	}
	// The paper's optimum for spot clusters sits at small intervals
	// (10–50 iterations for OPT-1.3B-class workloads).
	if f < 5 || f > 120 {
		t.Fatalf("optimal interval %d outside the expected regime", f)
	}
	// Optimality: neighbours do not beat it.
	for _, alt := range []int{f / 2, f * 2} {
		if alt < 1 {
			continue
		}
		q := opt13bParams(2, 4, alt)
		g, err := q.GoodputAt(PCcheck, mtbf, attach)
		if err != nil {
			t.Fatal(err)
		}
		if g > goodput {
			t.Fatalf("f=%d beats the reported optimum f=%d", alt, f)
		}
	}
}

func TestGoodputDegenerateRegimes(t *testing.T) {
	p := opt13bParams(2, 4, 10)
	if _, err := p.GoodputAt(PCcheck, 0, 0); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	// MTBF shorter than recovery ⇒ zero goodput, not negative.
	g, err := p.GoodputAt(PCcheck, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g != 0 {
		t.Fatalf("goodput %v, want 0 when recovery swamps MTBF", g)
	}
	if _, _, err := p.OptimalInterval(PCcheck, time.Hour, 0, 0); err == nil {
		t.Fatal("maxF=0 accepted")
	}
}

// TestIntervalModel checks the model's three functions by hand at the
// goodput scenario's converged estimates (t = 2.22 ms, Tw = 2.61 ms,
// S = 4.2 ms, N = 2, q = 1.25), where f* = max(⌈(Tw/N + S)/(q·t)⌉,
// ⌈S/((q−1)·t)⌉) = max(2, 8) = 8.
func TestIntervalModel(t *testing.T) {
	m := IntervalModel{T: 0.00222, Tw: 0.00261, S: 0.0042, N: 2}
	for _, c := range []struct {
		m    IntervalModel
		f    int
		want float64
	}{
		{m, 7, (7*0.00222 + 0.0042) / (7 * 0.00222)},
		{m, 8, (8*0.00222 + 0.0042) / (8 * 0.00222)},
		{IntervalModel{T: 0.001, Tw: 0.01, S: 0.002, N: 2}, 2, (0.005 + 0.002) / 0.002}, // Tw/N > f·t
	} {
		if got := c.m.Slowdown(c.f); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%+v: s(%d) = %v, want %v", c.m, c.f, got, c.want)
		}
	}
	if f := m.FStar(1.25); f != 8 || !m.Eligible(8, 1.25) || m.Eligible(7, 1.25) {
		t.Errorf("f* = %d (s(8) = %v, s(7) = %v), want 8", f, m.Slowdown(8), m.Slowdown(7))
	}
	// Eq. (4): f·t plus the N·f·t in flight, capped by Tw.
	if got, want := m.LostWork(8), 8*0.00222+0.00261; math.Abs(got-want) > 1e-15 {
		t.Errorf("lost work at f=8 = %v, want %v", got, want)
	}
	if got, want := (IntervalModel{T: 1, Tw: 100, N: 2}).LostWork(3), 3.0+6; got != want {
		t.Errorf("lost work with Tw > N·f·t = %v, want %v", got, want)
	}
	// s(f) lands on q exactly at Tw/(N·q·t) = 8: the slack keeps f* = 8.
	if f := (IntervalModel{T: 0.001, Tw: 0.02, N: 2}).FStar(1.25); f != 8 {
		t.Errorf("f* at an exact boundary = %d, want 8", f)
	}
	// No interval below 2^30 keeps a 10 s stall on 1 s iterations within
	// q = 1 + 1e-12: s(f) − 1 = 10/f.
	if f := (IntervalModel{T: 1, Tw: 1, S: 10, N: 1}).FStar(1 + 1e-12); f != MaxFStar {
		t.Errorf("unreachable budget: f* = %d, want the %d saturation", f, MaxFStar)
	}
}

// FuzzIntervalModel: for t, Tw > 0, N ∈ [1, 16], S ≥ 0 and q ∈ (1, 4],
// FStar(q) is eligible, f* − 1 is not, and with S = 0 f* is Eq. (3)'s
// ⌈Tw/(N·q·t)⌉ up to the eligibility slack. Times are kept within
// [1e-200, 1e200] s so no intermediate leaves the normal float range, and
// inputs whose f* saturates at MaxFStar are skipped.
func FuzzIntervalModel(f *testing.F) {
	f.Add(0.00222, 0.00261, uint8(1), 0.0042, 1.25)
	f.Add(0.65, 40.5, uint8(1), 0.0, 1.05)
	f.Add(0.001, 0.02, uint8(1), 0.0, 1.25)
	f.Add(0.002, 0.0025, uint8(1), 0.0042, 1.25)
	f.Add(1e-6, 3600.0, uint8(15), 0.0, 1.0001)
	f.Fuzz(func(t *testing.T, it, tw float64, n uint8, stall, q float64) {
		in := func(v float64) bool { return v >= 1e-200 && v <= 1e200 }
		if !in(it) || !in(tw) || !(stall == 0 || in(stall)) || !(q > 1 && q <= 4) {
			t.Skip()
		}
		m := IntervalModel{T: it, Tw: tw, S: stall, N: int(n%16) + 1}
		fs := m.FStar(q)
		if fs == MaxFStar && !m.Eligible(fs, q) {
			t.Skip()
		}
		if fs < 1 || !m.Eligible(fs, q) {
			t.Fatalf("%+v q=%v: f* = %d is not eligible (s = %v)", m, q, fs, m.Slowdown(fs))
		}
		if fs > 1 && m.Eligible(fs-1, q) {
			t.Fatalf("%+v q=%v: f* − 1 = %d is eligible too (s = %v)", m, q, fs-1, m.Slowdown(fs-1))
		}
		if stall == 0 {
			x := tw / float64(m.N) / it / q
			if float64(fs-1) >= x*(1+1e-12) || float64(fs) < x*(1-2e-9) {
				t.Fatalf("%+v q=%v: f* = %d, Eq. (3) ⌈%v⌉", m, q, fs, x)
			}
		}
	})
}
