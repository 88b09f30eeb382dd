package tuner

import (
	"testing"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/perfmodel"
	"pccheck/internal/storage"
	"pccheck/internal/workload"
)

func TestInputValidation(t *testing.T) {
	dev := storage.NewRAM(1 << 20)
	bad := []Input{
		{CheckpointBytes: 100, MaxOverhead: 1.1},
		{IterTime: time.Millisecond, MaxOverhead: 1.1},
		{IterTime: time.Millisecond, CheckpointBytes: 100, MaxOverhead: 1.0},
	}
	for i, in := range bad {
		if _, err := Profile(dev, in); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestProfileUnthrottledExploitsConcurrency(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock profiling is unreliable under the race detector")
	}
	// On an unthrottled RAM device, whose writers on disjoint ranges copy in
	// parallel, Tw barely grows with N while there are idle CPUs, so the §3.4
	// objective min Tw/N is served by more concurrency: the tuner should
	// pick N > 1. One writer per save and a payload large enough that the
	// copy, not goroutine start-up, is what Tw measures.
	const m = 4 << 20
	dev := storage.NewRAM(core.DeviceBytes(8, m))
	res, err := Profile(dev, Input{
		IterTime:        time.Millisecond,
		CheckpointBytes: m,
		MaxOverhead:     1.10,
		MaxN:            4,
		Writers:         1,
		Rounds:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N < 2 {
		t.Fatalf("N = %d; contention-free device should reward concurrency", res.N)
	}
	if res.Interval < 1 {
		t.Fatalf("interval = %d", res.Interval)
	}
	if len(res.Profile) != 4 {
		t.Fatalf("profiled %d candidates, want 4", len(res.Profile))
	}
}

func TestProfileThrottledFindsParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("bandwidth profiling is wall-clock heavy")
	}
	// Device at 40 MB/s aggregate; single writer limited to 12 MB/s.
	// One 1 MB checkpoint with 1 thread ⇒ ~83 ms, with 3+ threads ⇒ ~25 ms.
	// The tuner should pick p ≥ 2 and N such that Tw/N improves.
	const m = 1 << 20
	dev, err := storage.OpenSSD(t.TempDir()+"/dev", core.DeviceBytes(6, m),
		storage.WithSSDThrottle(storage.NewThrottle(40<<20)))
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	res, err := Profile(dev, Input{
		IterTime:        5 * time.Millisecond,
		CheckpointBytes: m,
		MaxOverhead:     1.05,
		MaxN:            3,
		Rounds:          2,
		PerWriterBW:     12 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writers < 2 {
		t.Fatalf("writers = %d; per-thread limit should force parallel writers", res.Writers)
	}
	if res.Tw <= 0 || res.TwOverN <= 0 {
		t.Fatalf("degenerate measurements: %+v", res)
	}
}

func TestProfileRespectsStorageBudget(t *testing.T) {
	const m = 32 << 10
	dev := storage.NewRAM(core.DeviceBytes(8, m))
	res, err := Profile(dev, Input{
		IterTime:        time.Millisecond,
		CheckpointBytes: m,
		MaxOverhead:     1.2,
		StorageBudget:   3 * m, // S/m − 1 = 2
		Rounds:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range res.Profile {
		if n > 2 {
			t.Fatalf("profiled N=%d beyond storage budget cap 2", n)
		}
	}
}

func TestProfileTinyDevice(t *testing.T) {
	dev := storage.NewRAM(128)
	if _, err := Profile(dev, Input{
		IterTime:        time.Millisecond,
		CheckpointBytes: 1 << 20,
		MaxOverhead:     1.1,
	}); err == nil {
		t.Fatal("oversised checkpoint accepted")
	}
}

func TestAnalyzeMatchesEquation3(t *testing.T) {
	m, _ := workload.ByName("OPT-1.3B")
	res, err := Analyze(Input{
		IterTime:        m.IterTime,
		CheckpointBytes: m.CheckpointBytes,
		MaxOverhead:     1.05,
		MaxN:            4,
	}, workload.A100GCP.StorageWriteBW, workload.A100GCP.PerThreadWriteBW)
	if err != nil {
		t.Fatal(err)
	}
	// 0.8/0.22 = 3.6 ⇒ p = 4.
	if res.Writers != 4 {
		t.Fatalf("writers = %d, want 4", res.Writers)
	}
	// With p=4 one checkpoint nearly saturates the device, so Tw/N is flat
	// and the tie-break keeps a small N (1 or 2).
	if res.N > 2 {
		t.Fatalf("N = %d, want ≤ 2 when one lane saturates the device", res.N)
	}
	// The interval must satisfy Eq. (2): slowdown at f* ≤ q.
	// Tw(N) ≈ N·m/Ts, so f* ≈ m/(Ts·q·t) ≈ 16.2/(0.8·1.05·0.65) ≈ 30.
	if res.Interval < 25 || res.Interval > 40 {
		t.Fatalf("f* = %d, want ≈30", res.Interval)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(Input{IterTime: time.Second, CheckpointBytes: 1, MaxOverhead: 1.1}, 0, 0); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := Analyze(Input{IterTime: time.Second, CheckpointBytes: 100, MaxOverhead: 1.1, StorageBudget: 50}, 1e9, 0); err == nil {
		t.Fatal("storage below one checkpoint accepted")
	}
}

func TestAnalyzeRespectsFixedWriters(t *testing.T) {
	res, err := Analyze(Input{
		IterTime:        time.Second,
		CheckpointBytes: 1 << 30,
		MaxOverhead:     1.1,
		Writers:         2,
		MaxN:            3,
	}, 1e9, 0.3e9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Writers != 2 {
		t.Fatalf("writers = %d, want fixed 2", res.Writers)
	}
}

// Cross-validation between the two halves of the reproduction: the REAL
// engine's measured per-checkpoint write time on a bandwidth-throttled
// device must match the analytic model's Tw (§3.4) — the same formula the
// simulator uses — within tolerance, for several (N, p) configurations.
func TestRealTwMatchesAnalyticModel(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock bandwidth measurement")
	}
	const (
		m           = 1 << 20 // 1 MB checkpoints
		deviceBW    = 40 << 20
		perThreadBW = 11 << 20 // ~3.6 threads saturate, like the calibrated platforms
	)
	for _, tc := range []struct{ n, p int }{{1, 1}, {1, 4}, {2, 4}} {
		dev, err := storage.OpenSSD(t.TempDir()+"/dev", core.DeviceBytes(tc.n, m),
			storage.WithSSDThrottle(storage.NewThrottle(deviceBW)))
		if err != nil {
			t.Fatal(err)
		}
		measured, err := measureTw(dev, Input{PerWriterBW: perThreadBW}, m, tc.n, tc.p, m/4, 4)
		dev.Close()
		if err != nil {
			t.Fatal(err)
		}
		params := perfmodel.Params{
			IterTime:        time.Millisecond,
			CheckpointBytes: m,
			StorageBW:       deviceBW,
			PerThreadBW:     perThreadBW,
			N:               tc.n, P: tc.p, Interval: 1,
		}
		want := params.Tw()
		ratio := measured.Seconds() / want.Seconds()
		if ratio < 0.6 || ratio > 1.8 {
			t.Fatalf("N=%d p=%d: real Tw %v vs analytic %v (ratio %.2f)", tc.n, tc.p, measured, want, ratio)
		}
	}
}

// checkSmallerNOnTies asserts the §3.4 N* rule on a Result: every smaller
// N has a strictly worse Tw/N, and no larger N beats the chosen one by 5%
// or more — the smaller-N-on-ties preference, traded for less rollback.
func checkSmallerNOnTies(t *testing.T, res Result, maxN int) {
	t.Helper()
	if len(res.Profile) != maxN {
		t.Fatalf("profile has %d candidates, want %d", len(res.Profile), maxN)
	}
	chosen := res.Profile[res.N] / time.Duration(res.N)
	if res.TwOverN != chosen {
		t.Errorf("TwOverN %v, want the chosen N=%d's %v", res.TwOverN, res.N, chosen)
	}
	for n, tw := range res.Profile {
		c := tw / time.Duration(n)
		if n < res.N && c <= chosen {
			t.Errorf("N=%d has Tw/N %v ≤ chosen N=%d's %v, yet lost", n, c, res.N, chosen)
		}
		if n > res.N && float64(c) < 0.95*float64(chosen) {
			t.Errorf("N=%d beats chosen N=%d by ≥5%% (%v vs %v), yet lost", n, res.N, c, chosen)
		}
	}
}

func TestAnalyzePrefersSmallerNOnTies(t *testing.T) {
	m, _ := workload.ByName("OPT-1.3B")
	res, err := Analyze(Input{
		IterTime:        m.IterTime,
		CheckpointBytes: m.CheckpointBytes,
		MaxOverhead:     1.05,
		MaxN:            4,
	}, workload.A100GCP.StorageWriteBW, workload.A100GCP.PerThreadWriteBW)
	if err != nil {
		t.Fatal(err)
	}
	checkSmallerNOnTies(t, res, 4)
}

func TestProfilePrefersSmallerNOnTies(t *testing.T) {
	const m = 32 << 10
	dev := storage.NewRAM(core.DeviceBytes(2, m))
	res, err := Profile(dev, Input{
		IterTime:        time.Millisecond,
		CheckpointBytes: m,
		MaxOverhead:     1.2,
		MaxN:            2,
		Writers:         1,
		Rounds:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSmallerNOnTies(t, res, 2)
}
