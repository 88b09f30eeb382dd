package pccheck

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/perfmodel"
	"pccheck/internal/tuner"
)

func TestAdaptiveLoopValidation(t *testing.T) {
	ck, _, err := CreateVolatile(Config{MaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if _, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.05}, nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.0}, func() []byte { return nil }); err == nil {
		t.Fatal("q=1 accepted")
	}
	if _, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.1, MinInterval: 10, MaxInterval: 5},
		func() []byte { return nil }); err == nil {
		t.Fatal("inverted clamp accepted")
	}
}

func TestAdaptiveLoopDefaults(t *testing.T) {
	ck, _, err := CreateVolatile(Config{MaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	loop, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.05}, func() []byte { return make([]byte, 64) })
	if err != nil {
		t.Fatal(err)
	}
	if loop.Interval() != 10 {
		t.Fatalf("initial interval = %d, want default 10", loop.Interval())
	}
}

// The controller must converge near Eq. (3)'s f* for a measurable workload:
// iterations of ~1 ms against saves throttled to ~25 ms each.
func TestAdaptiveLoopConvergesToFStar(t *testing.T) {
	const payloadBytes = 50 << 10 // 50 KB
	ck, _, err := CreateVolatile(Config{
		MaxBytes:    payloadBytes,
		Concurrent:  2,
		Writers:     1,
		PerWriterBW: 2 << 20, // 2 MB/s ⇒ ~25 ms per save
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()

	loop, err := NewAdaptiveLoop(ck, AdaptiveConfig{
		MaxOverhead:     1.10,
		InitialInterval: 100, // deliberately far off
		Smoothing:       0.5,
	}, func() []byte { return make([]byte, payloadBytes) })
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for it := 0; it < 700; it++ {
		time.Sleep(time.Millisecond) // the "training iteration"
		loop.Tick(ctx)
	}
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}
	// Eq. (3): f* = Tw/(N·q·t) ≈ 0.025 / (2·1.10·0.001) ≈ 11.
	got := loop.Interval()
	if got < 4 || got > 40 {
		iter, tw := loop.Measurements()
		t.Fatalf("adaptive interval = %d (iter %v, tw %v), want ≈11", got, iter, tw)
	}
	if loop.Adjustments() == 0 {
		t.Fatal("controller never adjusted")
	}
	if loop.Saves() < 5 {
		t.Fatalf("only %d saves in 700 iterations", loop.Saves())
	}
}

// When iterations slow down (e.g. input-pipeline contention, §3.4), the same
// overhead budget affords more frequent checkpointing: the interval must
// shrink.
func TestAdaptiveLoopTracksIterationTime(t *testing.T) {
	const payloadBytes = 50 << 10
	run := func(iterSleep time.Duration) int {
		ck, _, err := CreateVolatile(Config{
			MaxBytes:    payloadBytes,
			Concurrent:  2,
			Writers:     1,
			PerWriterBW: 2 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer ck.Close()
		loop, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.10, InitialInterval: 20, Smoothing: 0.5},
			func() []byte { return make([]byte, payloadBytes) })
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for it := 0; it < 300; it++ {
			time.Sleep(iterSleep)
			loop.Tick(ctx)
		}
		if err := loop.Drain(); err != nil {
			t.Fatal(err)
		}
		return loop.Interval()
	}
	fast := run(500 * time.Microsecond)
	slow := run(4 * time.Millisecond)
	if slow >= fast {
		t.Fatalf("slower iterations should allow a smaller interval: fast=%d slow=%d", fast, slow)
	}
}

func TestAdaptiveLoopClamps(t *testing.T) {
	ck, _, err := CreateVolatile(Config{MaxBytes: 1 << 10, Concurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	loop, err := NewAdaptiveLoop(ck, AdaptiveConfig{
		MaxOverhead:     1.05,
		InitialInterval: 7,
		MinInterval:     5,
		MaxInterval:     9,
	}, func() []byte { return make([]byte, 512) })
	if err != nil {
		t.Fatal(err)
	}
	// Unthrottled saves are nearly instant ⇒ f* would collapse to 1, but
	// the clamp holds it at MinInterval.
	ctx := context.Background()
	for it := 0; it < 200; it++ {
		loop.Tick(ctx)
	}
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := loop.Interval(); got < 5 || got > 9 {
		t.Fatalf("interval %d escaped clamp [5,9]", got)
	}
}

// decisionLoop builds an AdaptiveLoop over the production observer chain
// Ledger → flight Recorder, returning the pieces the retune edge-case tests
// poke at.
func decisionLoop(t *testing.T, lcfg LedgerConfig) (*AdaptiveLoop, *Ledger, *Recorder) {
	t.Helper()
	rec := NewFlightRecorder(0)
	led := NewLedger(lcfg, rec)
	ck, _, err := CreateVolatile(Config{MaxBytes: 1 << 10, Observer: led})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ck.Close() })
	loop, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.10, InitialInterval: 10}, func() []byte { return make([]byte, 256) })
	if err != nil {
		t.Fatal(err)
	}
	return loop, led, rec
}

// retunes scores the recorder's events and keeps the retune decisions.
func retunes(rec *Recorder) []obs.Decision {
	var out []obs.Decision
	for _, d := range obs.Decisions(rec.SnapshotEvents()) {
		if d.Kind == "retune" {
			out = append(out, d)
		}
	}
	return out
}

// Before any save has completed, Tw is zero and Eq. (3) is undefined: the
// retune must be a no-op that emits no decision, not a collapse to
// MinInterval.
func TestRetuneNoMeasuredTwIsNoOp(t *testing.T) {
	loop, _, rec := decisionLoop(t, LedgerConfig{SlowdownBudget: 1.10})
	loop.mu.Lock()
	loop.ewmaIter = 0.001
	loop.ewmaTw = 0 // no measured saves yet
	loop.retuneLocked()
	adjusts, interval := loop.adjusts, loop.interval
	loop.mu.Unlock()
	if adjusts != 0 || interval != 10 {
		t.Errorf("retune with Tw=0 acted: adjusts=%d interval=%d", adjusts, interval)
	}
	if ds := retunes(rec); len(ds) != 0 {
		t.Errorf("retune with Tw=0 emitted a decision: %+v", ds)
	}
}

// A retune taken after the ledger's slowdown went over budget joins the
// block that showed it (the last one before it, as no later block exists),
// and that block's event carries the slowdown directly.
func TestRetuneRecordsBudgetBreach(t *testing.T) {
	loop, led, rec := decisionLoop(t, LedgerConfig{
		SlowdownBudget:   1.05,
		BaselineIterTime: time.Millisecond,
		Window:           4,
	})
	// Four 3 ms iterations against the 1 ms baseline: slowdown 3 ≫ q.
	for i := 0; i < 4; i++ {
		led.IterDone(3*time.Millisecond, true)
	}
	if _, in := led.Breach(); !in {
		t.Fatal("ledger not in breach after the slow block")
	}
	loop.mu.Lock()
	loop.ewmaIter = 0.001
	loop.ewmaTw = 0.02
	loop.retuneLocked()
	loop.mu.Unlock()
	var block Event
	for _, ev := range rec.SnapshotEvents() {
		if ev.Phase == obs.PhaseSlowdownBlock {
			block = ev
		}
	}
	if slow := float64(block.Dur) / float64(block.Value); slow < 2.9 || slow > 3.1 {
		t.Errorf("slowdown block %+v reads slowdown %.2f, want 3", block, slow)
	}
	ds := retunes(rec)
	if len(ds) != 1 {
		t.Fatalf("retune decisions = %d, want 1", len(ds))
	}
	d := ds[0]
	if !d.Scored || d.Outcome != "drain-join" {
		t.Errorf("scored %v outcome %q, want drain-join against the breach block", d.Scored, d.Outcome)
	}
	if len(d.Rejected) < 2 {
		t.Errorf("retune carries %d alternatives, want ≥ 2", len(d.Rejected))
	}
}

// When the ledger's engine-measured write time drifts away from the
// goroutine-observed EWMA (queueing, external load), the retune must trust
// the ledger — both for the new interval and for the emitted decision.
func TestRetunePrefersLedgerMeasuredTw(t *testing.T) {
	loop, led, rec := decisionLoop(t, LedgerConfig{SlowdownBudget: 1.10})
	// Engine-measured saves: 50 ms spans, no slot wait. This is far above
	// the 1 ms the loop's own EWMA last saw.
	led.Emit(Event{TS: 1, Dur: int64(50 * time.Millisecond), Phase: PhaseSave, Slot: -1, Writer: -1, Rank: -1})
	measured := led.ObservedTw().Seconds()
	if measured <= 0.01 {
		t.Fatalf("ledger ObservedTw = %v, want the 50 ms save span reflected", measured)
	}
	loop.mu.Lock()
	loop.ewmaIter = 0.001
	loop.ewmaTw = 0.001 // stale goroutine view: would re-derive f=1
	loop.retuneLocked()
	interval := loop.interval
	loop.mu.Unlock()
	want := int(math.Ceil(measured / (float64(loop.n) * loop.q * 0.001)))
	if interval != want {
		t.Errorf("interval %d, want %d from the ledger-measured Tw", interval, want)
	}
	ds := retunes(rec)
	if len(ds) != 1 || ds[0].Chosen != fmt.Sprintf("f=%d", want) {
		t.Fatalf("retune decisions %+v, want one choosing f=%d", ds, want)
	}
}

// TestRetunePricesSnapshotStall: the retune picks the smallest f whose
// slowdown s(f) = (max(Tw/N, f·t) + S)/(f·t) is within q. With t = 2 ms,
// S = 4.2 ms, Tw = 2.5 ms, N = 2 and q = 1.25 that is f = 9 (s(9) = 1.233,
// s(8) = 1.263), and the candidates are priced the same way; with S = 0 it
// is Eq. (3)'s ⌈Tw/(N·q·t)⌉ = 1.
func TestRetunePricesSnapshotStall(t *testing.T) {
	const it, tw, q = 0.002, 0.0025, 1.25
	for _, tc := range []struct {
		stall float64
		want  int
	}{{0.0042, 9}, {0, 1}} {
		loop, _, _ := decisionLoop(t, LedgerConfig{SlowdownBudget: q})
		loop.mu.Lock()
		loop.q, loop.n = q, 2
		loop.ewmaIter, loop.ewmaSnap, loop.ewmaTw = it, tc.stall, tw
		loop.retuneLocked()
		got := loop.interval
		loop.mu.Unlock()
		if got != tc.want {
			t.Errorf("S = %v s: interval %d, want %d", tc.stall, got, tc.want)
		}
	}
	chosen, alts, k := retuneCandidates(perfmodel.IntervalModel{T: it, Tw: tw, S: 0.0042, N: 2}, q, 9, 8, 1, 1000)
	if !chosen.Eligible {
		t.Errorf("f=9 priced over budget: %+v", chosen)
	}
	for _, a := range alts[:k] {
		if a.Eligible != (a.Arg >= 9) {
			t.Errorf("f=%d eligible = %v, want %v", a.Arg, a.Eligible, a.Arg >= 9)
		}
	}
}

// TestRetuneAllocatesNothing: with the observer chain attached, a retune
// emits its 1 + K decision events and allocates nothing.
func TestRetuneAllocatesNothing(t *testing.T) {
	loop, _, rec := decisionLoop(t, LedgerConfig{SlowdownBudget: 1.10})
	loop.mu.Lock()
	loop.ewmaIter = 0.001
	loop.ewmaTw = 0.02
	loop.retuneLocked() // warm: settle the interval so re-runs are steady-state
	allocs := testing.AllocsPerRun(100, loop.retuneLocked)
	loop.mu.Unlock()
	if allocs > 0 {
		t.Errorf("retune allocates %v per call, want 0", allocs)
	}
	ds := retunes(rec)
	if len(ds) != 102 { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Fatalf("retune decisions = %d, want 102", len(ds))
	}
	if n := len(ds[0].Rejected); n != obs.MaxRejected {
		t.Errorf("retune carries %d rejected actions, want K = %d", n, obs.MaxRejected)
	}
}

// TestAdaptiveDecisionsScored runs a seeded adaptive training loop (f
// seeded at 10, a paced device so saves overlap training) and scores the
// flight recorder's events: the log is non-empty, every regret finite,
// ≥95% of retunes joined to a slowdown block, and every retune carries ≥2
// alternatives.
func TestAdaptiveDecisionsScored(t *testing.T) {
	rec := NewFlightRecorder(0)
	led := NewLedger(LedgerConfig{SlowdownBudget: 1.25}, rec)
	ck, _, err := CreateVolatile(Config{
		MaxBytes: 256 << 10, Concurrent: 2, Writers: 2, PerWriterBW: 64 << 20, Observer: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	state := make([]byte, 256<<10)
	loop, err := NewAdaptiveLoop(ck, AdaptiveConfig{MaxOverhead: 1.25, InitialInterval: 10}, func() []byte {
		time.Sleep(4 * time.Millisecond) // the snapshot stall
		return state
	})
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 200; it++ {
		time.Sleep(2 * time.Millisecond)
		loop.Tick(context.Background())
	}
	if err := loop.Drain(); err != nil {
		t.Fatal(err)
	}

	ds := obs.Decisions(rec.SnapshotEvents())
	if len(ds) == 0 {
		t.Fatal("adaptive run scored no decisions")
	}
	var n, joined int
	for _, d := range ds {
		if math.IsNaN(d.Regret) || math.IsInf(d.Regret, 0) || d.Regret < 0 {
			t.Errorf("decision %d: regret %v, want finite ≥ 0", d.ID, d.Regret)
		}
		if d.Kind != "retune" {
			continue
		}
		n++
		if d.Scored {
			joined++
		}
		if len(d.Rejected) < 2 {
			t.Errorf("retune %d carries %d alternatives, want ≥ 2", d.ID, len(d.Rejected))
		}
	}
	if n == 0 || float64(joined) < 0.95*float64(n) {
		t.Errorf("%d of %d retunes joined to a slowdown block, want ≥ 95%%", joined, n)
	}
}

// TestRetuneCandidateSet: the rejected intervals are distinct, priced by
// the interval model (cost the Eq. (4) lost work, overhead (s−1)·t),
// include the previous interval, and mark budget breaches ineligible.
func TestRetuneCandidateSet(t *testing.T) {
	m := perfmodel.IntervalModel{T: 0.001, Tw: 0.02, N: 2}
	chosen, alts, k := retuneCandidates(m, 1.05, 3, 5, 1, 100)
	if chosen.Arg != 3 {
		t.Fatalf("chosen f=%d, want f=3", chosen.Arg)
	}
	if k < 2 {
		t.Fatalf("rejected candidates = %d, want ≥ 2", k)
	}
	seen := map[int32]bool{chosen.Arg: true}
	for _, a := range append([]obs.Choice{chosen}, alts[:k]...) {
		if a != chosen && seen[a.Arg] {
			t.Errorf("duplicate candidate f=%d", a.Arg)
		}
		seen[a.Arg] = true
		f := int(a.Arg)
		if want := int64(m.LostWork(f) * 1e9); a.Cost != want {
			t.Errorf("candidate f=%d cost %d, want its lost work %d", f, a.Cost, want)
		}
		if want := int64((m.Slowdown(f) - 1) * m.T * 1e9); a.Over != want || a.Over < 0 {
			t.Errorf("candidate f=%d overhead %d, want (s−1)·t = %d ≥ 0", f, a.Over, want)
		}
	}
	if !seen[5] {
		t.Error("previous interval f=5 not among the candidates")
	}
	// With a tight budget the small intervals are ineligible: at N=1 with
	// tw ≫ t, f near 1 slows training far beyond q.
	_, tight, k := retuneCandidates(perfmodel.IntervalModel{T: 0.001, Tw: 0.5, N: 1}, 1.01, 2, 2, 1, 1000)
	ineligible := false
	for _, a := range tight[:k] {
		ineligible = ineligible || !a.Eligible
	}
	if !ineligible {
		t.Error("no ineligible candidate under a tight q with a huge Tw")
	}
	// The clamp collapses candidates; the fill still finds two when it can.
	if _, _, k := retuneCandidates(m, 1.05, 1, 1, 1, 10); k < 2 {
		t.Errorf("clamped-at-min candidates = %d, want ≥ 2", k)
	}
}

// TestRetuneCandidatesCheapestFirst: when more intervals are priced than a
// decision carries, the cut to obs.MaxRejected keeps the cheapest, in order.
func TestRetuneCandidatesCheapestFirst(t *testing.T) {
	const q, minI, maxI = 1.05, 1, 100
	m := perfmodel.IntervalModel{T: 0.001, Tw: 0.02, N: 2}
	chosen, prev := 6, 20
	_, alts, k := retuneCandidates(m, q, chosen, prev, minI, maxI)
	// Price every interval the policy considers on its own: as the chosen
	// one, retuneCandidates returns its price.
	var all []obs.Choice
	for _, f := range []int{prev, chosen - 1, chosen + 1, 2 * chosen, (chosen + 1) / 2} {
		c, _, _ := retuneCandidates(m, q, f, prev, minI, maxI)
		all = append(all, c)
	}
	if len(all) <= obs.MaxRejected || k != obs.MaxRejected {
		t.Fatalf("%d intervals priced, %d kept: want more than K=%d priced and K kept", len(all), k, obs.MaxRejected)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Cost < all[j].Cost })
	for i, a := range alts[:k] {
		if a.Arg != all[i].Arg || a.Cost != all[i].Cost {
			t.Errorf("kept candidate %d = f=%d cost %d, want f=%d cost %d", i, a.Arg, a.Cost, all[i].Arg, all[i].Cost)
		}
	}
}

// TestIntervalModelAgreement: over a grid of (Tw, t, N, q, S) the retune,
// the interval model and, at S = 0, tuner.Analyze pick the same f, which
// is Eq. (3)'s ⌈Tw/(N·q·t)⌉ when S = 0; the chosen f is priced eligible and
// f − 1 never is.
func TestIntervalModelAgreement(t *testing.T) {
	loop, _, _ := decisionLoop(t, LedgerConfig{})
	loop.mu.Lock()
	defer loop.mu.Unlock()
	loop.minInterval, loop.maxInterval = 1, perfmodel.MaxFStar
	for _, tw := range []float64{0.0005, 0.00261, 0.025, 1.3} {
		for _, it := range []float64{0.0005, 0.00222, 0.04} {
			for _, n := range []int{1, 2, 3, 8} {
				for _, q := range []float64{1.01, 1.05, 1.25, 2} {
					for _, stall := range []float64{0, 0.0003, 0.0042} {
						name := fmt.Sprintf("Tw=%v t=%v N=%d q=%v S=%v", tw, it, n, q, stall)
						m := perfmodel.IntervalModel{T: it, Tw: tw, S: stall, N: n}
						if stall == 0 {
							// Analyze at N* = n: one writer lane (1 GB/s) is a
							// 16th of the device, so Tw/N falls with every N.
							res, err := tuner.Analyze(tuner.Input{
								IterTime: time.Duration(it * 1e9), CheckpointBytes: int64(tw * 1e9),
								MaxOverhead: q, MaxN: n, Writers: 1,
							}, 16e9, 1e9)
							if err != nil || res.N != n || res.Tw != time.Duration(tw*1e9) {
								t.Fatalf("%s: Analyze = %+v, %v; want N* = %d, Tw = %v s", name, res, err, n, tw)
							}
							if eq3 := math.Ceil(tw / (float64(n) * q * it)); res.Interval != int(eq3) {
								t.Errorf("%s: Analyze f* = %d, Eq. (3) %v", name, res.Interval, eq3)
							}
							if m.Tw = res.Tw.Seconds(); res.Interval != m.FStar(q) {
								t.Errorf("%s: Analyze f* = %d, model %d", name, res.Interval, m.FStar(q))
							}
						}
						want := m.FStar(q)
						loop.q, loop.n = q, n
						loop.ewmaIter, loop.ewmaSnap, loop.ewmaTw = it, stall, m.Tw
						loop.retuneLocked()
						if loop.interval != want {
							t.Errorf("%s: retune f = %d, model f* = %d", name, loop.interval, want)
						}
						chosen, alts, k := retuneCandidates(m, q, want, want, 1, perfmodel.MaxFStar)
						if !chosen.Eligible {
							t.Errorf("%s: chosen f = %d priced ineligible", name, want)
						}
						for _, a := range alts[:k] {
							if int(a.Arg) == want-1 && a.Eligible {
								t.Errorf("%s: f − 1 = %d priced eligible", name, a.Arg)
							}
						}
					}
				}
			}
		}
	}
}

// TestRetuneRegretAtConvergence feeds one retune at the goodput scenario's
// converged estimates (t = 2.22 ms, Tw = 2.61 ms, S = 4.2 ms, N = 2,
// q = 1.25: f = 8, s(8) = 1.237, s(7) = 1.270) and one slowdown block. A
// block that shows the predicted overhead scores regret 0; one that shows
// 80 % of it, where f = 7 would have fit, scores f = 7's lower lost work as
// regret.
func TestRetuneRegretAtConvergence(t *testing.T) {
	const it, tw, stall, q = 0.00222, 0.00261, 0.0042, 1.25
	m := perfmodel.IntervalModel{T: it, Tw: tw, S: stall, N: 2}
	for _, tc := range []struct {
		measured float64 // share of the predicted overhead the block shows
		best     string
		regret   float64
	}{{1, "", 0}, {0.8, "f=7", m.LostWork(8) - m.LostWork(7)}} {
		loop, led, rec := decisionLoop(t, LedgerConfig{
			SlowdownBudget: q, BaselineIterTime: time.Duration(it * 1e9), Window: 4,
		})
		loop.mu.Lock()
		loop.q, loop.n = q, 2
		loop.ewmaIter, loop.ewmaSnap, loop.ewmaTw = it, stall, tw
		loop.retuneLocked()
		got := loop.interval
		loop.mu.Unlock()
		if got != 8 {
			t.Fatalf("retune picked f = %d, want 8", got)
		}
		mean := it * (1 + tc.measured*(m.Slowdown(8)-1))
		for i := 0; i < 4; i++ {
			led.IterDone(time.Duration(mean*1e9), i == 0)
		}
		ds := retunes(rec)
		if len(ds) != 1 {
			t.Fatalf("retune decisions = %d, want 1", len(ds))
		}
		d := ds[0]
		if d.Outcome != "ledger-join" || d.BestAlt != tc.best || math.Abs(d.Regret-tc.regret) > 1e-9 {
			t.Errorf("block at %v× the predicted overhead: scored %+v, want best %q regret %v",
				tc.measured, d, tc.best, tc.regret)
		}
	}
}
