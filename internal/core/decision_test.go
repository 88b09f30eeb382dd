package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// The engine's decisions: slot admissions (derived from PhaseSlotWait) and
// retry sequences (emitted as PhaseDecision groups) score with measured
// regret from the flight recorder's events alone, and the uncontended save
// path emits and allocates nothing for them.

// decisionChain builds the production observer order for tests:
// Ledger → flight Recorder.
func decisionChain() (*obs.Ledger, *obs.Recorder) {
	rec := obs.NewRecorder(1 << 12)
	return obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.25}, rec), rec
}

func decisionsOf(rec *obs.Recorder, kind string) []obs.Decision {
	var out []obs.Decision
	for _, d := range obs.Decisions(rec.SnapshotEvents()) {
		if d.Kind == kind {
			out = append(out, d)
		}
	}
	return out
}

// TestUncontendedSaveEmitsNoDecision: with the observer chain attached, an
// uncontended, fault-free Checkpoint allocates no more than with no
// observer and emits no PhaseDecision — decisions live on the slow paths.
func TestUncontendedSaveEmitsNoDecision(t *testing.T) {
	mk := func(o obs.Observer) *Checkpointer {
		cfg := Config{Concurrent: 1, SlotBytes: 1024, Writers: 1, Observer: o}
		dev := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
		ck, err := New(dev, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return ck
	}
	payload := make([]byte, 512)
	ctx := context.Background()

	run := func(ck *Checkpointer) float64 {
		src := BytesSource(payload)
		for i := 0; i < 3; i++ {
			if _, err := ck.Checkpoint(ctx, src); err != nil {
				t.Fatalf("warmup Checkpoint: %v", err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := ck.Checkpoint(ctx, src); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		})
	}

	off := mk(nil)
	defer off.Close()
	baseline := run(off)

	led, rec := decisionChain()
	on := mk(led)
	defer on.Close()
	if chained := run(on); chained > baseline {
		t.Errorf("observer chain added allocations: %v chained vs %v baseline", chained, baseline)
	}
	for _, ev := range rec.SnapshotEvents() {
		if ev.Phase == obs.PhaseDecision {
			t.Fatalf("uncontended save emitted a decision: %+v", ev)
		}
	}
}

// A contended admission scores as one slot-admission decision whose regret
// is the measured wait.
func TestSlotWaitRecordsDecision(t *testing.T) {
	led, rec := decisionChain()
	cfg := Config{
		Concurrent: 1, SlotBytes: 64 << 10, Writers: 1,
		PerWriterBW: 4 << 20, // ~16 ms per save: overlap forces a wait
		Observer:    led,
	}
	dev := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	ck, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()

	body := payload(3, 64<<10)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ck.Checkpoint(context.Background(), BytesSource(body)); err != nil {
				t.Errorf("Checkpoint: %v", err)
			}
		}()
	}
	wg.Wait()

	if ck.Stats().SlotWaits == 0 {
		t.Skip("no slot contention materialised (scheduler served saves sequentially)")
	}
	admissions := decisionsOf(rec, "slot-admission")
	if int64(len(admissions)) != ck.Stats().SlotWaits {
		t.Fatalf("%d slot waits scored %d slot-admission decisions", ck.Stats().SlotWaits, len(admissions))
	}
	for _, d := range admissions {
		if !d.Scored || d.Outcome != "admitted" || d.Chosen != "wait-for-slot" {
			t.Errorf("%+v, want a scored wait-for-slot admitted", d)
		}
		if d.Regret <= 0 || d.Regret != d.Measured || d.BestAlt != "skip-save" {
			t.Errorf("regret %v measured %v best %q, want regret = measured wait > 0 against skip-save",
				d.Regret, d.Measured, d.BestAlt)
		}
		if d.Ref == 0 || len(d.Rejected) != 2 {
			t.Errorf("counter %d, %d alternatives, want the save's counter and provision-slot + skip-save",
				d.Ref, len(d.Rejected))
		}
	}
}

// Retry sequences score by outcome: backoff that salvaged the save has
// zero regret (failing fast was not an option that saves it); backoff
// exhausted on a save that failed anyway is pure regret.
func TestRetryRecordsDecisions(t *testing.T) {
	mk := func() (*Checkpointer, *storage.FaultDevice, *obs.Recorder) {
		led, rec := decisionChain()
		ram := storage.NewRAM(DeviceBytes(1, 4096))
		dev := storage.NewFaultDevice(ram)
		ck, err := New(dev, Config{
			Concurrent: 1, SlotBytes: 4096, Observer: led,
			Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Microsecond, MaxBackoff: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ck, dev, rec
	}

	// Recovered: 2 transient faults under a 3-attempt budget.
	ck, dev, rec := mk()
	dev.FailTransient(storage.OpWrite, 1, 2)
	if _, err := ck.Checkpoint(context.Background(), BytesSource(payload(1, 2048))); err != nil {
		t.Fatalf("recoverable save failed: %v", err)
	}
	ck.Close()
	recovered := decisionsOf(rec, "retry")
	if len(recovered) == 0 {
		t.Fatal("recovered retry sequence emitted no decision")
	}
	for _, d := range recovered {
		if d.Outcome != "recovered" || d.Regret != 0 || d.Chosen != "retry(max=3)" {
			t.Errorf("%+v, want retry(max=3) recovered with 0 regret", d)
		}
		if d.Measured <= 0 || len(d.Rejected) != 2 || d.Rejected[0].Eligible {
			t.Errorf("%+v, want backoff > 0 and an ineligible fail-fast", d)
		}
	}

	// Exhausted: a fault burst longer than the budget.
	ck, dev, rec = mk()
	dev.FailTransient(storage.OpWrite, 1, 10)
	if _, err := ck.Checkpoint(context.Background(), BytesSource(payload(2, 2048))); err == nil {
		t.Fatal("save survived more faults than the budget")
	}
	ck.Close()
	found := false
	for _, d := range decisionsOf(rec, "retry") {
		if d.Outcome == "exhausted" {
			found = true
			if d.Regret <= 0 || d.Regret != d.Measured || d.BestAlt != "fail-fast" {
				t.Errorf("%+v, want regret = burned backoff > 0 against fail-fast", d)
			}
		}
	}
	if !found {
		t.Error("no exhausted-outcome retry decision")
	}

	// Fault-free saves emit nothing: a decision needs an absorbed fault.
	ck, _, rec = mk()
	if _, err := ck.Checkpoint(context.Background(), BytesSource(payload(3, 2048))); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if ds := decisionsOf(rec, "retry"); len(ds) != 0 {
		t.Errorf("fault-free save emitted %d retry decisions", len(ds))
	}
}
