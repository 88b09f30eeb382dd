package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

// TestBlackBoxCrashSweep is the forensic acceptance test: crash cuts at
// every op boundary (plus sampled torn/reordered schedules) of black-box
// workloads, each asserting — on top of the §4.1 durability invariant —
// that the telemetry region decodes to a CRC-valid, strictly monotonic
// frame tail whose newest frame belongs to a flush started before the
// cut, non-empty whenever a flush fully completed. The full matrix runs
// as `pccheck-bench -crash` and in the forensics-matrix CI job.
func TestBlackBoxCrashSweep(t *testing.T) {
	workloads := []CrashWorkload{
		{Kind: storage.KindPMEM, Concurrent: 1, BlackBox: true, Seed: 11},
		{Kind: storage.KindSSD, Concurrent: 2, ChunkBytes: 1024, VerifyPayload: true, BlackBox: true, Seed: 12},
		{Kind: storage.KindPMEM, Concurrent: 1, DeltaEvery: 1, DeltaKeyframe: 2, Checkpoints: 6, BlackBox: true, Seed: 13},
	}
	samples := 200
	if testing.Short() {
		samples = 40
	}
	for _, w := range workloads {
		w := w
		t.Run(strings.ReplaceAll(w.String(), " ", "_"), func(t *testing.T) {
			t.Parallel()
			res, err := ExploreCrashes(CrashExploreOptions{Workload: w, Samples: samples})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Error(v)
			}
			if res.CrashPoints < 20 {
				t.Fatalf("only %d crash points — workload too small to mean anything", res.CrashPoints)
			}
			if res.Recovered == 0 {
				t.Fatal("no case recovered a checkpoint — assertions never engaged")
			}
		})
	}
}

// bbChain builds the production observer chain the black box feeds on.
func bbChain() obs.Observer {
	return obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05}, obs.NewRecorder(1<<10))
}

var bbTestConfig = blackbox.Config{
	Bytes:      blackbox.SectorBytes + 8*4096,
	FrameBytes: 4096,
	FlushEvery: -1, // explicit flushes: deterministic tests
}

// TestPostMortemRoundTrip: checkpoints + an explicit flush leave a black
// box whose newest frame carries the flight-ring tail and the goodput
// report; PostMortem surfaces them after "recovery" (the
// engine is gone, only the device remains).
func TestPostMortemRoundTrip(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 2048, Observer: bbChain(), BlackBox: bbTestConfig}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	eng, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Checkpoint(context.Background(), BytesSource(payload(int64(i+1), 1024))); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
	}
	seq, err := eng.FlushBlackBox()
	if err != nil {
		t.Fatalf("FlushBlackBox: %v", err)
	}
	if seq != 1 {
		t.Fatalf("first flush seq = %d, want 1", seq)
	}

	pm, err := PostMortem(dev)
	if err != nil {
		t.Fatalf("PostMortem: %v", err)
	}
	if pm.LastSeq() != 1 || len(pm.Frames) != 1 {
		t.Fatalf("post mortem has %d frames last seq %d, want 1/1", len(pm.Frames), pm.LastSeq())
	}
	newest := pm.Newest()
	if len(newest.Events) == 0 {
		t.Fatal("newest frame captured no events")
	}
	var sawPublish bool
	for _, ev := range newest.Events {
		if ev.Phase == obs.PhasePublish {
			sawPublish = true
		}
	}
	if !sawPublish {
		t.Fatal("newest frame's event tail has no publish event")
	}
	if rep, ok := pm.LastReport(); !ok {
		t.Fatal("no goodput report survived")
	} else if rep.LastPublishedCounter != 3 {
		t.Fatalf("report's last published counter = %d, want 3", rep.LastPublishedCounter)
	}
}

// TestPostMortemLegacyDevice: a device formatted without a black box
// (the pre-forensics layout) still checkpoints, recovers, and reports
// ErrNoRegion — never an I/O or decode error — from PostMortem.
func TestPostMortemLegacyDevice(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 1024}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	eng, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(context.Background(), BytesSource(payload(7, 512))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dev); err != nil {
		t.Fatalf("legacy device must still recover: %v", err)
	}
	if _, err := PostMortem(dev); !errors.Is(err, blackbox.ErrNoRegion) {
		t.Fatalf("PostMortem on legacy device = %v, want ErrNoRegion", err)
	}
}

// TestFlushBlackBoxWithoutRegion: FlushBlackBox on an engine without a
// black box is a no-op, not an error.
func TestFlushBlackBoxWithoutRegion(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 1024}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	eng, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := eng.FlushBlackBox(); seq != 0 || err != nil {
		t.Fatalf("FlushBlackBox without region = (%d, %v), want (0, nil)", seq, err)
	}
	if eng.BlackBox() != nil {
		t.Fatal("BlackBox() non-nil without a region")
	}
}

// TestPostMortemJournalResumesAcrossReopen: after a restart (Open), new
// flushes extend the pre-crash sequence instead of overwriting it, so a
// merged forensic timeline stays monotonic across the crash boundary.
func TestPostMortemJournalResumesAcrossReopen(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 2048, Observer: bbChain(), BlackBox: bbTestConfig}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	eng, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(context.Background(), BytesSource(payload(1, 800))); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FlushBlackBox(); err != nil {
		t.Fatal(err)
	}
	// "Crash": drop the engine without Close, re-open the device.
	eng2, err := Open(dev, Config{Observer: bbChain(), BlackBox: bbTestConfig})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := eng2.Checkpoint(context.Background(), BytesSource(payload(2, 800))); err != nil {
		t.Fatal(err)
	}
	seq, err := eng2.FlushBlackBox()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("post-reopen flush seq = %d, want 2 (resume after pre-crash tail)", seq)
	}
	pm, err := PostMortem(dev)
	if err != nil {
		t.Fatal(err)
	}
	if pm.LastSeq() != 2 || len(pm.Frames) != 2 {
		t.Fatalf("merged tail has %d frames last seq %d, want 2/2", len(pm.Frames), pm.LastSeq())
	}
}

// TestCheckCrashBlackBoxDetects: the sweep's telemetry checker is not
// vacuous — it flags a wiped region after a completed flush, and flags
// telemetry "from the future" (a frame no flush before the cut wrote).
func TestCheckCrashBlackBoxDetects(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 2048, Observer: bbChain(), BlackBox: bbTestConfig}
	dev := storage.NewRAM(DeviceBytesFor(cfg))
	eng, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Checkpoint(context.Background(), BytesSource(payload(1, 900))); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FlushBlackBox(); err != nil {
		t.Fatal(err)
	}

	// The real frame is durable but the bookkeeping says no flush started
	// before the cut: the checker must call it fabricated.
	if msg := checkCrashBlackBox(dev, nil, 10); !strings.Contains(msg, "fabricated") {
		t.Fatalf("future telemetry not flagged, got %q", msg)
	}

	// Bookkeeping says flush 1 completed at op 5 but the region is wiped:
	// the checker must call it lost.
	wiped := storage.NewRAM(dev.Size())
	buf := make([]byte, dev.Size())
	if err := dev.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := wiped.WriteAt(buf[:256], 0); err != nil { // superblock survives, region does not
		t.Fatal(err)
	}
	marks := []bbFlushMark{{seq: 1, startOp: 3, endOp: 5}}
	if msg := checkCrashBlackBox(wiped, marks, 10); msg == "" {
		t.Fatal("lost durable telemetry not flagged")
	}
}

// TestPostMortemFromReplicaAfterTier0Loss: the black box rides the
// tiered drainer like any other region, so when tier 0 vanishes the
// replica answers forensics.
func TestPostMortemFromReplicaAfterTier0Loss(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 2048, Observer: bbChain(), BlackBox: bbTestConfig}
	size := DeviceBytesFor(cfg)
	tier0 := storage.NewRAM(size)
	tier1 := storage.NewRAM(size)
	tiered, err := storage.NewTiered([]storage.Device{tier0, tier1})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	eng, err := New(tiered, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.Checkpoint(context.Background(), BytesSource(payload(int64(i+1), 1024))); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.FlushBlackBox(); err != nil {
			t.Fatal(err)
		}
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	eng.Close()

	// Lose tier 0 directly (bypassing the tiered device, which would
	// replicate the wipe).
	zero := make([]byte, tier0.Size())
	if err := tier0.WriteAt(zero, 0); err != nil {
		t.Fatal(err)
	}

	pm, err := PostMortem(tiered) // TierReader dispatch, like Recover
	if err != nil {
		t.Fatalf("PostMortem after tier-0 loss: %v", err)
	}
	// Close wrote one final frame after the two explicit flushes.
	if pm.LastSeq() < 2 {
		t.Fatalf("replica's black box last seq = %d, want >= 2", pm.LastSeq())
	}
	if len(pm.Newest().Events) == 0 {
		t.Fatal("replica's newest frame has no events")
	}
}
