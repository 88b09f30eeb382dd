package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// TestReopenSSDValidatesSizeAgainstSuperblock pins the ReopenSSD bugfix:
// before it, ReopenSSD trusted st.Size() and a truncated (or grown) device
// file surfaced later as range errors mid-recovery instead of a classified
// Corrupt error at open. The size probe is registered by this package's
// init, so the regression lives here.
func TestReopenSSDValidatesSizeAgainstSuperblock(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 2048, VerifyPayload: true}
	path := filepath.Join(t.TempDir(), "dev.img")
	size := DeviceBytesFor(cfg)

	dev, err := storage.OpenSSD(path, size)
	if err != nil {
		t.Fatalf("OpenSSD: %v", err)
	}
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 1024))); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	c.Close()
	if err := dev.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Intact file reopens cleanly.
	re, err := storage.ReopenSSD(path)
	if err != nil {
		t.Fatalf("ReopenSSD on intact file: %v", err)
	}
	re.Close()

	// Truncated file must fail Corrupt at open.
	if err := os.Truncate(path, size-512); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if _, err := storage.ReopenSSD(path); !storage.IsCorrupt(err) {
		t.Fatalf("ReopenSSD on truncated file = %v, want a Corrupt-classified error", err)
	}

	// Grown file likewise: the superblock pins the exact geometry.
	if err := os.Truncate(path, size+4096); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if _, err := storage.ReopenSSD(path); !storage.IsCorrupt(err) {
		t.Fatalf("ReopenSSD on grown file = %v, want a Corrupt-classified error", err)
	}
}

// tieredEngine builds an engine over a Tiered device, returning the raw
// levels for direct inspection.
func tieredEngine(t *testing.T, cfg Config, lower []storage.Device, opts ...storage.TieredOption) (*Checkpointer, *storage.Tiered, *storage.RAM) {
	t.Helper()
	size := DeviceBytesFor(cfg)
	tier0 := storage.NewRAM(size)
	levels := append([]storage.Device{tier0}, lower...)
	tiered, err := storage.NewTiered(levels, opts...)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	c, err := New(tiered, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, tiered, tier0
}

func TestRecoverTieredPrefersNewestCounter(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true}
	mkdev := func(saves int) (storage.Device, []byte) {
		dev := storage.NewRAM(DeviceBytesFor(cfg))
		c, err := New(dev, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var last []byte
		for i := 0; i < saves; i++ {
			last = payload(int64(saves*100+i), 512)
			if _, err := c.Checkpoint(context.Background(), BytesSource(last)); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
		return dev, last
	}
	older, _ := mkdev(3)
	newer, wantPayload := mkdev(5)

	p, ctr, err := RecoverTiered(older, newer)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if ctr != 5 {
		t.Fatalf("recovered counter %d, want the newest across tiers (5)", ctr)
	}
	if !bytes.Equal(p, wantPayload) {
		t.Fatal("recovered payload is not the newest tier's")
	}

	// Unformatted and nil levels are skipped, not fatal.
	p, ctr, err = RecoverTiered(nil, storage.NewRAM(DeviceBytesFor(cfg)), older)
	if err != nil {
		t.Fatalf("RecoverTiered with dead levels: %v", err)
	}
	if ctr != 3 || p == nil {
		t.Fatalf("recovered counter %d, want 3 from the only live tier", ctr)
	}

	// No recoverable tier at all.
	if _, _, err := RecoverTiered(storage.NewRAM(DeviceBytesFor(cfg))); err == nil {
		t.Fatal("RecoverTiered over only unformatted tiers succeeded")
	}
}

// TestRecoverWalksTiersAfterTier0Loss: core.Recover on a Tiered device must
// fall back to lower tiers when tier 0's contents are gone — the restart
// path after losing the fast tier.
func TestRecoverWalksTiersAfterTier0Loss(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 2048, VerifyPayload: true}
	ram1 := storage.NewRAM(DeviceBytesFor(cfg))
	c, tiered, tier0 := tieredEngine(t, cfg, []storage.Device{ram1})
	defer tiered.Close()

	var want []byte
	for i := 1; i <= 4; i++ {
		want = payload(int64(i), 1500)
		if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	c.Close()

	// Lose tier 0: zero it *directly* (not through the tiered device, which
	// would replicate the wipe).
	zero := make([]byte, tier0.Size())
	if err := tier0.WriteAt(zero, 0); err != nil {
		t.Fatalf("wipe tier 0: %v", err)
	}

	p, ctr, err := Recover(tiered)
	if err != nil {
		t.Fatalf("Recover after tier-0 loss: %v", err)
	}
	if ctr != 4 {
		t.Fatalf("recovered counter %d from tier 1, want 4", ctr)
	}
	if !bytes.Equal(p, want) {
		t.Fatal("tier-1 payload mismatch after tier-0 loss")
	}
}

// TestTieredCrashSweep is the acceptance test: with tier 0 lost at an
// arbitrary point (every prefix of tier 1's crash journal, under both the
// pessimistic and optimistic sector adversaries plus seeded mixes),
// recovery from the surviving tier restores at least the newest checkpoint
// the drainer acknowledged there — the ack floor carried by the drainer's
// marks in the crash journal.
//
// The lagging variant saves back to back into a throttled tier 1, so the
// front recycles slot indices the tier's durable record still names and most
// checkpoints are superseded before they ship: the same floor must hold.
func TestTieredCrashSweep(t *testing.T) {
	t.Run("paced", func(t *testing.T) { tieredCrashSweep(t, false) })
	t.Run("lagging", func(t *testing.T) { tieredCrashSweep(t, true) })
}

// laggingCrashTier slows a crash tier's writes down; Mark still reaches the
// journal through the embedded device.
type laggingCrashTier struct {
	*storage.CrashDevice
	th *storage.Throttle
}

func (d laggingCrashTier) WriteAt(p []byte, off int64) error {
	d.th.Acquire(len(p))
	return d.CrashDevice.WriteAt(p, off)
}

func tieredCrashSweep(t *testing.T, lagging bool) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	size := DeviceBytesFor(cfg)
	crash := storage.NewCrashDevice(size, storage.KindSSD)
	ledger := obs.NewLedger(obs.LedgerConfig{}, nil)
	cfg.Observer = ledger

	tier0 := storage.NewRAM(size)
	var tier1 storage.Device = crash
	if lagging {
		tier1 = laggingCrashTier{crash, storage.NewThrottle(4 << 20)} // ≈0.6 ms a payload
	}
	tiered, err := storage.NewTiered([]storage.Device{tier0, tier1},
		storage.WithTierObserver(ledger))
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	c, err := New(tiered, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	saves := 12
	if lagging {
		saves = 96 // tens of saves per ship: nearly all are superseded
	}
	payloads := map[uint64][]byte{}
	for i := 1; i <= saves; i++ {
		p := payload(int64(i), 2048+i*17)
		ctr, err := c.Checkpoint(context.Background(), BytesSource(p))
		if err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
		payloads[ctr] = p
		if i%3 == 0 && !lagging {
			// Let the drainer make progress at some commit boundaries so the
			// sweep sees a spread of ack floors, not just 0 and saves.
			time.Sleep(2 * time.Millisecond)
		}
	}
	c.Close()
	if lagging && !tiered.WaitDrained(5*time.Second) {
		t.Fatal("lagging tier did not converge")
	}

	// --- the sweep: tier 0 is gone; only a crash image of tier 1 survives.
	ops := crash.Ops()
	if ops == 0 {
		t.Fatal("drainer never wrote to tier 1")
	}
	stride := ops / 48
	if stride < 1 {
		stride = 1
	}
	choosers := map[string]storage.CrashChooser{
		"drop-unsynced": storage.DropAllWrites,
		"keep-unsynced": storage.KeepAllWrites,
		"seed-1":        storage.SeededChooser(1),
		"seed-42":       storage.SeededChooser(42),
	}
	floors := map[uint64]bool{}
	checked := 0
	for prefix := 0; prefix <= ops; prefix += stride {
		floor := crash.HighestMark(prefix)
		floors[floor] = true
		for name, choose := range choosers {
			img, err := crash.CrashImage(prefix, choose)
			if err != nil {
				t.Fatalf("CrashImage(%d, %s): %v", prefix, name, err)
			}
			p, ctr, err := Recover(storage.NewRAMFromBytes(img))
			if err != nil {
				if floor > 0 {
					t.Fatalf("prefix %d/%s: drainer acked counter %d to tier 1 but recovery failed: %v",
						prefix, name, floor, err)
				}
				continue
			}
			if ctr < floor {
				t.Fatalf("prefix %d/%s: recovered counter %d below the acked floor %d",
					prefix, name, ctr, floor)
			}
			want, okPayload := payloads[ctr]
			if !okPayload {
				t.Fatalf("prefix %d/%s: recovered unknown counter %d", prefix, name, ctr)
			}
			if !bytes.Equal(p, want) {
				t.Fatalf("prefix %d/%s: counter %d payload corrupt", prefix, name, ctr)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("sweep recovered nothing anywhere — drainer never made a checkpoint durable at tier 1")
	}
	if len(floors) < 2 {
		t.Logf("sweep saw only floors %v; timing collapsed the drain spread this run", floors)
	}

	// --- ledger consistency: after quiescing, the per-tier ledger row must
	// agree with the device's own drain accounting.
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge post-run")
	}
	st := tiered.Status()
	if st[1].DurableCounter != uint64(saves) {
		t.Fatalf("tier 1 durable counter %d after full drain, want %d", st[1].DurableCounter, saves)
	}
	rep := ledger.Report()
	if rep.LastPublishedCounter != uint64(saves) {
		t.Fatalf("ledger published counter %d, want %d", rep.LastPublishedCounter, saves)
	}
	var row *obs.TierDurability
	for i := range rep.Tiers {
		if rep.Tiers[i].Tier == 1 {
			row = &rep.Tiers[i]
		}
	}
	if row == nil {
		t.Fatalf("ledger report has no tier-1 row: %+v", rep.Tiers)
	}
	if row.DurableCounter != st[1].DurableCounter {
		t.Fatalf("ledger tier row durable=%d, device status durable=%d — drain lag accounting diverged",
			row.DurableCounter, st[1].DurableCounter)
	}
	if row.DrainLagCheckpoints != 0 {
		t.Fatalf("ledger reports drain lag %d after full drain, want 0", row.DrainLagCheckpoints)
	}
	if row.Drains == 0 || row.DrainedBytes == 0 {
		t.Fatalf("ledger tier row has empty drain accounting: %+v", row)
	}
	tiered.Close()
}

// TestTieredLedgerTracksStaleTier: a torn-down tier must show up in the
// ledger as drain lag equal to its distance behind the published counter —
// matching the device's own status, not a guess.
func TestTieredLedgerTracksStaleTier(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 2048, VerifyPayload: true}
	broken := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	broken.SetSchedule(storage.OpWrite, storage.Schedule{After: 1, Count: 1 << 30})
	ledger := obs.NewLedger(obs.LedgerConfig{}, nil)
	cfg.Observer = ledger

	c, tiered, _ := tieredEngine(t, cfg, []storage.Device{broken},
		storage.WithTierObserver(ledger),
		storage.WithTierRetry(2, 50*time.Microsecond, time.Millisecond))
	defer tiered.Close()

	const saves = 5
	for i := 1; i <= saves; i++ {
		if _, err := c.Checkpoint(context.Background(), BytesSource(payload(int64(i), 1024))); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	c.Close()

	// Wait until the drainer has tried (and failed) against the dead tier.
	deadline := time.Now().Add(5 * time.Second)
	for tiered.Status()[1].Errors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("drainer never attempted the dead tier")
		}
		time.Sleep(time.Millisecond)
	}

	st := tiered.Status()
	rep := ledger.Report()
	var row *obs.TierDurability
	for i := range rep.Tiers {
		if rep.Tiers[i].Tier == 1 {
			row = &rep.Tiers[i]
		}
	}
	if row == nil {
		t.Fatalf("no tier-1 ledger row despite drain errors: %+v", rep.Tiers)
	}
	if st[1].DurableCounter != 0 || row.DurableCounter != 0 {
		t.Fatalf("dead tier advanced: status=%d ledger=%d", st[1].DurableCounter, row.DurableCounter)
	}
	if row.DrainLagCheckpoints != saves {
		t.Fatalf("ledger drain lag %d, want %d (published %d, tier durable 0)",
			row.DrainLagCheckpoints, saves, rep.LastPublishedCounter)
	}
	if row.Errors == 0 {
		t.Fatalf("ledger tier row shows no errors for the dead tier: %+v", row)
	}
	if row.StalenessSeconds <= 0 {
		t.Fatalf("ledger staleness %.3fs for a tier that never became durable, want > 0", row.StalenessSeconds)
	}
}
