package core

import (
	"bytes"
	"context"
	"os"
	"strconv"
	"testing"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
)

// scrubTestSave commits payload and returns its counter.
func scrubTestSave(t *testing.T, c *Checkpointer, payload []byte) uint64 {
	t.Helper()
	ctr, err := c.Checkpoint(context.Background(), BytesSource(payload))
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return ctr
}

// --- pointer records --------------------------------------------------------

func TestScrubRepairsBitFlippedRecord(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	fd := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	c, err := New(fd, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	var last uint64
	for k := 0; k < 3; k++ {
		last = scrubTestSave(t, c, crashPayload(uint64(100+k), 2048))
	}

	// Flip bits in both record locations: the durable pointer is gone from
	// the device, alive only in the engine's memory.
	for _, off := range []int64{recordAOff, recordBOff} {
		if err := fd.CorruptAt(off, 8, storage.CorruptBitFlip); err != nil {
			t.Fatalf("CorruptAt: %v", err)
		}
	}
	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found != 2 || healed != 2 {
		t.Fatalf("ScrubNow found %d healed %d, want 2/2", found, healed)
	}
	st := c.ScrubStatus()
	if st.Repairs != 2 || st.Unrepaired != 0 {
		t.Errorf("status = %+v, want 2 repairs, 0 unrepaired", st)
	}
	if len(st.Findings) != 4 { // detected + repaired, twice
		t.Errorf("audit log holds %d findings, want 4", len(st.Findings))
	}

	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	payload, ctr, err := Recover(fd)
	if err != nil {
		t.Fatalf("Recover after record repair: %v", err)
	}
	if ctr != last {
		t.Errorf("recovered counter %d, want %d", ctr, last)
	}
	if err := checkCrashPayload(payload); err != nil {
		t.Errorf("recovered payload: %v", err)
	}
}

func TestScrubRepairsZeroedFirstSector(t *testing.T) {
	// A zeroing fault on sector 0 wipes the superblock AND both pointer
	// records at once. All three must be rebuilt from the engine's memory
	// (and any collateral slot damage repaired from the lower tier).
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	need := DeviceBytesFor(cfg)
	front := storage.NewFaultDevice(storage.NewRAM(need))
	levels := []storage.Device{front, storage.NewRAM(need)}
	td, err := storage.NewTiered(levels)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer td.Close()
	c, err := New(td, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	var last uint64
	for k := 0; k < 4; k++ {
		last = scrubTestSave(t, c, crashPayload(uint64(200+k), 2048))
	}
	if !td.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}

	if err := front.CorruptAt(recordAOff, recordSize, storage.CorruptSectorZero); err != nil {
		t.Fatalf("CorruptAt: %v", err)
	}
	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found < 3 || healed != found {
		t.Fatalf("ScrubNow found %d healed %d, want >=3 findings all healed", found, healed)
	}

	// The repaired superblock must match the original bytes exactly.
	head := make([]byte, 64)
	if err := td.ReadAt(head, superOff); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(head, c.sb.encode()) {
		t.Error("superblock bytes differ after repair")
	}

	buf := make([]byte, 4096)
	ctr, n, err := c.ReadLatest(buf)
	if err != nil || ctr != last {
		t.Fatalf("ReadLatest = %d, %v, want %d", ctr, err, last)
	}
	if err := checkCrashPayload(buf[:n]); err != nil {
		t.Errorf("ReadLatest payload: %v", err)
	}
}

// --- published slot ---------------------------------------------------------

func TestScrubRepublishesDamagedSlotFromTier(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	need := DeviceBytesFor(cfg)
	front := storage.NewFaultDevice(storage.NewRAM(need))
	td, err := storage.NewTiered([]storage.Device{front, storage.NewRAM(need)})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer td.Close()
	c, err := New(td, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	var last uint64
	for k := 0; k < 3; k++ {
		last = scrubTestSave(t, c, crashPayload(uint64(300+k), 2048))
	}
	if !td.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	oldSlot := c.checkAddr.Load().slot

	// Rot the front copy of the published payload; the lower tier still
	// holds an intact copy.
	if err := front.CorruptAt(payloadBase(c.sb, oldSlot)+100, 16, storage.CorruptBitFlip); err != nil {
		t.Fatalf("CorruptAt: %v", err)
	}
	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found != 1 || healed != 1 {
		t.Fatalf("ScrubNow found %d healed %d, want 1/1", found, healed)
	}
	// Repair re-publishes into a fresh slot: writing into the damaged slot
	// in place could race a concurrent save recycling it.
	nm := c.checkAddr.Load()
	if nm.slot == oldSlot {
		t.Errorf("repair reused the damaged slot %d in place", oldSlot)
	}
	if nm.counter != last {
		t.Errorf("published counter changed across repair: %d, want %d", nm.counter, last)
	}
	buf := make([]byte, 4096)
	ctr, n, err := c.ReadLatest(buf)
	if err != nil || ctr != last {
		t.Fatalf("ReadLatest = %d, %v, want %d", ctr, err, last)
	}
	if err := checkCrashPayload(buf[:n]); err != nil {
		t.Errorf("ReadLatest payload after repair: %v", err)
	}
	if found2, _, _ := c.ScrubNow(); found2 != 0 {
		t.Errorf("second sweep found %d, want clean", found2)
	}
}

func TestScrubQuarantinesSlotWithoutHealthySource(t *testing.T) {
	// Single device: no tier holds a second copy, so a rotted published
	// payload cannot be repaired — it must be quarantined, live reads must
	// fail classified-corrupt, and recovery must fall back to the previous
	// checkpoint without disturbing the ack floor.
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	fd := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	c, err := New(fd, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	var last, prev uint64
	for k := 0; k < 3; k++ {
		prev = last
		last = scrubTestSave(t, c, crashPayload(uint64(400+k), 2048))
	}
	tip := *c.checkAddr.Load()
	if err := fd.CorruptAt(payloadBase(c.sb, tip.slot)+64, 32, storage.CorruptBitFlip); err != nil {
		t.Fatalf("CorruptAt: %v", err)
	}

	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found != 1 || healed != 1 {
		t.Fatalf("ScrubNow found %d healed %d, want 1/1 (quarantine counts as contained)", found, healed)
	}
	st := c.ScrubStatus()
	if st.Quarantines != 1 || st.Repairs != 0 {
		t.Errorf("status = %+v, want exactly one quarantine", st)
	}

	// Live read: classified corrupt, never garbage.
	buf := make([]byte, 4096)
	if _, _, err := c.ReadLatest(buf); !storage.IsCorrupt(err) {
		t.Errorf("ReadLatest = %v, want a corrupt-classified error", err)
	}
	// Idempotence: the tombstone is not re-counted as fresh damage.
	if found2, _, _ := c.ScrubNow(); found2 != 0 {
		t.Errorf("second sweep found %d, want 0", found2)
	}

	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The on-device image: inspection renders the tombstone, recovery
	// skips it and serves the previous checkpoint.
	rep, err := Inspect(fd, true)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if !rep.SlotInfos[tip.slot].Quarantined {
		t.Errorf("slot %d not rendered as quarantined: %+v", tip.slot, rep.SlotInfos[tip.slot])
	}
	if !rep.Recoverable || rep.Latest.Counter != prev {
		t.Errorf("inspect: recoverable=%v latest=%d, want fallback to %d", rep.Recoverable, rep.Latest.Counter, prev)
	}
	payload, ctr, err := Recover(fd)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if ctr != prev {
		t.Errorf("recovered counter %d, want fallback %d", ctr, prev)
	}
	if err := checkCrashPayload(payload); err != nil {
		t.Errorf("recovered payload: %v", err)
	}

	// Reattach and keep training: the floor is the fallback, and the next
	// save reissues the lost counter with fresh data — the same semantic
	// as a crash before publication.
	c2, err := Open(fd, cfg)
	if err != nil {
		t.Fatalf("Open after quarantine: %v", err)
	}
	defer c2.Close()
	if ctr, _, ok := c2.Latest(); !ok || ctr != prev {
		t.Fatalf("reattached latest = %d/%v, want %d", ctr, ok, prev)
	}
	next := scrubTestSave(t, c2, crashPayload(999, 2048))
	if next <= prev {
		t.Errorf("post-quarantine save counter %d did not advance past the floor %d", next, prev)
	}
	ctr2, n2, err := c2.ReadLatest(buf)
	if err != nil || ctr2 != next {
		t.Fatalf("ReadLatest after reattach = %d, %v, want %d", ctr2, err, next)
	}
	if err := checkCrashPayload(buf[:n2]); err != nil {
		t.Errorf("post-quarantine payload: %v", err)
	}
}

// --- delta chains -----------------------------------------------------------

func TestScrubRepairsDeltaChainFromTier(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 3}
	need := DeviceBytesFor(cfg)
	front := storage.NewFaultDevice(storage.NewRAM(need))
	td, err := storage.NewTiered([]storage.Device{front, storage.NewRAM(need)})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer td.Close()
	c, err := New(td, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	const n = 2048
	var last uint64
	// K=3 forces a keyframe on save 5 (kf,d,d,d,kf,d): six saves leave a
	// keyframe plus one delta pinned.
	for k := 0; k < 6; k++ {
		last = scrubTestSave(t, c, sparsePayload(77, uint64(k), n))
	}
	if !td.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	c.deltaMu.Lock()
	chain := append([]checkMeta(nil), c.chain...)
	c.deltaMu.Unlock()
	if len(chain) < 2 {
		t.Fatalf("expected a keyframe+delta chain, got %d link(s)", len(chain))
	}

	// Rot the keyframe AND a delta link on the front; both are repaired in
	// place from the lower tier, keyframe first (chain order).
	for _, m := range []checkMeta{chain[0], chain[len(chain)-1]} {
		if err := front.CorruptAt(payloadBase(c.sb, m.slot)+32, 8, storage.CorruptBitFlip); err != nil {
			t.Fatalf("CorruptAt: %v", err)
		}
	}
	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found != 2 || healed != 2 {
		t.Fatalf("ScrubNow found %d healed %d, want 2/2", found, healed)
	}
	buf := make([]byte, n)
	ctr, rn, err := c.ReadLatest(buf)
	if err != nil || ctr != last {
		t.Fatalf("ReadLatest = %d, %v, want %d", ctr, err, last)
	}
	if err := checkSparsePayload(buf[:rn]); err != nil {
		t.Errorf("reconstructed payload after chain repair: %v", err)
	}
	if found2, _, _ := c.ScrubNow(); found2 != 0 {
		t.Errorf("second sweep found %d, want clean", found2)
	}
}

// --- lower tiers ------------------------------------------------------------

func TestScrubResyncsDamagedTier(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	need := DeviceBytesFor(cfg)
	lower := storage.NewFaultDevice(storage.NewRAM(need))
	levels := []storage.Device{storage.NewRAM(need), lower}
	td, err := storage.NewTiered(levels)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer td.Close()
	c, err := New(td, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	var last uint64
	for k := 0; k < 3; k++ {
		last = scrubTestSave(t, c, crashPayload(uint64(500+k), 2048))
	}
	if !td.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	tip := *c.checkAddr.Load()

	// Rot the lower tier's copy of the published payload: its
	// self-contained image no longer recovers the durable watermark.
	if err := lower.CorruptAt(payloadBase(c.sb, tip.slot)+128, 64, storage.CorruptBitFlip); err != nil {
		t.Fatalf("CorruptAt: %v", err)
	}
	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found != 1 || healed != 1 {
		t.Fatalf("ScrubNow found %d healed %d, want 1/1", found, healed)
	}
	if st := c.ScrubStatus(); st.TierResyncs != 1 {
		t.Errorf("status = %+v, want one tier resync", st)
	}
	if !td.WaitDrained(5 * time.Second) {
		t.Fatal("resync did not complete")
	}
	payload, ctr, err := Recover(lower)
	if err != nil {
		t.Fatalf("tier recovery after resync: %v", err)
	}
	if ctr != last {
		t.Errorf("tier recovered %d, want %d", ctr, last)
	}
	if err := checkCrashPayload(payload); err != nil {
		t.Errorf("tier payload after resync: %v", err)
	}
	if found2, _, _ := c.ScrubNow(); found2 != 0 {
		t.Errorf("second sweep found %d, want clean", found2)
	}
}

// --- black box --------------------------------------------------------------

func TestScrubRepairsBlackBoxHeader(t *testing.T) {
	cfg := Config{
		Concurrent: 2, SlotBytes: 4096, VerifyPayload: true,
		Observer: obs.NewRecorder(256),
		BlackBox: blackbox.Config{Bytes: 64 << 10, FlushEvery: -1},
	}
	fd := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	c, err := New(fd, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	scrubTestSave(t, c, crashPayload(600, 2048))

	if err := fd.CorruptAt(blackBoxBase(c.sb), 16, storage.CorruptBitFlip); err != nil {
		t.Fatalf("CorruptAt: %v", err)
	}
	found, healed, err := c.ScrubNow()
	if err != nil {
		t.Fatalf("ScrubNow: %v", err)
	}
	if found != 1 || healed != 1 {
		t.Fatalf("ScrubNow found %d healed %d, want 1/1", found, healed)
	}
	if err := blackbox.CheckHeader(fd, blackBoxBase(c.sb), c.sb.blackBoxBytes, c.sb.epoch); err != nil {
		t.Errorf("black-box header still damaged after repair: %v", err)
	}
	if found2, _, _ := c.ScrubNow(); found2 != 0 {
		t.Errorf("second sweep found %d, want clean", found2)
	}
}

// --- background loop --------------------------------------------------------

func TestScrubBackgroundLoopHeals(t *testing.T) {
	cfg := Config{
		Concurrent: 2, SlotBytes: 4096, VerifyPayload: true,
		Scrub: ScrubConfig{Interval: time.Millisecond},
	}
	fd := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	c, err := New(fd, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	scrubTestSave(t, c, crashPayload(700, 2048))

	if err := fd.CorruptAt(recordAOff, 8, storage.CorruptBitFlip); err != nil {
		t.Fatalf("CorruptAt: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.ScrubStatus()
		if st.Repairs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background scrubber never repaired the record: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- write-path failover, end to end ----------------------------------------

// TestTier0FailoverMidRunDegraded drives a training-style save loop into a
// permanent tier-0 failure: the loop must ride through (a bounded number of
// failed saves while the failover threshold is consumed), demote tier 0,
// finish on the next tier, and keep the durable floor monotonic.
func TestTier0FailoverMidRunDegraded(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	need := DeviceBytesFor(cfg)
	front := storage.NewFaultDevice(storage.NewRAM(need))
	levels := []storage.Device{front, storage.NewRAM(need), storage.NewRAM(need)}
	td, err := storage.NewTiered(levels,
		storage.WithFailoverThreshold(2))
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer td.Close()
	c, err := New(td, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	var preFailure, last uint64
	failed := 0
	for k := 0; k < 20; k++ {
		if k == 8 {
			if !td.WaitDrained(5 * time.Second) {
				t.Fatal("tiers did not converge before the failure")
			}
			preFailure = last
			// Tier 0 dies for good: every durability op fails permanently
			// (buffered WriteAts may still "succeed" — they no longer reset
			// the failover budget).
			front.SetSchedule(storage.OpPersist, storage.Schedule{After: 1, Count: 1 << 30})
			front.SetSchedule(storage.OpSync, storage.Schedule{After: 1, Count: 1 << 30})
		}
		ctr, err := c.Checkpoint(context.Background(), BytesSource(crashPayload(uint64(800+k), 2048)))
		if err != nil {
			failed++
			continue
		}
		last = ctr
	}
	if failed == 0 {
		t.Fatal("no save ever hit the failing tier — the failure was not exercised")
	}
	if failed > 10 {
		t.Errorf("%d of 12 post-failure saves failed; failover did not restore the write path", failed)
	}
	if last <= preFailure {
		t.Fatalf("no save succeeded after the tier-0 failure (last %d, pre-failure %d)", last, preFailure)
	}

	st := td.Status()
	if td.Active() == 0 || !st[0].Failed || st[0].Active {
		t.Errorf("tier 0 not demoted: active=%d status=%+v", td.Active(), st[0])
	}
	if st[0].Failovers != 1 {
		t.Errorf("tier 0 failovers = %d, want 1", st[0].Failovers)
	}

	// The degraded stack still reads and still scrubs clean.
	buf := make([]byte, 4096)
	ctr, n, err := c.ReadLatest(buf)
	if err != nil || ctr != last {
		t.Fatalf("ReadLatest degraded = %d, %v, want %d", ctr, err, last)
	}
	if err := checkCrashPayload(buf[:n]); err != nil {
		t.Errorf("degraded payload: %v", err)
	}
	if found, _, err := c.ScrubNow(); err != nil || found != 0 {
		t.Errorf("degraded sweep found %d, err %v, want clean", found, err)
	}

	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := td.Close(); err != nil {
		t.Fatalf("tiered Close: %v", err)
	}
	payload, rctr, err := RecoverTiered(levels...)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rctr != last {
		t.Errorf("recovered %d, want the degraded-mode floor %d", rctr, last)
	}
	if err := checkCrashPayload(payload); err != nil {
		t.Errorf("recovered payload: %v", err)
	}
	if rctr < preFailure {
		t.Errorf("durable floor regressed across failover: %d < %d", rctr, preFailure)
	}
}

// --- the sweep harness ------------------------------------------------------

// TestScrubSweepMatrix runs one full pass over the scenario × mode ×
// format × depth matrix. PCCHECK_SCRUB_SWEEP=<cases> scales it up (CI runs
// 720 cases ≈ 1080 injected corruptions).
func TestScrubSweepMatrix(t *testing.T) {
	cases := 60
	if v := os.Getenv("PCCHECK_SCRUB_SWEEP"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("PCCHECK_SCRUB_SWEEP=%q: %v", v, err)
		}
		cases = n
	} else if testing.Short() {
		cases = 15
	}
	res, err := ScrubSweep(ScrubSweepOptions{Seed: 0xC0FFEE, Cases: cases})
	if err != nil {
		t.Fatalf("ScrubSweep: %v", err)
	}
	t.Logf("sweep: %d cases, %d injected, %d detected, %d repaired, %d quarantined, %d resynced",
		res.Cases, res.Injected, res.Detected, res.Repaired, res.Quarantined, res.Resynced)
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.Detected == 0 || res.Repaired == 0 || res.Quarantined == 0 || res.Resynced == 0 {
		t.Errorf("sweep did not exercise every healing path: %+v", res)
	}
}
