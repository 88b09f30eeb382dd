package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"pccheck/internal/storage"
)

// The fault-tolerant persist path: transient device faults are absorbed by
// bounded retry with backoff, permanent faults fail fast, and slot
// accounting balances on every outcome.

func retryEngine(t *testing.T, cfg Config) (*Checkpointer, *storage.FaultDevice, *storage.RAM) {
	t.Helper()
	ram := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	dev := storage.NewFaultDevice(ram)
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dev, ram
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: 50 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
	}
}

// The acceptance scenario: k transient faults with k < MaxAttempts must not
// fail the Save, must count exactly k retries and k transient faults, and
// the recovered checkpoint must be byte-identical.
func TestCheckpointSurvivesScheduledTransientFaults(t *testing.T) {
	const k = 3
	c, dev, ram := retryEngine(t, Config{
		Concurrent: 2, SlotBytes: 8192, Writers: 2, ChunkBytes: 2048,
		VerifyPayload: true, Retry: fastRetry(k + 2),
	})
	want := payload(42, 6000)
	dev.FailTransient(storage.OpWrite, 2, k)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
		t.Fatalf("checkpoint died on transient faults: %v", err)
	}
	s := c.Stats()
	if s.IORetries != k {
		t.Fatalf("IORetries = %d, want %d", s.IORetries, k)
	}
	if s.TransientFaults != k {
		t.Fatalf("TransientFaults = %d, want %d", s.TransientFaults, k)
	}
	if s.FailedSaves != 0 {
		t.Fatalf("FailedSaves = %d, want 0", s.FailedSaves)
	}
	got, counter, err := Recover(ram)
	if err != nil {
		t.Fatal(err)
	}
	if counter != 1 || !bytes.Equal(got, want) {
		t.Fatalf("recovered checkpoint %d not byte-identical", counter)
	}
	if free := c.FreeSlots(); free != c.TotalSlots()-1 {
		t.Fatalf("free slots = %d, want %d", free, c.TotalSlots()-1)
	}
	mustCheckSlots(t, c)
}

// Permanent faults must fail the Save without a single retry, leak no slot,
// and leave the previously published checkpoint recoverable.
func TestPermanentFaultFailsFastWithoutRetry(t *testing.T) {
	c, dev, ram := retryEngine(t, Config{
		Concurrent: 1, SlotBytes: 4096, VerifyPayload: true, Retry: fastRetry(5),
	})
	want := payload(7, 3000)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(storage.OpWrite, 1, nil) // ErrInjected classifies permanent
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(8, 3000))); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	s := c.Stats()
	if s.IORetries != 0 || s.TransientFaults != 0 {
		t.Fatalf("permanent fault retried: retries=%d transient=%d", s.IORetries, s.TransientFaults)
	}
	if s.FailedSaves != 1 {
		t.Fatalf("FailedSaves = %d, want 1", s.FailedSaves)
	}
	if free := c.FreeSlots(); free != c.TotalSlots()-1 {
		t.Fatalf("slot leaked: free = %d, want %d", free, c.TotalSlots()-1)
	}
	mustCheckSlots(t, c)
	got, counter, err := Recover(ram)
	if err != nil || counter != 1 || !bytes.Equal(got, want) {
		t.Fatalf("previous checkpoint lost: counter=%d err=%v", counter, err)
	}
}

// A burst longer than the attempt budget exhausts the retries: the Save
// fails with a transient-classified error and the slot comes back.
func TestRetryBudgetExhaustion(t *testing.T) {
	c, dev, _ := retryEngine(t, Config{
		Concurrent: 1, SlotBytes: 2048, Retry: fastRetry(3),
	})
	dev.FailTransient(storage.OpWrite, 1, 10)
	_, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 1000)))
	if err == nil {
		t.Fatal("checkpoint survived more faults than the attempt budget")
	}
	if !storage.IsTransient(err) {
		t.Fatalf("exhaustion error lost its class: %v", err)
	}
	s := c.Stats()
	if s.TransientFaults != 3 || s.IORetries != 2 {
		t.Fatalf("transient=%d retries=%d, want 3/2", s.TransientFaults, s.IORetries)
	}
	if s.FailedSaves != 1 {
		t.Fatalf("FailedSaves = %d", s.FailedSaves)
	}
	dev.Clear()
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(2, 1000))); err != nil {
		t.Fatalf("engine wedged after exhaustion: %v", err)
	}
	if free := c.FreeSlots(); free != c.TotalSlots()-1 {
		t.Fatalf("slot leaked: free = %d", free)
	}
	mustCheckSlots(t, c)
}

// Transient faults on the slot-header and pointer-record Persist calls are
// absorbed too — the retry loop covers the whole persist path, not just the
// payload writers.
func TestTransientFaultOnHeaderAndRecordPersist(t *testing.T) {
	c, dev, ram := retryEngine(t, Config{
		Concurrent: 1, SlotBytes: 2048, VerifyPayload: true, Retry: fastRetry(4),
	})
	// Within one Checkpoint the Persist order is: slot header, then pointer
	// record. Fault both.
	dev.FailTransient(storage.OpPersist, 1, 1)
	want := payload(3, 1500)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
		t.Fatalf("header persist fault not absorbed: %v", err)
	}
	dev.FailTransient(storage.OpPersist, 2, 1) // next: header ok, record faults
	want2 := payload(4, 1500)
	if _, err := c.Checkpoint(context.Background(), BytesSource(want2)); err != nil {
		t.Fatalf("record persist fault not absorbed: %v", err)
	}
	got, counter, err := Recover(ram)
	if err != nil || counter != 2 || !bytes.Equal(got, want2) {
		t.Fatalf("recovered %d err=%v", counter, err)
	}
	if s := c.Stats(); s.IORetries != 2 || s.TransientFaults != 2 {
		t.Fatalf("retries=%d transient=%d, want 2/2", s.IORetries, s.TransientFaults)
	}
	mustCheckSlots(t, c)
}

// A permanent pointer-record failure after a won CAS must not recycle the
// slot the durable record still references — it is parked and released only
// once a newer record lands, keeping recovery safe throughout.
func TestRecordPersistFailureDefersSlotFree(t *testing.T) {
	c, dev, ram := retryEngine(t, Config{
		Concurrent: 1, SlotBytes: 4096, VerifyPayload: true, Retry: fastRetry(2),
	})
	first := payload(11, 3500)
	if _, err := c.Checkpoint(context.Background(), BytesSource(first)); err != nil {
		t.Fatal(err)
	}
	// Next Checkpoint: Persist #1 is the slot header, #2 the pointer record.
	dev.FailAfter(storage.OpPersist, 2, nil)
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(12, 3500))); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// The durable record still references checkpoint 1's slot; it must be
	// parked (not free) so nothing can overwrite it...
	if free := c.FreeSlots(); free != c.TotalSlots()-2 {
		t.Fatalf("free slots = %d, want %d (referenced slot must stay parked)", free, c.TotalSlots()-2)
	}
	mustCheckSlots(t, c)
	// ...which keeps the crash image recoverable to checkpoint 1.
	got, counter, err := Recover(ram)
	if err != nil || counter != 1 || !bytes.Equal(got, first) {
		t.Fatalf("recovery broken after record failure: counter=%d err=%v", counter, err)
	}
	// A later successful publication supersedes the stale reference and
	// frees the parked slot: no leak.
	third := payload(13, 3500)
	if _, err := c.Checkpoint(context.Background(), BytesSource(third)); err != nil {
		t.Fatal(err)
	}
	if free := c.FreeSlots(); free != c.TotalSlots()-1 {
		t.Fatalf("parked slot leaked: free = %d, want %d", free, c.TotalSlots()-1)
	}
	mustCheckSlots(t, c)
	got, counter, err = Recover(ram)
	if err != nil || !bytes.Equal(got, third) {
		t.Fatalf("recovery after requited record: counter=%d err=%v", counter, err)
	}
}

// Context cancellation during backoff aborts the retry loop promptly and
// releases the slot.
func TestRetryBackoffHonorsContext(t *testing.T) {
	c, dev, _ := retryEngine(t, Config{
		Concurrent: 1, SlotBytes: 2048,
		Retry: RetryPolicy{MaxAttempts: 100, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	})
	dev.FailTransient(storage.OpWrite, 1, 1000)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Checkpoint(ctx, BytesSource(payload(1, 1000)))
	if err == nil {
		t.Fatal("checkpoint succeeded through an hour-long backoff?")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	dev.Clear()
	// Nothing was ever published, so every slot must be free again.
	if free := c.FreeSlots(); free != c.TotalSlots() {
		t.Fatalf("slot leaked on cancellation: free = %d, want %d", free, c.TotalSlots())
	}
	mustCheckSlots(t, c)
}

// Corrupt payloads classify as such so callers can tell "retry later" from
// "restore from an older checkpoint".
func TestCorruptPayloadClassified(t *testing.T) {
	ram := storage.NewRAM(DeviceBytes(1, 4096))
	c, err := New(ram, Config{Concurrent: 1, SlotBytes: 4096, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(5, 2000))); err != nil {
		t.Fatal(err)
	}
	// Flip payload bytes behind the engine's back.
	if err := ram.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0xFF}, payloadBase(c.sb, c.checkAddr.Load().slot)+100); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.ReadLatest(make([]byte, 2000))
	if err == nil {
		t.Fatal("corruption not detected")
	}
	if !storage.IsCorrupt(err) {
		t.Fatalf("corruption misclassified: %v (class %v)", err, storage.Classify(err))
	}
}

// The buffer-too-small condition is a typed sentinel so LoadLatest-style
// callers can re-size and retry instead of surfacing a race to the user.
func TestReadLatestBufferTooSmallSentinel(t *testing.T) {
	c, _, _ := retryEngine(t, Config{Concurrent: 1, SlotBytes: 4096})
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 3000))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadLatest(make([]byte, 10)); !errors.Is(err, ErrBufferTooSmall) {
		t.Fatalf("err = %v, want ErrBufferTooSmall", err)
	}
}
