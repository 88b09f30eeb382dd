package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pccheck/internal/storage"
)

// Injected device failures must surface as errors, never corrupt the
// engine's bookkeeping, and never compromise an already-published
// checkpoint.

func faultEngine(t *testing.T, cfg Config) (*Checkpointer, *storage.FaultDevice) {
	t.Helper()
	dev := storage.NewFaultDevice(storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes)))
	c, err := New(dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, dev
}

func TestWriteFaultDuringPayload(t *testing.T) {
	c, dev := faultEngine(t, Config{Concurrent: 2, SlotBytes: 4096, Writers: 2, ChunkBytes: 1024, VerifyPayload: true})
	good := payload(1, 3000)
	if _, err := c.Checkpoint(context.Background(), BytesSource(good)); err != nil {
		t.Fatal(err)
	}

	dev.FailAfter(storage.OpWrite, 2, nil) // fail mid-payload of the next checkpoint
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(2, 3000))); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// The published checkpoint is untouched…
	got := make([]byte, 3000)
	counter, _, err := c.ReadLatest(got)
	if err != nil || counter != 1 {
		t.Fatalf("latest after fault: %d, %v", counter, err)
	}
	if !bytes.Equal(got, good) {
		t.Fatal("published payload corrupted by failed checkpoint")
	}
	// …and the slot was recycled: new checkpoints work.
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(3, 3000))); err != nil {
		t.Fatalf("post-fault checkpoint: %v", err)
	}
	if free := c.FreeSlots(); free != c.sb.slots-1 {
		t.Fatalf("slot leaked after fault: free = %d", free)
	}
}

func TestSyncFaultDuringPayload(t *testing.T) {
	c, dev := faultEngine(t, Config{Concurrent: 1, SlotBytes: 2048, Writers: 1})
	dev.FailAfter(storage.OpSync, 1, nil)
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 1500))); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// Recoverable afterwards.
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(2, 1500))); err != nil {
		t.Fatal(err)
	}
}

func TestPersistFaultOnSlotHeader(t *testing.T) {
	c, dev := faultEngine(t, Config{Concurrent: 1, SlotBytes: 1024})
	// First Persist call inside Checkpoint is the slot header.
	dev.FailAfter(storage.OpPersist, 1, nil)
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 512))); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	if _, _, ok := c.Latest(); ok {
		t.Fatal("failed checkpoint got published")
	}
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(2, 512))); err != nil {
		t.Fatal(err)
	}
}

func TestTornSlotWriteNotRecovered(t *testing.T) {
	// A checkpoint whose payload write tears must fail; recovery from the
	// device must return the previous checkpoint.
	ram := storage.NewRAM(DeviceBytes(1, 4096))
	dev := storage.NewFaultDevice(ram)
	c, err := New(dev, Config{Concurrent: 1, SlotBytes: 4096, VerifyPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	first := payload(7, 4000)
	if _, err := c.Checkpoint(context.Background(), BytesSource(first)); err != nil {
		t.Fatal(err)
	}
	dev.TearNextWrite(0.4)
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(8, 4000))); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	got, counter, err := Recover(ram)
	if err != nil {
		t.Fatal(err)
	}
	if counter != 1 || !bytes.Equal(got, first) {
		t.Fatalf("recovered %d after torn write", counter)
	}
}

func TestReadFaultSurfacesInReadLatest(t *testing.T) {
	c, dev := faultEngine(t, Config{Concurrent: 1, SlotBytes: 1024})
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, 512))); err != nil {
		t.Fatal(err)
	}
	dev.FailAfter(storage.OpRead, 1, nil)
	if _, _, err := c.ReadLatest(make([]byte, 512)); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// Transient: a later read succeeds.
	if _, _, err := c.ReadLatest(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
}

func TestFormatFaultFailsNew(t *testing.T) {
	dev := storage.NewFaultDevice(storage.NewRAM(DeviceBytes(1, 1024)))
	dev.FailAfter(storage.OpPersist, 1, nil)
	if _, err := New(dev, Config{Concurrent: 1, SlotBytes: 1024}); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v", err)
	}
}

// Faults interleaved with concurrent checkpoints: the engine keeps its
// invariants — every acknowledged checkpoint readable, slots conserved.
func TestConcurrentCheckpointsWithSporadicFaults(t *testing.T) {
	c, dev := faultEngine(t, Config{Concurrent: 3, SlotBytes: 2048, Writers: 2, ChunkBytes: 512, VerifyPayload: true})
	ok, failed := 0, 0
	for i := 0; i < 60; i++ {
		if i%7 == 3 {
			dev.FailAfter(storage.OpWrite, int64(1+i%3), nil)
		}
		_, err := c.Checkpoint(context.Background(), BytesSource(payload(int64(i), 1024+i)))
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("round %d: unexpected error %v", i, err)
			}
			failed++
			dev.Clear()
			continue
		}
		ok++
		// Every acknowledged checkpoint must be immediately readable.
		buf := make([]byte, 2048)
		if _, _, err := c.ReadLatest(buf); err != nil {
			t.Fatalf("round %d: latest unreadable: %v", i, err)
		}
	}
	if ok == 0 || failed == 0 {
		t.Fatalf("test degenerate: ok=%d failed=%d", ok, failed)
	}
	if free := c.FreeSlots(); free != c.sb.slots-1 {
		t.Fatalf("slots leaked: free = %d, want %d", free, c.sb.slots-1)
	}
}
