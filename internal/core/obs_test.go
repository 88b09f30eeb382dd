package core

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/obs/decision"
	"pccheck/internal/storage"
)

func newObservedEngine(t *testing.T, rec *obs.Recorder) *Checkpointer {
	t.Helper()
	cfg := Config{
		Concurrent: 2,
		SlotBytes:  4096,
		Writers:    2,
		ChunkBytes: 1024,
		Observer:   rec,
	}
	dev := storage.NewRAM(DeviceBytes(cfg.Concurrent, cfg.SlotBytes))
	ck, err := New(dev, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ck
}

// stagedSource hides a payload's memory behind ReadInto, as a source the
// engine cannot address (accelerator memory, SaveFrom) does: saves from it
// take the staged path through the chunk pool, where BytesSource saves are
// persisted in place.
type stagedSource struct{ Source }

func staged(p []byte) Source { return stagedSource{BytesSource(p)} }

// TestObservedCheckpointEvents drives a few saves through an instrumented
// engine and checks the flight recorder saw the full phase pipeline: with
// chunk-wait and copy spans per piece for a staged source, with neither for
// a payload persisted from where it lies.
func TestObservedCheckpointEvents(t *testing.T) {
	for _, tc := range []struct {
		name   string
		source func([]byte) Source
		staged uint64 // copy and chunk-wait spans expected
	}{
		// 3000-byte payload through 1024-byte chunks = 3 pieces per save.
		{"staged", staged, 15},
		{"view", BytesSource, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.DefaultCapacity)
			ck := newObservedEngine(t, rec)
			defer ck.Close()

			payload := make([]byte, 3000)
			for i := range payload {
				payload[i] = byte(i)
			}
			for i := 0; i < 5; i++ {
				if _, err := ck.Checkpoint(context.Background(), tc.source(payload)); err != nil {
					t.Fatalf("Checkpoint %d: %v", i, err)
				}
			}

			snap := rec.Snapshot()
			if snap.Published == 0 {
				t.Fatalf("recorder saw no published checkpoints: %+v", snap)
			}
			if got := snap.Phase(obs.PhaseSave).Count; got != 5 {
				t.Errorf("save span count = %d, want 5", got)
			}
			if snap.Phase(obs.PhaseSlotWait).Count != 5 {
				t.Errorf("slot-wait span count = %d, want 5 (one per save)", snap.Phase(obs.PhaseSlotWait).Count)
			}
			if got := snap.Phase(obs.PhaseCopy).Count; got != tc.staged {
				t.Errorf("copy span count = %d, want %d", got, tc.staged)
			}
			if got := snap.Phase(obs.PhaseChunkWait).Count; got != tc.staged {
				t.Errorf("chunk-wait span count = %d, want %d", got, tc.staged)
			}
			if snap.Phase(obs.PhasePersist).Count != 15 {
				t.Errorf("persist span count = %d, want 15", snap.Phase(obs.PhasePersist).Count)
			}
			if snap.Phase(obs.PhaseBarrier).Count == 0 {
				t.Error("no barrier spans recorded")
			}
			if snap.Phase(obs.PhaseHeader).Count != 5 {
				t.Errorf("header span count = %d, want 5", snap.Phase(obs.PhaseHeader).Count)
			}

			events := rec.TakeEvents()
			var persistBytes int64
			for _, ev := range events {
				if ev.Phase == obs.PhasePersist {
					persistBytes += ev.Bytes
					if ev.Writer < 0 {
						t.Errorf("persist event missing writer index: %+v", ev)
					}
				}
			}
			if persistBytes != 5*3000 {
				t.Errorf("persist spans cover %d bytes, want %d", persistBytes, 5*3000)
			}
		})
	}
}

// TestObservedTraceExport checks the end-to-end path from engine events to
// parseable Chrome trace JSON with the expected span names.
func TestObservedTraceExport(t *testing.T) {
	rec := obs.NewRecorder(obs.DefaultCapacity)
	ck := newObservedEngine(t, rec)
	defer ck.Close()

	// One save persisted in place, whose trace must show no staging, then
	// one staged save, which brings the copy spans.
	payload := make([]byte, 2048)
	if _, err := ck.Checkpoint(context.Background(), BytesSource(payload)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	var view strings.Builder
	if err := rec.WriteTrace(&view); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	for _, name := range []string{`"copy"`, `"chunk-wait"`} {
		if strings.Contains(view.String(), name) {
			t.Errorf("trace of an in-place save has %s events", name)
		}
	}
	if _, err := ck.Checkpoint(context.Background(), staged(payload)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	var sb strings.Builder
	if err := rec.WriteTrace(&sb); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	want := map[string]bool{
		"save": false, "slot-wait": false, "copy": false,
		"persist": false, "barrier": false, "publish": false,
	}
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace missing %q events", name)
		}
	}
}

// TestObservedConcurrentSaves hammers an instrumented engine from many
// goroutines while a reader drains the ring and scrapes snapshots — the
// race detector is the real assertion here.
func TestObservedConcurrentSaves(t *testing.T) {
	rec := obs.NewRecorder(1 << 10)
	ck := newObservedEngine(t, rec)
	defer ck.Close()

	const goroutines = 4
	const saves = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			payload := make([]byte, 2500)
			for i := range payload {
				payload[i] = seed + byte(i)
			}
			for i := 0; i < saves; i++ {
				if _, err := ck.Checkpoint(context.Background(), BytesSource(payload)); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
			}
		}(byte(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			rec.Snapshot()
			rec.TakeEvents()
		}
	}()
	wg.Wait()
	<-done

	snap := rec.Snapshot()
	if snap.Published+snap.Obsolete != goroutines*saves {
		t.Errorf("published %d + obsolete %d != %d total saves",
			snap.Published, snap.Obsolete, goroutines*saves)
	}
}

// TestNilObserverAddsNoAllocations is the zero-overhead-when-off regression
// gate, now a parity table: every observability attachment — recorder,
// recorder+ledger, the full chain with a black-box region formatted and a
// flusher attached — must not add heap allocations to Checkpoint relative
// to the nil-observer baseline. The black-box flusher only ever touches
// the ring from its own goroutine (manual-flush here so AllocsPerRun sees
// nothing of it); Emit stays branch + atomics into preallocated memory.
func TestNilObserverAddsNoAllocations(t *testing.T) {
	mk := func(o obs.Observer, bb blackbox.Config) *Checkpointer {
		cfg := Config{Concurrent: 1, SlotBytes: 1024, Writers: 1, Observer: o, BlackBox: bb}
		dev := storage.NewRAM(DeviceBytesFor(cfg))
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
		// Warm up chunk pool and slot cycling before measuring.
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

	off := mk(nil, blackbox.Config{})
	defer off.Close()
	baseline := run(off)

	cases := []struct {
		name     string
		observer func() obs.Observer
		bb       blackbox.Config
	}{
		{"recorder", func() obs.Observer { return obs.NewRecorder(1 << 12) }, blackbox.Config{}},
		{"recorder+ledger", func() obs.Observer {
			return obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05}, obs.NewRecorder(1<<12))
		}, blackbox.Config{}},
		{"recorder+ledger+blackbox", func() obs.Observer {
			return obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05},
				decision.New(decision.Config{}, obs.NewRecorder(1<<12)))
		}, blackbox.Config{
			Bytes:      blackbox.SectorBytes + 4*4096,
			FrameBytes: 4096,
			FlushEvery: -1, // manual: keep AllocsPerRun free of goroutine noise
		}},
	}
	for _, tc := range cases {
		ck := mk(tc.observer(), tc.bb)
		got := run(ck)
		if tc.bb.Enabled() && ck.BlackBox() == nil {
			t.Fatalf("%s: flusher did not attach", tc.name)
		}
		ck.Close()
		if got > baseline {
			t.Errorf("%s added allocations: %v vs %v baseline", tc.name, got, baseline)
		}
	}
}

// TestObservedDeltaSavePhases: in delta mode a staged save's PhaseCopy must
// time the real source reads (its Bytes sum to the payload size for every
// save, delta or keyframe) and a save persisted in place has no copy or
// chunk-wait spans at all; either way the persist spans sum to what was
// stored (less the record head, written apart), and each delta save emits
// exactly one PhaseDeltaEncode whose Bytes are the stored record length and
// Value the logical size.
func TestObservedDeltaSavePhases(t *testing.T) {
	for _, tc := range []struct {
		name   string
		source func([]byte) Source
	}{{"staged", staged}, {"view", BytesSource}} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder(obs.DefaultCapacity)
			cfg := Config{Concurrent: 1, SlotBytes: 8192, ChunkBytes: 1024, Writers: 2, DeltaKeyframe: 4, Observer: rec}
			ck, err := New(storage.NewRAM(DeviceBytesFor(cfg)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ck.Close()
			p := sparsePayload(8, 0, 6000)
			stored := map[uint64]int64{}  // counter → record length, delta saves only
			payload := map[uint64]int64{} // counter → bytes the writers were handed
			for i := 0; i < 6; i++ {
				if i > 0 {
					mutateSparse(p, 8, uint64(i))
				}
				ctr, err := ck.Checkpoint(context.Background(), tc.source(p))
				if err != nil {
					t.Fatal(err)
				}
				m := ck.checkAddr.Load()
				payload[ctr] = m.size
				if m.kind == slotKindDelta {
					stored[ctr] = m.size
					payload[ctr] -= int64(len(ck.pass.head))
				}
			}
			if len(stored) == 0 {
				t.Fatal("no delta saves")
			}
			copied := map[uint64]int64{}
			persisted := map[uint64]int64{}
			encodes := map[uint64]int{}
			for _, ev := range rec.TakeEvents() {
				switch ev.Phase {
				case obs.PhaseCopy:
					copied[ev.Counter] += ev.Bytes
				case obs.PhaseChunkWait:
					if tc.name == "view" {
						t.Errorf("save %d persisted in place has a chunk-wait span", ev.Counter)
					}
				case obs.PhasePersist:
					persisted[ev.Counter] += ev.Bytes
				case obs.PhaseDeltaEncode:
					encodes[ev.Counter]++
					if ev.Bytes != stored[ev.Counter] || ev.Value != int64(len(p)) || ev.Dur < 0 {
						t.Errorf("delta-encode event for save %d: bytes=%d (stored %d) value=%d (logical %d) dur=%d",
							ev.Counter, ev.Bytes, stored[ev.Counter], ev.Value, len(p), ev.Dur)
					}
				}
			}
			for ctr := uint64(1); ctr <= 6; ctr++ {
				want := int64(len(p))
				if tc.name == "view" {
					want = 0
				}
				if copied[ctr] != want {
					t.Errorf("save %d: copy spans cover %d bytes, want %d of the %d-byte payload", ctr, copied[ctr], want, len(p))
				}
				if persisted[ctr] != payload[ctr] {
					t.Errorf("save %d: persist spans cover %d bytes, want %d", ctr, persisted[ctr], payload[ctr])
				}
				if _, isDelta := stored[ctr]; (encodes[ctr] == 1) != isDelta || encodes[ctr] > 1 {
					t.Errorf("save %d: %d delta-encode events, delta=%v", ctr, encodes[ctr], isDelta)
				}
			}
		})
	}
}
