package blackbox

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"pccheck/internal/obs"
	"pccheck/internal/obs/decision"
	"pccheck/internal/storage"
)

func testLayout() Layout { return LayoutFor(SectorBytes+4*2048, 2048) }

func formatRAM(t *testing.T, l Layout, epoch uint64) storage.Device {
	t.Helper()
	dev := storage.NewRAM(l.RegionBytes())
	if err := Format(dev, 0, epoch, l); err != nil {
		t.Fatalf("Format: %v", err)
	}
	return dev
}

func evs(n int, base int64) []obs.Event {
	out := make([]obs.Event, n)
	for i := range out {
		out[i] = obs.Event{TS: base + int64(i), Phase: obs.PhasePublish, Counter: uint64(i + 1), Slot: -1, Writer: -1, Rank: -1}
	}
	return out
}

func TestLayoutFor(t *testing.T) {
	l := LayoutFor(1<<20, 0)
	if l.FrameBytes != 8<<10 {
		t.Fatalf("default frame bytes = %d, want 8192", l.FrameBytes)
	}
	if l.RegionBytes() > 1<<20 {
		t.Fatalf("layout %+v exceeds its budget", l)
	}
	if l = LayoutFor(0, 100); l.Slots < 2 || l.FrameBytes%SectorBytes != 0 {
		t.Fatalf("tiny budget layout %+v: want >=2 sector-aligned slots", l)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	l := testLayout()
	dev := formatRAM(t, l, 7)
	j, err := OpenJournal(dev, 0, l.RegionBytes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	report := json.RawMessage(`{"goodput_ratio":0.93}`)
	decisions := json.RawMessage(`[{"kind":"retune"}]`)
	seq, err := j.Append(Frame{TS: 1234, Events: evs(3, 100), Report: report, Decisions: decisions})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d, want 1", seq)
	}
	pm, err := Decode(dev, 0, l.RegionBytes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Frames) != 1 {
		t.Fatalf("decoded %d frames, want 1", len(pm.Frames))
	}
	f := pm.Frames[0]
	if f.Seq != 1 || f.TS != 1234 {
		t.Fatalf("frame header mismatch: %+v", f)
	}
	if len(f.Events) != 3 || f.Events[2].TS != 102 || f.Events[0].Phase != obs.PhasePublish {
		t.Fatalf("events did not round-trip: %+v", f.Events)
	}
	if !bytes.Equal(f.Report, report) || !bytes.Equal(f.Decisions, decisions) {
		t.Fatal("report/decisions did not round-trip")
	}
}

func TestTornFrameSkipped(t *testing.T) {
	l := testLayout()
	dev := formatRAM(t, l, 1)
	j, _ := OpenJournal(dev, 0, l.RegionBytes(), 1)
	for i := 0; i < 3; i++ {
		if _, err := j.Append(Frame{TS: int64(i), Events: evs(2, int64(i)*10)}); err != nil {
			t.Fatal(err)
		}
	}
	// Tear frame 2 (slot 1): flip a payload byte.
	off := SectorBytes + 1*l.FrameBytes + frameHeaderLen + 5
	b := []byte{0xFF}
	if err := dev.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	pm, err := Decode(dev, 0, l.RegionBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Frames) != 2 {
		t.Fatalf("decoded %d frames, want 2 (torn one skipped)", len(pm.Frames))
	}
	if pm.Frames[0].Seq != 1 || pm.Frames[1].Seq != 3 {
		t.Fatalf("surviving seqs = %d,%d, want 1,3", pm.Frames[0].Seq, pm.Frames[1].Seq)
	}
}

func TestReformatFencesStaleFrames(t *testing.T) {
	l := testLayout()
	dev := formatRAM(t, l, 1)
	j, _ := OpenJournal(dev, 0, l.RegionBytes(), 1)
	for i := 0; i < 3; i++ {
		if _, err := j.Append(Frame{Events: evs(1, int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Reformat under a new epoch WITHOUT zeroing the frame slots — the
	// old frames are intact on-device but must not be resurrected.
	if err := Format(dev, 0, 2, l); err != nil {
		t.Fatal(err)
	}
	pm, err := Decode(dev, 0, l.RegionBytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Frames) != 0 {
		t.Fatalf("reformat resurrected %d stale frames", len(pm.Frames))
	}
	// And the journal resumes from scratch under the new epoch.
	j2, err := OpenJournal(dev, 0, l.RegionBytes(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := j2.Append(Frame{Events: evs(1, 0)}); err != nil || seq != 1 {
		t.Fatalf("post-reformat append = (%d, %v), want (1, nil)", seq, err)
	}
}

func TestWraparoundKeepsNewest(t *testing.T) {
	l := testLayout() // 4 slots
	dev := formatRAM(t, l, 1)
	j, _ := OpenJournal(dev, 0, l.RegionBytes(), 1)
	for i := 0; i < 10; i++ {
		if _, err := j.Append(Frame{TS: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pm, err := Decode(dev, 0, l.RegionBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Frames) != l.Slots {
		t.Fatalf("decoded %d frames, want %d", len(pm.Frames), l.Slots)
	}
	for i, f := range pm.Frames {
		if want := uint64(7 + i); f.Seq != want {
			t.Fatalf("frame %d seq = %d, want %d (newest window)", i, f.Seq, want)
		}
	}
}

func TestOversizedPayloadTrimsToNewestEvents(t *testing.T) {
	l := testLayout() // 2 KiB frames: ~32 events max
	dev := formatRAM(t, l, 1)
	j, _ := OpenJournal(dev, 0, l.RegionBytes(), 1)
	if _, err := j.Append(Frame{Events: evs(200, 0)}); err != nil {
		t.Fatal(err)
	}
	pm, err := Decode(dev, 0, l.RegionBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := pm.Frames[0].Events
	if len(got) == 0 || len(got) >= 200 {
		t.Fatalf("trim kept %d events, want a proper tail", len(got))
	}
	if got[len(got)-1].TS != 199 {
		t.Fatalf("trim dropped the newest event: tail ends at TS %d, want 199", got[len(got)-1].TS)
	}
}

func TestDecodeRejectsBadHeaders(t *testing.T) {
	l := testLayout()
	dev := formatRAM(t, l, 1)
	if _, err := Decode(dev, 0, l.RegionBytes(), 2); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("epoch mismatch not rejected: %v", err)
	}
	if _, err := Decode(dev, 0, l.RegionBytes()+SectorBytes, 1); err == nil {
		t.Fatal("superblock/header size mismatch not rejected")
	}
	zero := storage.NewRAM(l.RegionBytes())
	if _, err := Decode(zero, 0, l.RegionBytes(), 1); err == nil {
		t.Fatal("unformatted region not rejected")
	}
}

func TestFlusherSnapshotsChain(t *testing.T) {
	rec := obs.NewRecorder(256)
	dec := decision.New(decision.Config{}, rec)
	led := obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05}, dec)

	l := testLayout()
	dev := formatRAM(t, l, 3)
	j, err := OpenJournal(dev, 0, l.RegionBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := NewFlusher(j, led, Config{FlushEvery: -1, EventTail: 8, DecisionTail: 4})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 20; i++ {
		led.Emit(obs.Event{TS: int64(i), Phase: obs.PhasePublish, Counter: uint64(i + 1), Bytes: 100, Slot: -1, Writer: -1, Rank: -1})
	}
	seq, err := fl.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 || fl.LastSeq() != 1 {
		t.Fatalf("flush seq = %d lastSeq = %d, want 1/1", seq, fl.LastSeq())
	}

	pm, err := Decode(dev, 0, l.RegionBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	f := pm.Newest()
	if len(f.Events) != 8 {
		t.Fatalf("frame captured %d events, want the 8-event tail", len(f.Events))
	}
	if f.Events[7].Counter != 20 {
		t.Fatalf("tail ends at counter %d, want 20 (newest kept)", f.Events[7].Counter)
	}
	if len(f.Report) == 0 {
		t.Fatal("ledger report missing from frame")
	}
	if rep, ok := pm.LastReport(); !ok || rep.Published != 20 {
		t.Fatalf("report did not round-trip: %+v ok=%v", rep, ok)
	}

	// The snapshot was non-destructive: the ring still holds the events.
	if n := len(rec.SnapshotEvents()); n != 20 {
		t.Fatalf("flusher consumed ring events: %d left, want 20", n)
	}

	var mbuf bytes.Buffer
	fl.WriteMetrics(&mbuf)
	for _, fam := range []string{
		"pccheck_blackbox_flushes_total 1",
		"pccheck_blackbox_flush_errors_total 0",
		"pccheck_blackbox_last_seq 1",
		"pccheck_blackbox_events_snapshotted_total 8",
		"pccheck_blackbox_flushed_bytes_total",
	} {
		if !strings.Contains(mbuf.String(), fam) {
			t.Fatalf("metrics missing %q:\n%s", fam, mbuf.String())
		}
	}

	fl.Stop() // final frame
	if fl.LastSeq() != 2 {
		t.Fatalf("Stop did not write the final frame: last seq %d", fl.LastSeq())
	}
	fl.Stop() // idempotent
	if fl.LastSeq() != 2 {
		t.Fatal("second Stop wrote another frame")
	}
}

func TestFlusherRequiresRecorder(t *testing.T) {
	l := testLayout()
	dev := formatRAM(t, l, 1)
	j, _ := OpenJournal(dev, 0, l.RegionBytes(), 1)
	if _, err := NewFlusher(j, nil, Config{}); err == nil {
		t.Fatal("flusher accepted a chain without a flight recorder")
	}
}

// TestFlushAllocsIndependentOfRingDepth: a flush copies only the event tail
// a frame keeps, so a flush over 10 000 buffered events allocates no more
// than one over 100 — not a copy of the whole flight ring each time.
func TestFlushAllocsIndependentOfRingDepth(t *testing.T) {
	perFlush := func(buffered int) uint64 {
		rec := obs.NewRecorder(obs.DefaultCapacity)
		for i := 0; i < buffered; i++ {
			rec.Emit(obs.Event{TS: int64(i), Phase: obs.PhasePublish, Counter: uint64(i + 1), Slot: -1, Writer: -1, Rank: -1})
		}
		l := testLayout()
		j, err := OpenJournal(formatRAM(t, l, 1), 0, l.RegionBytes(), 1)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := NewFlusher(j, rec, Config{FlushEvery: -1, EventTail: 16})
		if err != nil {
			t.Fatal(err)
		}
		const flushes = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < flushes; i++ {
			if _, err := fl.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / flushes
	}
	shallow, deep := perFlush(100), perFlush(10000)
	if deep > shallow+shallow/4 {
		t.Fatalf("a flush over 10000 buffered events allocates %d bytes, over 100 events %d", deep, shallow)
	}
}

func TestFlusherRetriesTransientFaults(t *testing.T) {
	l := testLayout()
	ram := storage.NewRAM(l.RegionBytes())
	if err := Format(ram, 0, 1, l); err != nil {
		t.Fatal(err)
	}
	// Fault device: the next persist fails transiently, then clears.
	fd := storage.NewFaultDevice(ram)
	j, err := OpenJournal(fd, 0, l.RegionBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	fd.SetSchedule(storage.OpPersist, storage.Schedule{After: 1, Count: 1, Err: storage.ErrInjectedTransient})
	rec := obs.NewRecorder(64)
	fl, err := NewFlusher(j, rec, Config{FlushEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Flush(); err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
}
