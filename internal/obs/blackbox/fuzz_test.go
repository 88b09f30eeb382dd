package blackbox

import (
	"encoding/json"
	"testing"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// FuzzBlackBoxDecode feeds arbitrary bytes to the region decoder. The
// contract under fuzz: never panic, and every frame that survives
// decoding is internally valid — positive strictly-increasing sequence
// numbers and a payload whose sections parsed cleanly. A corrupted
// region may decode to nothing (that is the torn-write story), but it
// must never decode to garbage.
func FuzzBlackBoxDecode(f *testing.F) {
	// Seed 1: a valid region with a few frames, so the fuzzer starts from
	// coverage of the happy path and mutates toward near-valid corruption.
	l := Layout{FrameBytes: 1024, Slots: 3}
	dev := storage.NewRAM(l.RegionBytes())
	if err := Format(dev, 0, 9, l); err != nil {
		f.Fatal(err)
	}
	j, err := OpenJournal(dev, 0, l.RegionBytes(), 9)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		_, err := j.Append(Frame{
			TS:     int64(1000 + i),
			Events: []obs.Event{{TS: int64(i), Phase: obs.PhasePublish, Counter: uint64(i + 1), Slot: -1, Writer: -1, Rank: -1}},
			Report: json.RawMessage(`{"published":1}`),
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	valid := make([]byte, l.RegionBytes())
	if err := dev.ReadAt(valid, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(9))
	f.Add(make([]byte, SectorBytes), uint64(0))
	f.Add([]byte{}, uint64(1))

	f.Fuzz(func(t *testing.T, raw []byte, epoch uint64) {
		// Size the region to whatever the input claims by padding to a
		// sector multiple; Decode must cope with any geometry the header
		// asserts versus what the device actually holds.
		size := int64(len(raw))
		if rem := size % SectorBytes; rem != 0 {
			size += SectorBytes - rem
		}
		if size < SectorBytes {
			size = SectorBytes
		}
		buf := make([]byte, size)
		copy(buf, raw)
		pm, err := Decode(storage.NewRAMFromBytes(buf), 0, size, epoch)
		if err != nil {
			return // rejection is always a legal outcome
		}
		var prev uint64
		for _, fr := range pm.Frames {
			if fr.Seq == 0 {
				t.Fatalf("decoded frame with zero sequence: %+v", fr)
			}
			if fr.Seq <= prev {
				t.Fatalf("non-monotonic frames: %d after %d", fr.Seq, prev)
			}
			prev = fr.Seq
			for _, ev := range fr.Events {
				if ev.Phase >= obs.PhaseCount {
					t.Fatalf("frame %d decoded out-of-range phase %d", fr.Seq, ev.Phase)
				}
			}
		}
		// The accessors must tolerate whatever survived.
		pm.LastSeq()
		pm.Events()
		pm.LastReport()
	})
}

// FuzzFrameDecode hits the single-frame codec directly with arbitrary
// slot bytes — the tightest loop of the torn-write story.
func FuzzFrameDecode(f *testing.F) {
	l := Layout{FrameBytes: 1024, Slots: 2}
	buf := make([]byte, l.FrameBytes)
	fr := Frame{Seq: 1, TS: 5, Events: []obs.Event{{Phase: obs.PhaseSync, Slot: -1, Writer: -1, Rank: -1}}}
	encodeFrame(buf, 4, fr)
	f.Add(buf, uint64(4))
	f.Add(make([]byte, frameHeaderLen), uint64(0))

	f.Fuzz(func(t *testing.T, raw []byte, epoch uint64) {
		got, ok := decodeFrame(raw, epoch)
		if !ok {
			return
		}
		if got.Seq == 0 {
			t.Fatal("decodeFrame accepted a zero sequence")
		}
	})
}
