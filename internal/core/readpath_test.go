package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"pccheck/internal/storage"
)

// readCounter logs every ReadAt that reaches the device under it.
type readCounter struct {
	storage.Device
	mu    sync.Mutex
	reads [][2]int64 // offset, length
}

func (d *readCounter) ReadAt(p []byte, off int64) error {
	d.mu.Lock()
	d.reads = append(d.reads, [2]int64{off, int64(len(p))})
	d.mu.Unlock()
	return d.Device.ReadAt(p, off)
}

// tally splits the logged reads by what they touched: whole slot headers,
// bytes of slot payloads, and bytes overall.
func (d *readCounter) tally(sb superblock) (headers int, payloadBytes, total int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range d.reads {
		total += r[1]
		for slot := 0; slot < sb.slots; slot++ {
			switch base := slotBase(sb, slot); {
			case r[0] == base && r[1] == slotHeaderSize:
				headers++
			case r[0] >= base+slotHeaderSize && r[0] < base+slotHeaderSize+sb.slotBytes:
				payloadBytes += r[1]
			}
		}
	}
	return headers, payloadBytes, total
}

// publishedSlot is where dev's newest record says the newest checkpoint is.
func publishedSlot(t *testing.T, dev storage.Device) (superblock, checkMeta) {
	t.Helper()
	sb, chain, _, err := newest(dev)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return sb, chain[len(chain)-1]
}

// flipByte damages one stored byte behind everyone's back.
func flipByte(t *testing.T, dev storage.Device, off int64) {
	t.Helper()
	b := make([]byte, 1)
	if err := dev.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if err := dev.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSkipsUnreadableRecord: a latent sector error on one 28-byte
// pointer record must not hide the checkpoint the other location names, and
// when no location can be read the read error — not "no checkpoint" — is
// what the caller gets.
func TestRecoverSkipsUnreadableRecord(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 1024, VerifyPayload: true}
	fd := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	c, err := New(fd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 1; i <= 2; i++ { // records alternate A, B: the newest sits in B
		want = payload(int64(i), 700)
		if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	fd.PoisonRead(recordAOff, recordSize)
	got, ctr, err := Recover(fd)
	if err != nil || ctr != 2 || !bytes.Equal(got, want) {
		t.Fatalf("Recover with record A unreadable: counter %d, err %v; want checkpoint 2 from record B", ctr, err)
	}
	if c2, err := Open(fd, cfg); err != nil {
		t.Fatalf("Open with record A unreadable: %v", err)
	} else if ctr, _, ok := c2.Latest(); !ok || ctr != 2 {
		t.Fatalf("Open resumed at %d (ok=%v), want 2", ctr, ok)
	} else {
		c2.Close()
	}

	fd.PoisonRead(recordBOff, recordSize)
	_, _, err = Recover(fd)
	if err == nil || errors.Is(err, ErrNoCheckpoint) || storage.Classify(err) != storage.ClassPermanent {
		t.Fatalf("Recover with both records unreadable: %v; want the classified read error", err)
	}
	if _, err := Open(fd, cfg); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Open with both records unreadable: %v; must not take the device for empty", err)
	}
}

// TestRecoveryIteratorRejectsCorruptPayload: the iterator is a read path
// like any other and must not deliver a payload Recover would reject. The
// damage sits in the first chunk, so the resumed case also proves that the
// prefix an earlier restore delivered is folded again.
func TestRecoveryIteratorRejectsCorruptPayload(t *testing.T) {
	for _, resumeAfter := range []int{0, 3} {
		dev, _ := iteratorFixture(t, 10_000)
		buf := make([]byte, 1024)
		if resumeAfter > 0 {
			it, err := NewRecoveryIterator(dev, 1024, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < resumeAfter; i++ {
				if _, err := it.Next(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		sb, m := publishedSlot(t, dev)
		flipByte(t, dev, payloadBase(sb, m.slot)+17)
		if _, _, err := Recover(dev); !storage.IsCorrupt(err) {
			t.Fatalf("Recover of the damaged image: %v, want corrupt", err)
		}

		it, err := NewRecoveryIterator(dev, 1024, 0)
		if err != nil {
			t.Fatal(err)
		}
		if it.Position() != int64(resumeAfter)*1024 {
			t.Fatalf("resumed at %d, want %d", it.Position(), resumeAfter*1024)
		}
		var last error
		for i := 0; !it.Done() && last == nil; i++ {
			if i > 20 {
				t.Fatal("iterator never finished")
			}
			_, last = it.Next(buf)
		}
		if !storage.IsCorrupt(last) {
			t.Fatalf("resumeAfter=%d: iterator streamed the damaged payload to completion (last err %v)", resumeAfter, last)
		}
		if it.Done() {
			t.Fatalf("resumeAfter=%d: iterator reports a completed restore", resumeAfter)
		}
		if _, err := it.Next(buf); !storage.IsCorrupt(err) {
			t.Fatalf("resumeAfter=%d: Next after the verdict: %v, want corrupt again", resumeAfter, err)
		}
	}
}

// TestRecoverTieredReadsOnlyTheWinner: every level is resolved from its
// records and slot headers, and only the level that wins has its payload
// read — once. When that payload turns out damaged the next-best level is
// served instead.
func TestRecoverTieredReadsOnlyTheWinner(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 1 << 20, VerifyPayload: true}
	const size = 600 << 10 // several pieces
	mkdev := func(saves int) (*readCounter, []byte) {
		dev := storage.NewRAM(DeviceBytesFor(cfg))
		c, err := New(dev, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var last []byte
		for i := 0; i < saves; i++ {
			last = payload(int64(saves*100+i), size)
			if _, err := c.Checkpoint(context.Background(), BytesSource(last)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return &readCounter{Device: dev}, last
	}
	older, olderWant := mkdev(3)
	newer, newerWant := mkdev(5)
	sb, winner := publishedSlot(t, newer.Device)

	p, ctr, err := RecoverTiered(older, newer)
	if err != nil || ctr != 5 || !bytes.Equal(p, newerWant) {
		t.Fatalf("RecoverTiered: counter %d, err %v", ctr, err)
	}
	_, payloadBytes, total := older.tally(sb)
	if limit := int64(slotHeaderSize*sb.slots + 2*recordSize + 64); payloadBytes != 0 || total >= limit {
		t.Errorf("losing level: %d payload bytes and %d bytes in all read, want 0 and < %d", payloadBytes, total, limit)
	}
	if _, payloadBytes, _ := newer.tally(sb); payloadBytes != size {
		t.Errorf("winning level: %d payload bytes read, want %d (once)", payloadBytes, size)
	}

	flipByte(t, newer.Device, payloadBase(sb, winner.slot)+size/2)
	p, ctr, err = RecoverTiered(older, newer)
	if err != nil || ctr != 3 || !bytes.Equal(p, olderWant) {
		t.Fatalf("RecoverTiered with the winner's payload damaged: counter %d, err %v; want 3 from the next-best level", ctr, err)
	}
	if _, _, err := RecoverTiered(newer); !storage.IsCorrupt(err) {
		t.Fatalf("RecoverTiered over the damaged level alone: %v, want corrupt", err)
	}
}

// TestDeltaOpenWalksChainOnce: the chain resolve validated is the chain Open
// pins and Recover streams. With K=8 and a full chain the parent re-walked
// it link by link, slot by slot, twice per call (73 header reads per Open,
// 82 per Recover on this image).
func TestDeltaOpenWalksChainOnce(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 8192, DeltaEvery: 1, DeltaKeyframe: 8, VerifyPayload: true}
	c, dev := deltaEngine(t, cfg)
	p := sparsePayload(8, 0, 6000)
	for i := 0; i <= 8; i++ { // keyframe + 8 deltas
		if i > 0 {
			mutateSparse(p, 8, uint64(i))
		}
		if _, err := c.Checkpoint(context.Background(), BytesSource(p)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.PinnedSlots(); n != 9 {
		t.Fatalf("chain of %d links, want 9", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sb, _ := publishedSlot(t, dev)

	rc := &readCounter{Device: dev}
	c2, err := Open(rc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := c2.PinnedSlots(); n != 9 {
		t.Fatalf("reattached to %d links, want 9", n)
	}
	if headers, _, _ := rc.tally(sb); headers > sb.slots+1 {
		t.Errorf("Open read %d slot headers, want at most the tip plus one scan of %d slots", headers, sb.slots)
	}

	rc = &readCounter{Device: dev}
	got, _, err := Recover(rc)
	if err != nil || !bytes.Equal(got, p) {
		t.Fatalf("Recover: %v", err)
	}
	if headers, _, _ := rc.tally(sb); headers > sb.slots+1+9 {
		t.Errorf("Recover read %d slot headers, want at most one resolve (%d) plus one per link streamed (9)", headers, sb.slots+1)
	}
}

// TestScrubSweepAllocs closes the regression PR 14 opened: a sweep verifies
// through the scrubber's one scratch piece, so what it allocates does not
// grow with the payload. Measured after a warm-up sweep, on a single full
// mode device, a full delta chain, and a two-tier device.
func TestScrubSweepAllocs(t *testing.T) {
	const slotBytes = 4 << 20
	ctx := context.Background()
	save := func(c *Checkpointer, n int, p []byte) {
		t.Helper()
		for i := 0; i < n; i++ {
			mutateSparse(p, 5, uint64(i+1))
			if _, err := c.Checkpoint(ctx, BytesSource(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	layouts := map[string]func() *Checkpointer{
		"full": func() *Checkpointer {
			c := ramEngine(t, Config{Concurrent: 2, SlotBytes: slotBytes, ChunkBytes: 1 << 20, VerifyPayload: true})
			save(c, 3, sparsePayload(5, 0, slotBytes))
			return c
		},
		"delta chain": func() *Checkpointer {
			c, _ := deltaEngine(t, Config{Concurrent: 1, SlotBytes: slotBytes, ChunkBytes: 1 << 20, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 4})
			save(c, 5, sparsePayload(5, 0, slotBytes))
			if n := c.PinnedSlots(); n != 5 {
				t.Fatalf("chain of %d links, want a full one of 5", n)
			}
			return c
		},
		"two tiers": func() *Checkpointer {
			cfg := Config{Concurrent: 2, SlotBytes: slotBytes, ChunkBytes: 1 << 20, VerifyPayload: true}
			c, td, _ := tieredEngine(t, cfg, []storage.Device{storage.NewRAM(DeviceBytesFor(cfg))})
			t.Cleanup(func() { td.Close() })
			save(c, 3, sparsePayload(5, 0, slotBytes))
			if !td.WaitDrained(10 * time.Second) {
				t.Fatal("tiers did not converge")
			}
			return c
		},
	}
	for name, build := range layouts {
		c := build()
		sweep := func() {
			if found, _, err := c.ScrubNow(); err != nil || found != 0 {
				t.Fatalf("%s: ScrubNow found %d, err %v", name, found, err)
			}
		}
		sweep()
		const sweeps = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < sweeps; i++ {
			sweep()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / sweeps; per > slotBytes/100 {
			t.Errorf("%s: a sweep allocates %d bytes, want at most 1%% of SlotBytes (%d)", name, per, slotBytes/100)
		}
		if st := c.ScrubStatus(); st.BytesVerified < (sweeps+1)*slotBytes {
			t.Errorf("%s: %d bytes verified over %d sweeps: the payloads were not read", name, st.BytesVerified, sweeps+1)
		}
		c.Close()
	}
}

// badHeaders are the ways a tip's slot header (or the record naming it) can
// be wrong, each with the verdict every read path must reach.
var badHeaders = []struct {
	name string
	ok   bool
	// recordOnly: the fault is in the pointer records, so only the entry
	// points that start from them can see it; by-counter reads and the live
	// engine (whose pointer is in memory) serve the intact slot.
	recordOnly bool
	forge      func(h *slotHeader, rec *checkMeta, sb superblock)
	tear       func(hdr []byte)
}{
	{name: "honest", ok: true},
	{name: "wrong counter", forge: func(h *slotHeader, _ *checkMeta, _ superblock) { h.counter += 5 }},
	{name: "wrong size", forge: func(h *slotHeader, _ *checkMeta, _ superblock) { h.size-- }},
	{name: "stale epoch", forge: func(h *slotHeader, _ *checkMeta, _ superblock) { h.epoch++ }},
	{name: "quarantined", forge: func(h *slotHeader, _ *checkMeta, _ superblock) { h.flags |= slotFlagQuarantined }},
	{name: "bad CRC", tear: func(hdr []byte) { hdr[61] ^= 1 }},
	{name: "unknown kind", forge: func(h *slotHeader, _ *checkMeta, _ superblock) { h.kind = 7 }},
	{name: "slot index out of range", recordOnly: true, forge: func(_ *slotHeader, rec *checkMeta, sb superblock) { rec.slot = sb.slots }},
	{name: "size > slotBytes", forge: func(h *slotHeader, rec *checkMeta, sb superblock) { h.size, rec.size = sb.slotBytes+1, sb.slotBytes+1 }},
	{name: "torn header", tear: func(hdr []byte) { clear(hdr[:32]) }},
}

// TestReadPathsAgreeOnBadHeaders feeds the same bad slot headers to every
// way of reading a committed checkpoint and checks that they agree on what
// is servable — the agreement the single validator (slotHeld) buys. The
// newest of two checkpoints is damaged, in full mode and as a delta tip; an
// entry point "accepts" when it serves that checkpoint intact. The engine
// stays live while the header is forged beneath it, so the live readers and
// the scrubber judge the device, not their memory. ScrubNow's verdict is
// whether the slot survives the sweep un-tombstoned: with no second tier to
// repair from, whatever it rejects it quarantines.
func TestReadPathsAgreeOnBadHeaders(t *testing.T) {
	for _, delta := range []bool{false, true} {
		for _, tc := range badHeaders {
			cfg := Config{Concurrent: 1, SlotBytes: 8192, VerifyPayload: true}
			if delta {
				cfg.DeltaEvery, cfg.DeltaKeyframe = 1, 4
			}
			c, dev := deltaEngine(t, cfg)
			want := sparsePayload(3, 0, 6000)
			for i := 0; i < 2; i++ {
				mutateSparse(want, 3, uint64(i+1))
				if _, err := c.Checkpoint(context.Background(), BytesSource(want)); err != nil {
					t.Fatal(err)
				}
			}
			sb, m := publishedSlot(t, dev)
			if m.counter != 2 || (m.kind == slotKindDelta) != delta {
				t.Fatalf("fixture: tip %+v", m)
			}

			// Forge the tip's header, and both records when the case needs
			// them to agree with it (or to be the fault).
			hb := make([]byte, slotHeaderSize)
			if err := dev.ReadAt(hb, slotBase(sb, m.slot)); err != nil {
				t.Fatal(err)
			}
			hdr, _ := decodeSlotHeader(hb)
			rec := checkMeta{slot: m.slot, counter: m.counter, size: m.size}
			if tc.forge != nil {
				tc.forge(&hdr, &rec, sb)
				hb = encodeSlotHeader(hdr)
			}
			if tc.tear != nil {
				tc.tear(hb)
			}
			if err := dev.WriteAt(hb, slotBase(sb, m.slot)); err != nil {
				t.Fatal(err)
			}
			if rec != (checkMeta{slot: m.slot, counter: m.counter, size: m.size}) {
				if err := dev.WriteAt(encodeRecord(rec), recordBOff); err != nil { // the second save's record
					t.Fatal(err)
				}
			}

			served := func(p []byte, ctr uint64, err error) bool {
				return err == nil && ctr == 2 && bytes.Equal(p, want)
			}
			buf := make([]byte, len(want))
			verdict := map[string]bool{}
			ctr, n, err := c.ReadLatest(buf)
			verdict["ReadLatest"] = served(buf[:n], ctr, err)
			p, err := c.ReadVersion(2)
			verdict["ReadVersion"] = served(p, 2, err)
			p, ctr, err = Recover(dev)
			verdict["Recover"] = served(p, ctr, err)
			p, err = RecoverVersion(dev, 2)
			verdict["RecoverVersion"] = served(p, 2, err)
			verdict["iterator"] = func() bool {
				it, err := NewRecoveryIterator(dev, 1024, 0)
				if err != nil || it.Counter() != 2 {
					return false
				}
				var got []byte
				for !it.Done() {
					n, err := it.Next(buf)
					if err != nil {
						return false
					}
					got = append(got, buf[:n]...)
				}
				return it.ClearCursor() == nil && bytes.Equal(got, want)
			}()
			rep, err := Inspect(dev, true)
			verdict["Inspect"] = err == nil && rep.Recoverable && rep.Latest.Counter == 2 &&
				rep.SlotInfos[m.slot].PayloadOK != nil && *rep.SlotInfos[m.slot].PayloadOK
			if _, _, err := c.ScrubNow(); err != nil {
				t.Fatal(err)
			}
			rep, err = Inspect(dev, false)
			verdict["ScrubNow"] = err == nil && !rep.SlotInfos[m.slot].Quarantined

			for entry, got := range verdict {
				wantOK := tc.ok
				if tc.recordOnly {
					wantOK = entry != "Recover" && entry != "iterator" && entry != "Inspect"
				}
				if got != wantOK {
					t.Errorf("delta=%v, %s: %s accepted=%v, want %v", delta, tc.name, entry, got, wantOK)
				}
			}
			c.Close()
		}
	}
}
