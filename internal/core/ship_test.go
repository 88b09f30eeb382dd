package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pccheck/internal/storage"
)

// flakyTier is a lower tier with a slow, interruptible write side: every
// write takes delay, and while down every mutation fails transiently. Reads
// always work, as on a device that has merely lost its uplink.
type flakyTier struct {
	storage.Device
	delay time.Duration
	down  atomic.Bool
}

var errTierDown = storage.Transient(errors.New("tier unreachable"))

func (d *flakyTier) WriteAt(p []byte, off int64) error {
	if d.down.Load() {
		return errTierDown
	}
	time.Sleep(d.delay)
	return d.Device.WriteAt(p, off)
}

func (d *flakyTier) Sync(off, n int64) error {
	if d.down.Load() {
		return errTierDown
	}
	return d.Device.Sync(off, n)
}

func (d *flakyTier) Persist(p []byte, off int64) error {
	if d.down.Load() {
		return errTierDown
	}
	return d.Device.Persist(p, off)
}

// TestLowerTierAlwaysRecoverable: from its first acknowledgement on, a lower
// tier recovers on its own at every instant — while it lags behind back to
// back saves, while the front recycles slot indices its durable record still
// names, across an outage and the heal that follows. An instant is a
// point-in-time image of the tier (storage.RAM copies itself out under its
// lock); each one must recover, to a counter no older than what the drainer
// had acknowledged before the image was taken, with an intact payload.
//
// This is the cause of the old ≈1 % TestRunTiersTeardown flake made
// deterministic: a drainer that rewrote the tier operation by operation left
// it unrecoverable whenever its record named a slot being replayed into.
func TestLowerTierAlwaysRecoverable(t *testing.T) {
	lowerTierRecoverable(t, func(ram *storage.RAM, img []byte) ([]byte, uint64, error) {
		if err := ram.ReadAt(img, 0); err != nil {
			return nil, 0, fmt.Errorf("image of tier 1: %w", err)
		}
		return Recover(storage.NewRAMFromBytes(img))
	})
}

// TestLowerTierLiveRecoverable is the same run with a cold Recover of the
// live tier itself in place of an image: a standby restoring from a tier the
// drainer is still shipping to. Its read can straddle a publish and find a
// slot recycled under it; that must cost a retry, never a failure.
func TestLowerTierLiveRecoverable(t *testing.T) {
	lowerTierRecoverable(t, func(ram *storage.RAM, _ []byte) ([]byte, uint64, error) { return Recover(ram) })
}

// lowerTierRecoverable drives the tier through back-to-back saves and an
// outage while a reader recovers it with recoverTier, again and again.
func lowerTierRecoverable(t *testing.T, recoverTier func(ram *storage.RAM, img []byte) ([]byte, uint64, error)) {
	cfg := Config{Concurrent: 2, SlotBytes: 32 << 10, VerifyPayload: true}
	size := DeviceBytesFor(cfg)
	ram := storage.NewRAM(size)
	lower := &flakyTier{Device: ram, delay: 100 * time.Microsecond}
	tiered, err := storage.NewTiered([]storage.Device{storage.NewRAM(size), lower},
		storage.WithTierRetry(2, 20*time.Microsecond, 100*time.Microsecond))
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer tiered.Close()
	c, err := New(tiered, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	stop, done := make(chan struct{}), make(chan struct{})
	var images, recovered int
	go func() {
		defer close(done)
		img := make([]byte, size)
		for {
			select {
			case <-stop:
				return
			default:
			}
			floor := tiered.Status()[1].DurableCounter
			images++
			p, ctr, err := recoverTier(ram, img)
			switch {
			case err != nil && floor == 0:
				continue // nothing acknowledged yet
			case err != nil:
				t.Errorf("image %d: tier 1 acknowledged %d but does not recover: %v", images, floor, err)
				return
			case ctr < floor:
				t.Errorf("image %d: tier 1 recovers %d, below the acknowledged %d", images, ctr, floor)
				return
			}
			if err := checkCrashPayload(p); err != nil {
				t.Errorf("image %d: checkpoint %d: %v", images, ctr, err)
				return
			}
			recovered++
		}
	}()

	const saves = 200
	for i := 1; i <= saves; i++ {
		switch i {
		case 70:
			lower.down.Store(true)
		case 130:
			if tiered.Status()[1].Errors == 0 {
				t.Error("the outage produced no tier errors")
			}
			lower.down.Store(false)
		}
		n := 1024 + (i*977)%(31<<10)
		if _, err := c.Checkpoint(context.Background(), BytesSource(crashPayload(uint64(i), n))); err != nil {
			t.Fatalf("Checkpoint %d: %v", i, err)
		}
		if i%10 == 0 {
			time.Sleep(300 * time.Microsecond) // let a ship or two through mid-run
		}
		// One acknowledgement early on, however loaded the machine: a ship
		// that lands only in the windows above may land in none of them, and
		// then no image is taken after an acknowledgement.
		if i == 10 && !tiered.WaitDrained(10*time.Second) {
			t.Fatalf("tier 1 did not converge before the outage: %+v", tiered.Status()[1])
		}
	}
	if !tiered.WaitDrained(10 * time.Second) {
		t.Fatalf("tier 1 did not converge after the heal: %+v", tiered.Status()[1])
	}
	close(stop)
	<-done
	st := tiered.Status()[1]
	if st.DurableCounter != saves || st.Resyncs != 0 {
		t.Fatalf("tier 1 after the run: %+v, want durable %d and no resync", st, saves)
	}
	if recovered == 0 {
		t.Fatalf("none of %d images were taken after an acknowledgement", images)
	}
	t.Logf("%d images, %d recovered after an acknowledgement; %d ships for %d saves", images, recovered, st.Drains, saves)
}

// TestTieredShipSkipsSuperseded: with tier 1 slower than the save rate the
// drainer ships the newest committed checkpoint, not every one, needs no
// resync to catch up, and holds nothing but its buffers on the heap — where a
// journal copied every payload or overflowed into a device-sized image.
func TestTieredShipSkipsSuperseded(t *testing.T) {
	const payloadBytes, chunk = 1 << 20, 256 << 10
	cfg := Config{Concurrent: 2, SlotBytes: payloadBytes, ChunkBytes: chunk, VerifyPayload: true}
	size := DeviceBytesFor(cfg)
	lower := &flakyTier{Device: storage.NewRAM(size), delay: 3 * time.Millisecond}
	tiered, err := storage.NewTiered([]storage.Device{storage.NewRAM(size), lower})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer tiered.Close()
	c, err := New(tiered, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()

	p := crashPayload(1, payloadBytes)
	save := func() uint64 {
		ctr, err := c.Checkpoint(context.Background(), BytesSource(p))
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return ctr
	}
	save() // warm-up: the tier is formatted, the ship buffers exist
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("warm-up did not drain")
	}

	const saves = 40
	before := tiered.Status()[1]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var last uint64
	for i := 0; i < saves; i++ {
		last = save()
	}
	if !tiered.WaitDrained(10 * time.Second) {
		t.Fatal("tier 1 did not drain")
	}
	runtime.ReadMemStats(&m1)
	after := tiered.Status()[1]

	if after.DurableCounter != last {
		t.Errorf("tier 1 durable counter = %d, want the last save %d", after.DurableCounter, last)
	}
	if shipped := after.DrainedBytes - before.DrainedBytes; shipped <= 0 || shipped >= saves*payloadBytes {
		t.Errorf("tier 1 took %d bytes for %d saves of %d: superseded checkpoints were shipped", shipped, saves, payloadBytes)
	}
	if after.Resyncs != 0 {
		t.Errorf("tier 1 needed %d resyncs to catch up", after.Resyncs)
	}
	if grown := m1.TotalAlloc - m0.TotalAlloc; grown >= 2*chunk {
		t.Errorf("%d bytes allocated during the run, want under two chunks (%d)", grown, 2*chunk)
	}
	got, ctr, err := Recover(lower.Device)
	if err != nil || ctr != last || !bytes.Equal(got, p) {
		t.Errorf("tier 1 alone recovers counter %d (err %v), want %d byte for byte", ctr, err, last)
	}
	t.Logf("%d ships, %d MiB for %d saves of 1 MiB", after.Drains-before.Drains, (after.DrainedBytes-before.DrainedBytes)>>20, saves)
}

// gatedTier, once armed, blocks the next write into a slot's payload area
// until released, and keeps the counter of every pointer record persisted to
// it. (Superblock, records and slot headers arrive by Persist, and the test's
// device has no black box: every WriteAt is payload.)
type gatedTier struct {
	storage.Device
	armed   atomic.Bool
	blocked chan struct{} // closed when the gated write arrives
	release chan struct{}
	mu      sync.Mutex
	records []uint64
}

func (d *gatedTier) WriteAt(p []byte, off int64) error {
	if d.armed.CompareAndSwap(true, false) {
		close(d.blocked)
		<-d.release
	}
	return d.Device.WriteAt(p, off)
}

func (d *gatedTier) Persist(p []byte, off int64) error {
	if off == recordAOff || off == recordBOff {
		if m, ok := decodeRecord(p); ok {
			d.mu.Lock()
			d.records = append(d.records, m.counter)
			d.mu.Unlock()
		}
	}
	return d.Device.Persist(p, off)
}

// TestTieredShipAbandonsRecycledSource: a ship is stopped mid-payload, the
// front recycles the slot it is reading, the ship resumes. What it then
// reads is another checkpoint's bytes, so what it wrote must never be
// published — with the slot CRC to catch it and, the point of the test,
// without: the fence is the front write Tiered saw, not the checksum.
func TestTieredShipAbandonsRecycledSource(t *testing.T) {
	for _, verify := range []bool{true, false} {
		name := "verify-off"
		if verify {
			name = "verify-on"
		}
		t.Run(name, func(t *testing.T) {
			// Four pieces a link, two a lane: the gated lane reads its second
			// after the gate opens, and checks Clobbered after each.
			const payloadBytes = 2*shipPiece + 64<<10
			cfg := Config{Concurrent: 2, SlotBytes: payloadBytes, ChunkBytes: 1 << 20, VerifyPayload: verify}
			size := DeviceBytesFor(cfg)
			lower := &gatedTier{Device: storage.NewRAM(size), blocked: make(chan struct{}), release: make(chan struct{})}
			tiered, err := storage.NewTiered([]storage.Device{storage.NewRAM(size), lower})
			if err != nil {
				t.Fatalf("NewTiered: %v", err)
			}
			defer tiered.Close()
			c, err := New(tiered, cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer c.Close()

			payloads := map[uint64][]byte{}
			save := func(seed uint64) uint64 {
				p := crashPayload(seed, payloadBytes)
				ctr, err := c.Checkpoint(context.Background(), BytesSource(p))
				if err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				payloads[ctr] = p
				return ctr
			}
			lower.armed.Store(true)
			victim := save(1)
			select {
			case <-lower.blocked:
			case <-time.After(5 * time.Second):
				t.Fatal("the ship never reached tier 1")
			}
			// N+1 = 3 slots, handed out in turn: the third save from here
			// writes into the victim's slot.
			victimSlot := c.checkAddr.Load().slot
			var last uint64
			for seed := uint64(2); c.checkAddr.Load().slot != victimSlot || last == 0; seed++ {
				last = save(seed)
			}
			close(lower.release)
			if !tiered.WaitDrained(10 * time.Second) {
				t.Fatalf("tier 1 did not converge: %+v", tiered.Status()[1])
			}

			lower.mu.Lock()
			records := append([]uint64(nil), lower.records...)
			lower.mu.Unlock()
			for _, ctr := range records {
				if ctr == victim {
					t.Errorf("tier 1's pointer record named checkpoint %d, whose source was recycled mid-copy (records: %v)", victim, records)
				}
			}
			st := tiered.Status()[1]
			if st.DurableCounter != last || st.Errors != 0 || st.Resyncs != 0 {
				t.Errorf("tier 1 after the run: %+v, want durable %d, no errors, no resync", st, last)
			}
			got, ctr, err := Recover(lower.Device)
			if err != nil || ctr != last || !bytes.Equal(got, payloads[last]) {
				t.Errorf("tier 1 alone recovers counter %d (err %v), want %d byte for byte", ctr, err, last)
			}
		})
	}
}

// TestTieredSaveAllocs guards the claim: no front-tier write is copied and
// the drainer works out of buffers it keeps, so tiering a save costs a few
// small allocations, not a second payload — and no more for a link of four
// ship pieces than for one of two: a ship starts a lane, not a goroutine a
// piece.
func TestTieredSaveAllocs(t *testing.T) {
	two := tieredSaveAllocs(t, 4<<20)
	four := tieredSaveAllocs(t, 16<<20)
	if four > two+1.5 {
		t.Errorf("%.1f mallocs per 16 MiB save against %.1f per 4 MiB one: a ship allocates by the piece", four, two)
	}
}

// tieredSaveAllocs returns the mallocs per save of payloadBytes, its ship
// included.
func tieredSaveAllocs(t *testing.T, payloadBytes int) float64 {
	cfg := Config{Concurrent: 2, SlotBytes: int64(payloadBytes), Writers: 2, ChunkBytes: 1 << 20, VerifyPayload: true}
	size := DeviceBytesFor(cfg)
	tiered, err := storage.NewTiered([]storage.Device{storage.NewRAM(size), storage.NewRAM(size)})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	defer tiered.Close()
	c, err := New(tiered, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	src := BytesSource(crashPayload(9, payloadBytes))
	run := func(saves int) {
		for i := 0; i < saves; i++ {
			if _, err := c.Checkpoint(context.Background(), src); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			time.Sleep(time.Duration(payloadBytes>>20) * 500 * time.Microsecond) // a ship per save, as when a tier keeps up
		}
		if !tiered.WaitDrained(5 * time.Second) {
			t.Fatal("tier 1 did not drain")
		}
	}
	run(5)
	const saves = 40
	before := tiered.Status()[1]
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(saves)
	runtime.ReadMemStats(&m1)
	after := tiered.Status()[1]
	if ships := after.Drains - before.Drains; ships < saves/2 {
		t.Fatalf("only %d ships for %d saves: the drainer's share is not being measured", ships, saves)
	}
	bytesPer := float64(m1.TotalAlloc-m0.TotalAlloc) / saves
	mallocsPer := float64(m1.Mallocs-m0.Mallocs) / saves
	t.Logf("%d MiB: %.0f bytes and %.1f mallocs per save, %d ships", payloadBytes>>20, bytesPer, mallocsPer, after.Drains-before.Drains)
	if bytesPer > float64(payloadBytes)/100 {
		t.Errorf("%.0f bytes allocated per %d-byte save, want at most 1 %%", bytesPer, payloadBytes)
	}
	// Measured 9, for two ship pieces or four: the engine's 3 (TestSaveAllocs)
	// and the ship's 6, one of them the second lane's goroutine. The first
	// leg in a fresh process reads up to ≈10.
	if mallocsPer > 12 {
		t.Errorf("%.1f mallocs per save (drainer included), want at most 12", mallocsPer)
	}
	return mallocsPer
}

// mirrorFront runs saves on a plain RAM front and returns it with every
// payload saved, by counter. ship, when not nil, runs after the first save.
func mirrorFront(t *testing.T, cfg Config, saves int, ship func(front storage.Device)) (*storage.RAM, superblock, map[uint64][]byte) {
	t.Helper()
	front := storage.NewRAM(DeviceBytesFor(cfg))
	c, err := New(front, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payloads := map[uint64][]byte{}
	p := sparsePayload(5, 0, 3000)
	for i := 0; i < saves; i++ {
		if i > 0 {
			mutateSparse(p, 5, uint64(i))
		}
		ctr, err := c.Checkpoint(context.Background(), BytesSource(p))
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		payloads[ctr] = bytes.Clone(p)
		if i == 0 && ship != nil {
			ship(front)
		}
	}
	return front, c.sb, payloads
}

// TestMirrorKeepsCandidateRecoverable: failover's copy never leaves the
// candidate unrecoverable. Every crash image of it taken while Mirror runs
// recovers a checkpoint no older than the one it held before — where the
// candidate lagged and the front has recycled the slot its record names, and
// where its chain links sit crosswise to the front's, which takes parking one
// — and the finished image is the front's, an in-flight save's bytes included.
func TestMirrorKeepsCandidateRecoverable(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		saves   int
		swapped bool
	}{
		{"full-lagging", Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}, 5, false},
		{"delta-lagging", Config{Concurrent: 1, SlotBytes: 4096, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 3}, 7, false},
		{"delta-swapped", Config{Concurrent: 1, SlotBytes: 4096, VerifyPayload: true, DeltaEvery: 1, DeltaKeyframe: 3}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			crash := storage.NewCrashDevice(DeviceBytesFor(tc.cfg), storage.KindSSD)
			sh := &shipper{tiers: make(map[storage.Device]*tierImage)}
			ship := func(front storage.Device) {
				if held, err := sh.Ship(still{front}, crash, false); err != nil || held != 1 {
					t.Fatalf("first ship: checkpoint %d, %v", held, err)
				}
			}
			if tc.swapped {
				ship = nil
			}
			front, sb, payloads := mirrorFront(t, tc.cfg, tc.saves, ship)
			chain, _, err := resolve(front, sb, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.swapped {
				// The candidate holds the front's chain with every link one
				// place on: no slot of it can be overwritten first.
				if len(chain) != 3 {
					t.Fatalf("front chain has %d links, want 3", len(chain))
				}
				if err := formatImage(crash, sb); err != nil {
					t.Fatal(err)
				}
				for i, m := range chain {
					to := chain[(i+1)%len(chain)].slot
					if err := sh.link(front, sb, m, crash, to, nil); err != nil {
						t.Fatal(err)
					}
					if m.slot = to; i == len(chain)-1 {
						if err := crash.Persist(encodeRecord(m), recordOffs[0]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			// An in-flight save: payload bytes under no header, in a slot the
			// front's chain does not use.
			free := 0
			for slices.ContainsFunc(chain, func(m checkMeta) bool { return m.slot == free }) {
				free++
			}
			if err := front.WriteAt(payload(9, 1000), payloadBase(sb, free)+64); err != nil {
				t.Fatal(err)
			}
			before := crash.Ops()
			_, held, err := Recover(storage.NewRAMFromBytes(mustImage(t, crash, before)))
			if err != nil {
				t.Fatalf("candidate before the mirror: %v", err)
			}

			if err := sh.Mirror(front, crash); err != nil {
				t.Fatalf("Mirror: %v", err)
			}

			for prefix := before; prefix <= crash.Ops(); prefix++ {
				for name, choose := range map[string]storage.CrashChooser{
					"drop": storage.DropAllWrites, "keep": storage.KeepAllWrites,
					"seed-1": storage.SeededChooser(1), "seed-42": storage.SeededChooser(42),
				} {
					img, err := crash.CrashImage(prefix, choose)
					if err != nil {
						t.Fatal(err)
					}
					p, ctr, err := Recover(storage.NewRAMFromBytes(img))
					if err != nil {
						t.Fatalf("op %d of %d, %s: candidate does not recover: %v", prefix-before, crash.Ops()-before, name, err)
					}
					if ctr < held || !bytes.Equal(p, payloads[ctr]) {
						t.Fatalf("op %d, %s: recovered checkpoint %d (held %d), payload intact: %v", prefix-before, name, ctr, held, bytes.Equal(p, payloads[ctr]))
					}
				}
			}
			// The same wherever the format reads: the superblock and records,
			// every slot header, a headed slot's stored bytes, and all of a slot
			// under no valid header (the in-flight save).
			want, got := mustImageOf(t, front), mustImage(t, crash, crash.Ops())
			same := func(what string, off, n int64) {
				if !bytes.Equal(got[off:off+n], want[off:off+n]) {
					t.Errorf("the mirrored image differs from the front's in %s", what)
				}
			}
			same("the superblock and records", 0, headerSize)
			for slot := 0; slot < sb.slots; slot++ {
				n := sb.slotBytes
				if hdr, err := slotHeld(front, sb, slot, 0, -1); err == nil {
					n = hdr.size
				}
				same(fmt.Sprintf("slot %d", slot), slotBase(sb, slot), slotHeaderSize+n)
			}
		})
	}
}

func mustImageOf(t *testing.T, dev storage.Device) []byte {
	t.Helper()
	img := make([]byte, dev.Size())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img
}

func mustImage(t *testing.T, crash *storage.CrashDevice, prefix int) []byte {
	t.Helper()
	img, err := crash.CrashImage(prefix, storage.KeepAllWrites)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestMirrorNeedsReadableFront: a front that fails to read part-way fails the
// mirror and leaves the candidate the good lower tier it was.
func TestMirrorNeedsReadableFront(t *testing.T) {
	cfg := Config{Concurrent: 2, SlotBytes: 4096, VerifyPayload: true}
	cand := storage.NewRAM(DeviceBytesFor(cfg))
	sh := &shipper{tiers: make(map[storage.Device]*tierImage)}
	ram, sb, payloads := mirrorFront(t, cfg, 5, func(front storage.Device) {
		if _, err := sh.Ship(still{front}, cand, false); err != nil {
			t.Fatal(err)
		}
	})
	front := storage.NewFaultDevice(ram)
	front.PoisonRead(payloadBase(sb, sb.slots-1)+512, 512)
	if err := sh.Mirror(front, cand); err == nil {
		t.Fatal("Mirror succeeded over an unreadable front")
	}
	p, ctr, err := Recover(cand)
	if err != nil || !bytes.Equal(p, payloads[ctr]) {
		t.Fatalf("candidate after the failed mirror: checkpoint %d, %v", ctr, err)
	}
}

// TestBlackBoxFrameShipsWithoutCommit: a frame flushed at the front after the
// last commit reaches the lower tier by itself — a crash is what the black box
// is for, and there may be no next commit — and only the frame is copied, not
// the region.
func TestBlackBoxFrameShipsWithoutCommit(t *testing.T) {
	cfg := Config{Concurrent: 1, SlotBytes: 2048, Observer: bbChain(), BlackBox: bbTestConfig}
	tier1 := storage.NewRAM(DeviceBytesFor(cfg))
	eng, tiered, _ := tieredEngine(t, cfg, []storage.Device{tier1})
	defer tiered.Close()
	defer eng.Close()
	if _, err := eng.Checkpoint(context.Background(), BytesSource(payload(1, 1024))); err != nil {
		t.Fatal(err)
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	drained := tiered.Status()[1].DrainedBytes
	seq, err := eng.FlushBlackBox()
	if err != nil {
		t.Fatal(err)
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("the frame was not shipped")
	}
	pm, err := PostMortem(tier1)
	if err != nil || pm.LastSeq() != seq {
		t.Fatalf("tier 1's black box ends at frame %d, want %d (%v)", pm.LastSeq(), seq, err)
	}
	if got := tiered.Status()[1].DrainedBytes - drained; got != bbTestConfig.FrameBytes {
		t.Errorf("shipping one frame wrote %d bytes to tier 1, want the frame's %d", got, bbTestConfig.FrameBytes)
	}
}

// laneTier counts the tier writes in flight. With meet set, the first of them
// waits for a second to arrive, so two lanes always overlap and the peak says
// how many lanes a ship ran, not how the scheduler happened to run them.
type laneTier struct {
	storage.Device
	mu                     sync.Mutex
	writes, inflight, peak int
	meet                   chan struct{} // closed by the second write in flight
}

func (d *laneTier) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	d.writes++
	d.inflight++
	d.peak = max(d.peak, d.inflight)
	meet := d.meet
	if d.inflight == 2 && meet != nil {
		close(meet)
		d.meet = nil
	}
	d.mu.Unlock()
	if meet != nil {
		select {
		case <-meet:
		case <-time.After(5 * time.Second): // one lane: the peak tells
		}
	}
	err := d.Device.WriteAt(p, off)
	d.mu.Lock()
	d.inflight--
	d.mu.Unlock()
	return err
}

// TestShipLanes: a link of two pages or more ships on two lanes — two tier
// writes in flight — and a one-page link on one. Either way the tier's slot
// ends the front's byte for byte, and a byte gone bad in either lane's half of
// the source fails the joined CRC, so no tier record names that checkpoint.
func TestShipLanes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		size, piece int // piece: the copier's buffers, 0 for its own
		lanes       int
	}{
		{"one-page", 3000, 0, 1},
		{"two-pieces", 60_000, 0, 2},
		{"eight-pieces", 60_000, 8 << 10, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Concurrent: 1, SlotBytes: 64 << 10, VerifyPayload: true}
			front := storage.NewRAM(DeviceBytesFor(cfg))
			c, err := New(front, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			tier := &laneTier{Device: storage.NewRAM(front.Size())}
			sh := &shipper{tiers: make(map[storage.Device]*tierImage)}
			piece := min(int64(shipPiece), cfg.SlotBytes)
			if tc.piece > 0 {
				piece = int64(tc.piece)
				sh.bufs = [shipLanes][]byte{make([]byte, piece), make([]byte, piece)}
			}
			cut := cutPieces(int64(tc.size), piece, shipLanes, pageBytes)
			// save saves, flips the byte at off of the stored payload when
			// off >= 0, and ships.
			save := func(seed uint64, off int64) (uint64, error) {
				t.Helper()
				ctr, err := c.Checkpoint(context.Background(), BytesSource(crashPayload(seed, tc.size)))
				if err != nil {
					t.Fatal(err)
				}
				if off >= 0 {
					at, b := payloadBase(c.sb, c.checkAddr.Load().slot)+off, []byte{0}
					if err := front.ReadAt(b, at); err != nil {
						t.Fatal(err)
					}
					b[0] ^= 0x5a
					if err := front.WriteAt(b, at); err != nil {
						t.Fatal(err)
					}
				}
				tier.mu.Lock()
				tier.writes, tier.peak = 0, 0
				if tc.lanes > 1 {
					tier.meet = make(chan struct{})
				}
				tier.mu.Unlock()
				_, err = sh.Ship(still{front}, tier, false)
				return ctr, err
			}

			good, err := save(1, -1)
			if err != nil {
				t.Fatalf("Ship: %v", err)
			}
			if tier.peak != tc.lanes || int64(tier.writes) != cut.k {
				t.Errorf("%d tier writes, at most %d in flight; want %d on %d lanes", tier.writes, tier.peak, cut.k, tc.lanes)
			}
			chain, _, err := resolve(tier, c.sb, 0, nil)
			if err != nil || len(chain) != 1 || chain[0].counter != good {
				t.Fatalf("tier holds %v (%v), want checkpoint %d", chain, err, good)
			}
			want, got := mustImageOf(t, front), mustImageOf(t, tier)
			from, to := slotBase(c.sb, c.checkAddr.Load().slot), slotBase(c.sb, chain[0].slot)
			if n := slotHeaderSize + int64(tc.size); !bytes.Equal(got[to:to+n], want[from:from+n]) {
				t.Error("the tier's slot is not the front's")
			}

			flips := []int64{int64(tc.size) / 2}
			if tc.lanes > 1 { // lane 0's last byte, lane 1's first
				flips = []int64{cut.start(cut.k/2) - 1, cut.start(cut.k / 2)}
			}
			for i, off := range flips {
				bad, err := save(uint64(2+i), off)
				if !storage.IsCorrupt(err) {
					t.Fatalf("byte %d of checkpoint %d flipped: Ship returned %v, want a checksum failure", off, bad, err)
				}
				for _, at := range recordOffs {
					rec := make([]byte, recordSize)
					if err := tier.ReadAt(rec, at); err != nil {
						t.Fatal(err)
					}
					if m, ok := decodeRecord(rec); ok && m.counter == bad {
						t.Errorf("a tier record names checkpoint %d, whose byte %d went bad at the source", bad, off)
					}
				}
			}
			if _, ctr, err := Recover(tier); err != nil || ctr != good {
				t.Errorf("the tier recovers checkpoint %d (%v), want %d", ctr, err, good)
			}
		})
	}
}

// halfFault, once armed, fails the first write into the second lane's half of
// a slot's payload, permanently.
type halfFault struct {
	storage.Device
	stride, mid int64 // slot stride; where the second lane's pieces begin
	armed       atomic.Bool
}

func (d *halfFault) WriteAt(p []byte, off int64) error {
	if (off-headerSize)%d.stride-slotHeaderSize >= d.mid && d.armed.CompareAndSwap(true, false) {
		return storage.ErrInjected
	}
	return d.Device.WriteAt(p, off)
}

// TestShipTallyUnderLanes: a tier's tally of the ship in flight, which both
// lanes add to, holds. Transient write faults cost retries, not bytes: every
// ship adds exactly its payload, slot header and pointer record to
// DrainedBytes. A permanent fault is one error per ship, whether it hits the
// second lane's half alone or both lanes at once. Meant for -race: the tally
// is written from two goroutines.
func TestShipTallyUnderLanes(t *testing.T) {
	const payloadBytes = 256 << 10
	cfg := Config{Concurrent: 1, SlotBytes: payloadBytes, VerifyPayload: true}
	cut := cutPieces(payloadBytes, payloadBytes, shipLanes, pageBytes)
	fault := storage.NewFaultDevice(storage.NewRAM(DeviceBytesFor(cfg)))
	lower := &halfFault{Device: fault, stride: slotStride(cfg.SlotBytes), mid: cut.start(cut.k / 2)}
	c, tiered, _ := tieredEngine(t, cfg, []storage.Device{lower}, storage.WithTierRetry(4, 10*time.Microsecond, 100*time.Microsecond))
	defer tiered.Close()
	defer c.Close()
	seed := uint64(0)
	ship := func() storage.TierStatus {
		t.Helper()
		seed++
		if _, err := c.Checkpoint(context.Background(), BytesSource(crashPayload(seed, payloadBytes))); err != nil {
			t.Fatal(err)
		}
		if !tiered.WaitDrained(5 * time.Second) {
			t.Fatalf("tier 1 did not drain: %+v", tiered.Status()[1])
		}
		return tiered.Status()[1]
	}

	st := ship() // formats the tier
	const perShip = payloadBytes + slotHeaderSize + recordSize
	for i := 0; i < 10; i++ {
		fault.FailTransient(storage.OpWrite, 1, 2) // one lane twice, or each once
		next := ship()
		if got := next.DrainedBytes - st.DrainedBytes; got != perShip || next.Errors != 0 {
			t.Fatalf("ship %d: %d bytes drained and %d errors, want %d and none", i, got, next.Errors, perShip)
		}
		st = next
	}
	if n := fault.FaultCount(storage.OpWrite); n != 20 {
		t.Fatalf("%d transient write faults injected, want 20", n)
	}
	for _, both := range []bool{false, true} {
		if both {
			fault.SetSchedule(storage.OpWrite, storage.Schedule{Count: 2}) // each lane's first write
		} else {
			lower.armed.Store(true)
		}
		next := ship()
		if next.Errors != st.Errors+1 || next.DurableCounter != seed {
			t.Fatalf("both lanes faulted %v: %d errors after %d, checkpoint %d durable; want one more error and %d",
				both, next.Errors, st.Errors, next.DurableCounter, seed)
		}
		st = next
	}
	if lower.armed.Load() {
		t.Fatal("the second lane's half was never written")
	}
}

// BenchmarkShip copies a 16 MiB link from a RAM front into storage.SSD paced
// at 4 MiB per 13 ms, tiered_paced's tier 1: four pieces on two lanes.
// x-model is the link's time over the model's 4 × 13 = 52 ms; a copy that
// leaves the tier idle between pieces pays each piece's pwrite on top. The
// link's Sync is an fsync of the file: with TMPDIR on a disk it times the disk.
//
//	TMPDIR=/dev/shm go test -run '^$' -bench Ship -benchtime 20x ./internal/core/
func BenchmarkShip(b *testing.B) {
	const size, piece, slot = 16 << 20, 4 << 20, 13 * time.Millisecond
	cfg := Config{Concurrent: 1, SlotBytes: size, VerifyPayload: true}
	front := storage.NewRAM(DeviceBytesFor(cfg))
	c, err := New(front, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Checkpoint(context.Background(), BytesSource(payload(1, size))); err != nil {
		b.Fatal(err)
	}
	chain, _, err := resolve(front, c.sb, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	m := chain[len(chain)-1]
	ssd, err := storage.OpenSSD(filepath.Join(b.TempDir(), "tier1.dev"), front.Size(),
		storage.WithSSDThrottle(storage.NewThrottle(piece/slot.Seconds())))
	if err != nil {
		b.Fatal(err)
	}
	defer ssd.Close()
	var cp copier
	cp.buffers(c.sb)
	b.SetBytes(size)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := cp.link(front, c.sb, m, ssd, m.slot, nil); err != nil {
			b.Fatal(err)
		}
	}
	perLink := time.Since(start) / time.Duration(b.N)
	b.ReportMetric(float64(perLink)/float64(time.Millisecond), "ms/op")
	b.ReportMetric(float64(perLink)/float64(size/piece*slot), "x-model")
}
