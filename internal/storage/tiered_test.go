package storage

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"pccheck/internal/obs"
)

const tierTestSize = int64(8192)

// The format these tests ship is "bytes [0, shipped) then a marker": the last
// eight bytes of a device hold the committed counter, the eight before them
// are never shipped. fakeShipper copies the data, syncs, and persists the
// marker last — the shape of core's shipper without its layout, so the
// storage package tests its half (wake-up, retry classes, accounting,
// fencing, failover) without importing core.
type fakeShipper struct{}

const (
	tierMarkerOff = tierTestSize - 8
	tierShipped   = tierTestSize - 16 // data bytes a ship copies
	tierShipBytes = tierShipped + 8   // what one complete ship writes
)

// shipHook, when set, runs after the data is copied and before the ship
// looks at Clobbered; tests use it to write to the front mid-ship.
var (
	shipHookMu sync.Mutex
	shipHook   func()
	distrusted int
	fakeTail   int64 // when set, where this format's tail region begins
	mirrors    int
)

func setShipHook(f func()) {
	shipHookMu.Lock()
	shipHook = f
	shipHookMu.Unlock()
}

func init() { RegisterShipper(func() Shipper { return fakeShipper{} }) }

func (fakeShipper) Ship(src ShipSource, dst Device, distrust bool) (uint64, error) {
	n := int64(tierShipped)
	var marker [8]byte
	var rerr error
	src.Pin(func() (int64, int64) {
		rerr = src.ReadAt(marker[:], tierMarkerOff)
		return 0, n
	})
	if rerr != nil {
		return 0, rerr
	}
	shipHookMu.Lock()
	hook := shipHook
	if distrust {
		distrusted++
	}
	shipHookMu.Unlock()
	buf := make([]byte, 1024)
	for off := int64(0); off < n; off += int64(len(buf)) {
		p := buf[:min(int64(len(buf)), n-off)]
		if err := src.ReadAt(p, off); err != nil {
			return 0, err
		}
		if err := dst.WriteAt(p, off); err != nil {
			return 0, err
		}
	}
	if err := dst.Sync(0, n); err != nil {
		return 0, err
	}
	if hook != nil {
		hook()
	}
	if src.Clobbered() {
		return 0, nil // abandoned: the marker was not touched
	}
	if err := dst.Persist(marker[:], tierMarkerOff); err != nil {
		return 0, err
	}
	shipHookMu.Lock()
	tail := fakeTail
	shipHookMu.Unlock()
	if tail > 0 { // best-effort, like core's
		off, n := src.Tail(tail)
		if p := make([]byte, n); n > 0 && src.ReadAt(p, off) == nil {
			dst.Persist(p, off) //nolint:errcheck
		}
	}
	return binary.LittleEndian.Uint64(marker[:]), nil
}

// Mirror copies the whole image, as failover needs it.
func (fakeShipper) Mirror(src, dst Device) error {
	shipHookMu.Lock()
	mirrors++
	shipHookMu.Unlock()
	buf := make([]byte, 1024)
	for off := int64(0); off < src.Size(); off += int64(len(buf)) {
		if err := src.ReadAt(buf, off); err != nil {
			return err
		}
		if err := dst.WriteAt(buf, off); err != nil {
			return err
		}
	}
	return dst.Sync(0, src.Size())
}

// commit persists counter as the front's marker and tells the device.
func commit(t *testing.T, tiered *Tiered, counter uint64) {
	t.Helper()
	var marker [8]byte
	binary.LittleEndian.PutUint64(marker[:], counter)
	if err := tiered.Persist(marker[:], tierMarkerOff); err != nil {
		t.Errorf("Persist marker: %v", err)
	}
	tiered.CommitCheckpoint(counter)
}

func tierImage(t *testing.T, dev Device) []byte {
	t.Helper()
	img := make([]byte, dev.Size())
	if err := dev.ReadAt(img, 0); err != nil {
		t.Fatalf("ReadAt full image: %v", err)
	}
	return img
}

func tierPattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed ^ byte(i*13)
	}
	return p
}

// eventCollector is a minimal obs.Observer capturing events for assertions.
type eventCollector struct {
	mu  sync.Mutex
	evs []obs.Event
}

func (c *eventCollector) Emit(ev obs.Event) {
	c.mu.Lock()
	c.evs = append(c.evs, ev)
	c.mu.Unlock()
}

func (c *eventCollector) count(p obs.Phase) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ev := range c.evs {
		if ev.Phase == p {
			n++
		}
	}
	return n
}

func newTiered(t *testing.T, levels []Device, opts ...TieredOption) *Tiered {
	t.Helper()
	tiered, err := NewTiered(levels, opts...)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	t.Cleanup(func() {
		setShipHook(nil)
		tiered.Close()
	})
	return tiered
}

// TestTieredWakesOnCommit: front writes reach no lower tier by themselves —
// there is no ticker and nothing is journaled — and a commit ships them to
// every level.
func TestTieredWakesOnCommit(t *testing.T) {
	ram0, ram1, remote := NewRAM(tierTestSize), NewRAM(tierTestSize), NewRemoteStore(tierTestSize)
	tiered := newTiered(t, []Device{ram0, ram1, remote})

	for i, off := range []int64{0, 1024, 4096, tierShipped - 512} {
		if err := tiered.Persist(tierPattern(512, byte(i+1)), off); err != nil {
			t.Fatalf("Persist: %v", err)
		}
	}
	start := time.Now()
	if !tiered.WaitDrained(10 * time.Second) {
		t.Fatal("WaitDrained before any commit = false, want true")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("WaitDrained before any commit took %v, want at once", d)
	}
	time.Sleep(20 * time.Millisecond)
	if st := tiered.Status(); st[1].Drains != 0 || st[1].DrainedBytes != 0 || st[1].PendingOps != 0 {
		t.Fatalf("uncommitted writes were shipped: %+v", st[1])
	}
	if !bytes.Equal(tierImage(t, ram1), make([]byte, tierTestSize)) {
		t.Fatal("tier 1 changed before any commit")
	}

	commit(t, tiered, 7)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	want := tierImage(t, ram0)
	if !bytes.Equal(tierImage(t, ram1), want) {
		t.Error("tier 1 image differs from tier 0 after the ship")
	}
	if !bytes.Equal(tierImage(t, remote), want) {
		t.Error("tier 2 (remote) image differs from tier 0 after the ship")
	}
	st := tiered.Status()
	if len(st) != 3 {
		t.Fatalf("Status returned %d rows, want 3", len(st))
	}
	if st[0].Level != 0 || st[0].DurableCounter != 7 || !st[0].Active {
		t.Errorf("tier 0 status = %+v, want the active front at watermark 7", st[0])
	}
	for _, s := range st[1:] {
		if s.DurableCounter != 7 || s.DurableAt.IsZero() || s.PendingOps != 0 {
			t.Errorf("tier %d status = %+v, want durable 7, caught up", s.Level, s)
		}
		if s.Drains != 1 || s.DrainedBytes != tierShipBytes {
			t.Errorf("tier %d drain accounting = %d drains, %d bytes, want 1, %d", s.Level, s.Drains, s.DrainedBytes, tierShipBytes)
		}
	}
}

func TestTieredTransientFaultRetries(t *testing.T) {
	fault := NewFaultDevice(NewRAM(tierTestSize))
	fault.FailTransient(OpWrite, 1, 2)
	collector := &eventCollector{}
	tiered := newTiered(t, []Device{NewRAM(tierTestSize), fault},
		WithTierRetry(5, 50*time.Microsecond, time.Millisecond),
		WithTierObserver(collector))

	if err := tiered.Persist(tierPattern(512, 3), 128); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge despite retry budget covering the transient run")
	}
	st := tiered.Status()
	if st[1].Errors != 0 {
		t.Errorf("transient faults within the retry budget counted as tier errors: %+v", st[1])
	}
	if fault.FaultCount(OpWrite) != 2 {
		t.Errorf("injected %d write faults, want 2", fault.FaultCount(OpWrite))
	}
	if collector.count(obs.PhaseTierDrain) == 0 {
		t.Error("no PhaseTierDrain events emitted")
	}
}

func TestTieredPermanentFaultGoesStale(t *testing.T) {
	fault := NewFaultDevice(NewRAM(tierTestSize))
	fault.SetSchedule(OpWrite, Schedule{After: 1, Count: 1 << 30}) // every write fails, permanently classified
	collector := &eventCollector{}
	tiered := newTiered(t, []Device{NewRAM(tierTestSize), fault, NewRAM(tierTestSize)},
		WithTierRetry(2, 50*time.Microsecond, time.Millisecond),
		WithTierObserver(collector))

	if err := tiered.Persist(tierPattern(512, 5), 0); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 3)

	// The healthy tier 2 converges; the broken tier 1 goes stale, not wrong.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := tiered.Status()
		if st[2].DurableCounter == 3 && st[1].Errors > 0 {
			if st[1].DurableCounter != 0 {
				t.Fatalf("broken tier advanced its durable counter: %+v", st[1])
			}
			if st[1].LastErr == nil || st[1].PendingOps == 0 {
				t.Fatalf("broken tier has no LastErr or nothing pending: %+v", st[1])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy tier never converged around the broken one: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if collector.count(obs.PhaseTierError) == 0 {
		t.Error("no PhaseTierError events emitted for the failing tier")
	}
	if tiered.WaitDrained(20 * time.Millisecond) {
		t.Error("WaitDrained = true with a tier that cannot be written")
	}

	// Healed, the tier converges by the drainer's own backoff: no commit, no
	// Kick, no WaitDrained.
	fault.Clear()
	for deadline = time.Now().Add(5 * time.Second); tiered.Status()[1].DurableCounter != 3; {
		if time.Now().After(deadline) {
			t.Fatalf("healed tier was never retried: %+v", tiered.Status()[1])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTieredCloseShipsFinalState: Close waits for the ship in flight and
// then ships once more, also what was written after the last commit.
func TestTieredCloseShipsFinalState(t *testing.T) {
	ram0, ram1 := NewRAM(tierTestSize), NewRAM(tierTestSize)
	tiered, err := NewTiered([]Device{ram0, &slowTier{Device: ram1, delay: time.Millisecond}})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	commit(t, tiered, 2)
	if err := tiered.Persist(tierPattern(1024, 0x42), 2048); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	if err := tiered.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(tierImage(t, ram1), tierImage(t, ram0)) {
		t.Error("orderly Close left tier 1 behind tier 0")
	}
	if err := tiered.WriteAt([]byte{1}, 0); err == nil {
		t.Error("WriteAt after Close succeeded")
	}
}

// slowTier delays lower-tier writes so ship windows stay open long enough
// for the shutdown-race tests to observe them deterministically.
type slowTier struct {
	Device
	delay time.Duration
}

func (s *slowTier) WriteAt(p []byte, off int64) error {
	time.Sleep(s.delay)
	return s.Device.WriteAt(p, off)
}

// Regression test for the drainer shutdown race: a Persist in flight while
// Close runs must either be rejected (the caller knows it is not durable) or
// be included in the final ship — never accepted at tier 0 and then
// silently dropped from the lower tiers.
func TestTieredCloseWaitsForInflightPersists(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		ram0, ram1 := NewRAM(tierTestSize), NewRAM(tierTestSize)
		tiered, err := NewTiered([]Device{ram0, ram1})
		if err != nil {
			t.Fatalf("NewTiered: %v", err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 4000; i++ {
				off := int64(i%14) * 512
				if err := tiered.Persist(tierPattern(512, byte(i+1)), off); err != nil {
					return // closed under us: the write was rejected, not dropped
				}
				tiered.CommitCheckpoint(uint64(i + 1))
			}
		}()
		time.Sleep(time.Duration(iter%5) * 20 * time.Microsecond)
		if err := tiered.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		<-done
		if !bytes.Equal(tierImage(t, ram1), tierImage(t, ram0)) {
			t.Fatalf("iter %d: Close raced an in-flight persist: tier 1 image differs from tier 0", iter)
		}
	}
}

// Regression test for concurrent Close: a second Close must not return while
// the first is still in its final ship — callers treat a returned Close as
// "every healthy tier holds tier 0's final committed state".
func TestTieredSecondCloseWaitsForFinalDrain(t *testing.T) {
	ram0, ram1 := NewRAM(tierTestSize), NewRAM(tierTestSize)
	tiered, err := NewTiered([]Device{ram0, &slowTier{Device: ram1, delay: 2 * time.Millisecond}})
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := tiered.Persist(tierPattern(512, byte(i+1)), int64(i)*512); err != nil {
			t.Fatalf("Persist: %v", err)
		}
	}
	commit(t, tiered, 8)
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		if err := tiered.Close(); err != nil {
			t.Errorf("first Close: %v", err)
		}
	}()
	time.Sleep(2 * time.Millisecond) // first Close is now mid final ship
	if err := tiered.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if !bytes.Equal(tierImage(t, ram1), tierImage(t, ram0)) {
		t.Fatal("second Close returned before the final ship completed")
	}
	<-firstDone
}

// TestTieredClobberedShipIsAbandoned: a front write that overlaps the extent
// a ship pinned marks the ship before it is applied, the marker is not
// written, and the commit that follows is shipped instead.
func TestTieredClobberedShipIsAbandoned(t *testing.T) {
	ram0, ram1 := NewRAM(tierTestSize), NewRAM(tierTestSize)
	tiered := newTiered(t, []Device{ram0, ram1})
	if err := tiered.Persist(tierPattern(512, 1), 0); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	var once sync.Once
	setShipHook(func() {
		once.Do(func() {
			// The data of checkpoint 1 is on tier 1, its marker is not: the
			// front recycles the extent and commits checkpoint 2.
			if err := tiered.WriteAt(tierPattern(512, 2), 256); err != nil {
				t.Errorf("WriteAt mid-ship: %v", err)
			}
			commit(t, tiered, 2)
		})
	})
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	st := tiered.Status()[1]
	if st.DurableCounter != 2 {
		t.Fatalf("tier 1 durable counter = %d, want 2", st.DurableCounter)
	}
	if !bytes.Equal(tierImage(t, ram1), tierImage(t, ram0)) {
		t.Error("tier 1 image differs from tier 0")
	}
	if st.Drains != 2 || st.DrainedBytes != 2*tierShipBytes-8 {
		t.Errorf("accounting = %d drains, %d bytes; want 2 ships, the first without its marker (%d bytes)",
			st.Drains, st.DrainedBytes, 2*tierShipBytes-8)
	}

	// A write outside the pinned extent, a read or a sync clobbers nothing.
	setShipHook(func() {
		tiered.WriteAt([]byte{9}, tierShipped) //nolint:errcheck
		tiered.ReadAt(make([]byte, 64), 0)     //nolint:errcheck
		tiered.Sync(0, tierShipped)            //nolint:errcheck
	})
	commit(t, tiered, 3)
	if !tiered.WaitDrained(5*time.Second) || tiered.Status()[1].DurableCounter != 3 {
		t.Fatalf("a write outside the extent abandoned the ship: %+v", tiered.Status()[1])
	}
}

func TestTieredWritePathFailover(t *testing.T) {
	front := NewFaultDevice(NewRAM(tierTestSize))
	collector := &eventCollector{}
	tiered := newTiered(t, []Device{front, NewRAM(tierTestSize), NewRemoteStore(tierTestSize)},
		WithFailoverThreshold(2),
		WithTierObserver(collector))

	durable := tierPattern(1024, 0xA1)
	if err := tiered.Persist(durable, 0); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge before the failure")
	}
	// Not committed and so never shipped: failover must carry it over anyway.
	inflight := tierPattern(256, 0xC3)
	if err := tiered.WriteAt(inflight, 4096); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}

	// Break the front permanently; the first persist fails within the
	// budget, the second exhausts it, fails over, and succeeds on tier 1.
	front.SetSchedule(OpPersist, Schedule{After: 1, Count: 1 << 30})
	fresh := tierPattern(512, 0xB2)
	var lastErr error
	recovered := false
	for i := 0; i < 4; i++ {
		if err := tiered.Persist(fresh, 2048); err != nil {
			lastErr = err
			continue
		}
		recovered = true
		break
	}
	if !recovered {
		t.Fatalf("persists never recovered after failover: %v", lastErr)
	}
	commit(t, tiered, 2)

	st := tiered.Status()
	if !st[0].Failed || st[0].Failovers != 1 {
		t.Errorf("tier 0 after failover = %+v, want Failed with 1 failover", st[0])
	}
	if st[0].Active || !st[1].Active || tiered.Active() != 1 {
		t.Errorf("active flag did not move to tier 1: %+v", st[:2])
	}
	if st[1].DurableCounter != 2 {
		t.Errorf("new front durable counter = %d, want the watermark 2", st[1].DurableCounter)
	}

	// The new front is the old one byte for byte, plus the retried write.
	for _, c := range []struct {
		off  int64
		want []byte
	}{{0, durable}, {4096, inflight}, {2048, fresh}} {
		got := make([]byte, len(c.want))
		if err := tiered.ReadAt(got, c.off); err != nil {
			t.Fatalf("ReadAt after failover: %v", err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("bytes at %d missing from the new front", c.off)
		}
	}

	// The remaining lower tier keeps draining below the new front.
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("remaining tier did not converge after failover")
	}
	if !bytes.Equal(tierImage(t, tiered.tiers[2].dev), tierImage(t, tiered.tiers[1].dev)) {
		t.Error("tier 2 image differs from the new front after the ship")
	}
	if collector.count(obs.PhaseTierFailover) != 1 {
		t.Errorf("PhaseTierFailover events = %d, want 1", collector.count(obs.PhaseTierFailover))
	}
}

func TestTieredFailoverExhaustsCandidates(t *testing.T) {
	front := NewFaultDevice(NewRAM(tierTestSize))
	lower := NewFaultDevice(NewRAM(tierTestSize))
	tiered := newTiered(t, []Device{front, lower}, WithFailoverThreshold(1))
	if err := tiered.Persist(tierPattern(256, 1), 0); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	front.SetSchedule(OpPersist, Schedule{After: 1, Count: 1 << 30})
	lower.SetSchedule(OpPersist, Schedule{After: 1, Count: 1 << 30})
	if err := tiered.Persist(tierPattern(256, 2), 1024); err == nil {
		t.Fatal("persist succeeded with every tier broken")
	}
	st := tiered.Status()
	if !st[0].Failed || !st[1].Failed {
		t.Errorf("both tiers should be failed: %+v", st)
	}
	// The composite still answers reads (only persists were broken).
	if err := tiered.ReadAt(make([]byte, 256), 0); err != nil {
		t.Errorf("ReadAt after exhausted failover: %v", err)
	}
}

// TestTieredFailoverNeedsReadableFront: a front that does not even read
// cannot be copied, so there is no healthy tier to fail over to — the tiers
// below it are not tried one after the other, the candidate stays a lower
// tier, and later errors do not run the copy again.
func TestTieredFailoverNeedsReadableFront(t *testing.T) {
	front := NewFaultDevice(NewRAM(tierTestSize))
	ram1, ram2 := NewRAM(tierTestSize), NewRAM(tierTestSize)
	tiered := newTiered(t, []Device{front, ram1, ram2}, WithFailoverThreshold(1))
	if err := tiered.Persist(tierPattern(2048, 7), 0); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	before := tierImage(t, ram2)
	front.SetSchedule(OpPersist, Schedule{After: 1, Count: 1 << 30})
	front.PoisonRead(4096, 512)
	shipHookMu.Lock()
	mirrors = 0
	shipHookMu.Unlock()
	for i := 0; i < 3; i++ {
		if err := tiered.Persist(tierPattern(256, 2), 1024); err == nil {
			t.Fatal("persist succeeded although the front could not be copied")
		}
	}
	st := tiered.Status()
	if !st[0].Failed || st[0].LastErr == nil || st[1].Active || st[2].Active || st[1].Failed || st[2].Failed {
		t.Errorf("status after a failed failover: %+v", st)
	}
	shipHookMu.Lock()
	ran := mirrors
	shipHookMu.Unlock()
	if ran != 1 {
		t.Errorf("the front's image was copied %d times, want once", ran)
	}
	if !bytes.Equal(tierImage(t, ram2), before) {
		t.Error("a deeper tier was overwritten although the front had already failed to read")
	}
}

// TestTieredTailWriteWakesDrainer: once the shipper has said where the
// format's tail region begins, a front write there reaches the lower tier
// without a commit — only the extent written — and WaitDrained covers it.
func TestTieredTailWriteWakesDrainer(t *testing.T) {
	const tail = 6000
	shipHookMu.Lock()
	fakeTail = tail
	shipHookMu.Unlock()
	t.Cleanup(func() {
		shipHookMu.Lock()
		fakeTail = 0
		shipHookMu.Unlock()
	})
	ram0, ram1 := NewRAM(tierTestSize), NewRAM(tierTestSize)
	tiered := newTiered(t, []Device{ram0, ram1})
	before := tierPattern(64, 0x11)
	if err := tiered.Persist(before, tail+100); err != nil { // before any ship: the first one owes it all
		t.Fatal(err)
	}
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	drained := tiered.Status()[1].DrainedBytes
	frame := tierPattern(128, 0x22)
	if err := tiered.Persist(frame, tail+512); err != nil {
		t.Fatal(err)
	}
	if st := tiered.Status()[1]; st.PendingOps == 0 && st.DrainedBytes == drained {
		t.Errorf("a tail write left the tier neither behind nor written: %+v", st)
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("the tail write was not shipped")
	}
	for _, c := range []struct {
		off  int64
		want []byte
	}{{tail + 100, before}, {tail + 512, frame}} {
		got := make([]byte, len(c.want))
		if err := ram1.ReadAt(got, c.off); err != nil || !bytes.Equal(got, c.want) {
			t.Errorf("tail bytes at %d did not reach tier 1 (%v)", c.off, err)
		}
	}
	// One more whole ship (the fake has no notion of "lacks nothing") plus the
	// 128-byte extent: the region was not copied again.
	if got := tiered.Status()[1].DrainedBytes - drained; got != tierShipBytes+int64(len(frame)) {
		t.Errorf("the tail write drained %d bytes, want %d", got, tierShipBytes+int64(len(frame)))
	}
}

func TestTieredScheduleResyncRepairsTier(t *testing.T) {
	ram0, ram1 := NewRAM(tierTestSize), NewRAM(tierTestSize)
	collector := &eventCollector{}
	tiered := newTiered(t, []Device{ram0, ram1}, WithTierObserver(collector))
	if err := tiered.Persist(tierPattern(1024, 0x61), 512); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	// Damage the lower tier behind the composite's back (a scrubber finding),
	// then ask for repair-by-resync.
	if err := ram1.WriteAt(make([]byte, 1024), 512); err != nil {
		t.Fatalf("corrupting WriteAt: %v", err)
	}
	if tiered.ScheduleResync(0) {
		t.Error("ScheduleResync accepted the front tier")
	}
	if tiered.ScheduleResync(7) {
		t.Error("ScheduleResync accepted a nonexistent level")
	}
	shipHookMu.Lock()
	distrusted = 0
	shipHookMu.Unlock()
	if !tiered.ScheduleResync(1) {
		t.Fatal("ScheduleResync rejected a live lower tier")
	}
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("resync did not converge")
	}
	if !bytes.Equal(tierImage(t, ram1), tierImage(t, ram0)) {
		t.Error("resync did not restore the lower tier image")
	}
	st := tiered.Status()[1]
	if st.Resyncs != 1 || st.Resyncing {
		t.Errorf("resync not counted once and cleared: %+v", st)
	}
	shipHookMu.Lock()
	got := distrusted
	shipHookMu.Unlock()
	if got != 1 {
		t.Errorf("shipper was told to distrust the tier %d times, want 1", got)
	}
	if collector.count(obs.PhaseTierResync) != 1 {
		t.Errorf("PhaseTierResync events = %d, want 1", collector.count(obs.PhaseTierResync))
	}
}

func TestTieredRejectsSmallLowerTier(t *testing.T) {
	_, err := NewTiered([]Device{NewRAM(4096), NewRAM(1024)})
	if err == nil {
		t.Fatal("NewTiered accepted a lower tier smaller than tier 0")
	}
}

// TestTieredMarksAfterCoveringPersist: the ack floor is stamped into a crash
// tier's journal after the persist that makes the counter durable there,
// never before it.
func TestTieredMarksAfterCoveringPersist(t *testing.T) {
	crash := NewCrashDevice(tierTestSize, KindSSD)
	tiered := newTiered(t, []Device{NewRAM(tierTestSize), crash})
	if err := tiered.Persist(tierPattern(512, 1), 0); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	commit(t, tiered, 11)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	journal := crash.Journal()
	mark, markerSync := -1, -1
	for i, op := range journal {
		switch {
		case op.Kind == CrashOpMark && op.Value == 11:
			mark = i
		case op.Kind == CrashOpSync && op.Off == tierMarkerOff:
			markerSync = i
		}
	}
	if mark < 0 || markerSync < 0 || mark < markerSync {
		t.Fatalf("mark at op %d, the marker's sync at op %d of %d: the mark must follow it", mark, markerSync, len(journal))
	}
	if got := crash.HighestMark(markerSync); got != 0 {
		t.Fatalf("ack floor %d visible before the covering persist", got)
	}
}

// TestTieredStatusAllocs: the bench polls Status four times a save; it may
// allocate the slice it returns and nothing else.
func TestTieredStatusAllocs(t *testing.T) {
	tiered := newTiered(t, []Device{NewRAM(tierTestSize), NewRAM(tierTestSize), NewRemoteStore(tierTestSize)})
	commit(t, tiered, 1)
	if !tiered.WaitDrained(5 * time.Second) {
		t.Fatal("tiers did not converge")
	}
	var sink []TierStatus
	if n := testing.AllocsPerRun(100, func() { sink = tiered.Status() }); n > 1 {
		t.Fatalf("Status allocates %.0f times per call, want at most 1", n)
	}
	if len(sink) != 3 || sink[2].DurableCounter != 1 {
		t.Fatalf("Status = %+v", sink)
	}
}

// TestTieredNeedsAShipper: without a registered Shipper lower tiers could
// never be written, so NewTiered refuses them (a single level needs none).
func TestTieredNeedsAShipper(t *testing.T) {
	saved := newShipper
	defer RegisterShipper(saved)
	RegisterShipper(nil)
	if _, err := NewTiered([]Device{NewRAM(tierTestSize), NewRAM(tierTestSize)}); err == nil {
		t.Fatal("NewTiered built a hierarchy nobody can drain")
	}
	single, err := NewTiered([]Device{NewRAM(tierTestSize)})
	if err != nil {
		t.Fatalf("NewTiered with one level: %v", err)
	}
	single.CommitCheckpoint(3)
	if !single.WaitDrained(time.Second) || single.Status()[0].DurableCounter != 3 {
		t.Fatalf("single level: %+v", single.Status())
	}
	if err := single.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
