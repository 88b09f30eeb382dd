package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"pccheck/internal/storage"
)

// Shipping is how a committed checkpoint reaches a lower tier (and how the
// scrubber rewrites a slot from one): a chain link's stored bytes are copied
// device to device in the write protocol's own order — payload pieces, one
// sync, the slot header, and only then a pointer record naming the link. A
// lower tier is an image of the front's geometry and epoch whose slot indices
// are its own: a link lands in a slot the tier's durable chain does not use,
// so what the tier last acknowledged stays recoverable at every instant.

// shipPiece is the largest piece a link moves in — the engine's usual chunk
// size, because a throttled tier forgives nothing below a chunk: each
// Throttle.Acquire loses its oversleep, so small pieces would be slow pieces.
const shipPiece = 4 << 20

// shipLanes is how many pieces of a span are in flight at once. A tier is one
// serial timeline: one lane's write booked while the other's runs keeps it
// busy between pieces, and more lanes would only add buffers.
const shipLanes = 2

// errSuperseded: the front recycled a link's source slot under the ship.
var errSuperseded = errors.New("core: shipped checkpoint superseded at the source")

// copier moves stored bytes between devices on shipLanes lanes: a span is cut
// the way a save is (cutPieces), and lane w copies its run of the pieces
// through bufs[w] — read, checksum, write.
type copier struct {
	bufs [shipLanes][]byte
	fan  fanout
	head [slotHeaderSize]byte // superblocks and slot headers pass through it
	// The running span's.
	src, dst storage.Device
	from, to int64
	stop     storage.ShipSource
}

func (c *copier) buffers(sb superblock) {
	if c.bufs[0] == nil {
		for w := range c.bufs {
			c.bufs[w] = make([]byte, min(int64(shipPiece), sb.slotBytes))
		}
	}
}

// span copies n bytes from src at from to dst at to and returns their CRC.
// Each lane gives up between pieces once a stop (when not nil) reports
// Clobbered.
func (c *copier) span(src storage.Device, from int64, dst storage.Device, to, n int64, stop storage.ShipSource) (uint32, error) {
	if n <= 0 {
		return 0, nil
	}
	c.src, c.from, c.dst, c.to, c.stop = src, from, dst, to, stop
	cut := cutPieces(n, int64(len(c.bufs[0])), shipLanes, pageBytes)
	err := c.fan.run(cut, shipLanes, c)
	return c.fan.crc(cut.k), err
}

// piece copies bytes [lo, hi) of the span through lane w's buffer.
func (c *copier) piece(w int, lo, hi int64) (crc uint32, err error) {
	p := c.bufs[w][:hi-lo]
	if err = c.src.ReadAt(p, c.from+lo); err == nil {
		crc = crc32.ChecksumIEEE(p)
		err = c.dst.WriteAt(p, c.to+lo)
	}
	if err == nil && c.stop != nil && c.stop.Clobbered() {
		err = errSuperseded
	}
	return crc, err
}

// link copies checkpoint m as src holds it (in slot m.slot) into slot to of
// dst: payload, one sync, then the header as src stores it — so a crash
// mid-copy leaves slot to without a header that describes its bytes. slotHeld
// must accept the source, and the bytes that passed must match its CRC.
func (c *copier) link(src storage.Device, sb superblock, m checkMeta, dst storage.Device, to int, stop storage.ShipSource) error {
	c.buffers(sb)
	hdr, err := slotHeldIn(src, sb, m.slot, m.counter, m.size, c.head[:])
	if err != nil {
		return err
	}
	crc, err := c.span(src, payloadBase(sb, m.slot), dst, payloadBase(sb, to), m.size, stop)
	if err == nil {
		err = hdr.checkPayload(crc)
	}
	if err == nil {
		err = dst.Sync(payloadBase(sb, to), m.size)
	}
	if err == nil && stop != nil && stop.Clobbered() {
		err = errSuperseded
	}
	if err == nil {
		err = dst.Persist(c.head[:], slotBase(sb, to))
	}
	return err
}

// tierImage is what a shipper remembers of one destination between ships:
// nobody else writes a lower tier, so it looks again only after a failure.
type tierImage struct {
	sb    superblock
	chain []checkMeta // the tier's newest committed chain, in the tier's slots
	loc   int         // the record location naming it (the next record goes to 1-loc)
}

func (img *tierImage) tip() uint64 {
	if len(img.chain) == 0 {
		return 0
	}
	return img.chain[len(img.chain)-1].counter
}

// shipper is the storage.Shipper of this on-device format. It needs no
// engine: everything it knows it reads off the two devices.
type shipper struct {
	copier
	tiers map[storage.Device]*tierImage
}

// Ship implements storage.Shipper. Each round resolves the front's newest
// committed chain with the front held still, copies the first link dst lacks
// into a slot dst's own chain does not use, and publishes it there with a
// pointer record — link by link, so a tier lacking a whole chain never needs
// more free slots than it has: after the first record its old chain is free.
// Superseded checkpoints are never resolved, hence never shipped; a source
// slot recycled mid-copy abandons the link for what superseded it.
func (s *shipper) Ship(src storage.ShipSource, dst storage.Device, distrust bool) (durable uint64, err error) {
	if err = src.ReadAt(s.head[:], superOff); err != nil {
		return 0, err
	}
	sb, err := decodeSuperblock(s.head[:])
	if err != nil {
		if errors.Is(err, ErrNotFormatted) {
			return 0, nil // nothing was ever committed here
		}
		return 0, err
	}
	s.buffers(sb)
	img := s.tiers[dst]
	if img == nil || img.sb != sb || distrust {
		delete(s.tiers, dst)
		if img, err = s.attach(sb, dst, distrust); err != nil {
			return 0, err
		}
		s.tiers[dst] = img
	}
	defer func() {
		if durable = img.tip(); err != nil {
			delete(s.tiers, dst) // a write may or may not have landed: look again
		}
	}()
	for {
		var r struct { // one allocation for what the closure hands back
			link checkMeta
			have int
			tip  bool
			err  error
		}
		src.Pin(func() (off, n int64) {
			var front []checkMeta
			if front, _, r.err = resolve(src, sb, 0, nil); r.err != nil {
				return 0, 0
			}
			// A tier ahead of a front that quarantined its tip keeps what it has.
			r.have = commonPrefix(img.chain, front)
			if r.have == len(front) || img.tip() >= front[len(front)-1].counter {
				return 0, 0
			}
			r.link, r.tip = front[r.have], r.have == len(front)-1
			return slotBase(sb, r.link.slot), slotHeaderSize + r.link.size
		})
		if r.err != nil && !errors.Is(r.err, ErrNoCheckpoint) {
			return 0, r.err
		}
		if r.link.counter == 0 {
			break // dst lacks nothing
		}
		to := img.place(r.link.slot)
		switch err := s.link(src, sb, r.link, dst, to, src); {
		case errors.Is(err, errSuperseded), errors.Is(err, errSlotRecycled) && src.Clobbered():
			continue // only a slot dst's record does not name was touched
		case err != nil:
			return 0, err
		}
		r.link.slot = to
		if err := dst.Persist(encodeRecord(r.link), recordOffs[1-img.loc]); err != nil {
			return 0, err
		}
		img.chain, img.loc = append(img.chain[:r.have], r.link), 1-img.loc
		if r.tip {
			break // a commit made since then has its own wake-up pending
		}
	}
	s.tail(src, dst, sb, distrust)
	return 0, nil
}

// tail brings dst's black-box region up to the front's: the extent the front
// wrote since this tier last took it (all of it for a tier not to be trusted).
// Best-effort — frames are CRC-framed and epoch-stamped, so a torn copy reads
// as fewer frames, never as wrong ones — and so no failure of the ship: the
// tier counts its own faults and the extent stays owed.
func (s *shipper) tail(src storage.ShipSource, dst storage.Device, sb superblock, all bool) {
	if sb.blackBoxBytes == 0 {
		return
	}
	base := blackBoxBase(sb)
	off, n := src.Tail(base)
	if all {
		off, n = base, sb.blackBoxBytes
	}
	if n = min(n, base+sb.blackBoxBytes-off); n > 0 {
		if _, err := s.span(src, off, dst, off, n, nil); err == nil {
			dst.Sync(off, n) //nolint:errcheck // see above
		}
	}
}

// attach finds out what dst holds. A tier whose superblock is not the
// front's, or (distrust) whose newest chain does not verify, holds nothing
// worth keeping and is formatted like a fresh device, and every slot header
// cleared so that no stale copy can be found by counter. A tier that was
// recoverable stays so: only one that already was not is ever formatted.
func (s *shipper) attach(sb superblock, dst storage.Device, distrust bool) (*tierImage, error) {
	img := &tierImage{sb: sb, loc: 1}
	old, err := readSuperblock(dst)
	if storage.IsTransient(err) {
		return nil, err
	}
	if err == nil && old == sb {
		chain, loc, err := resolve(dst, sb, 0, nil)
		if err == nil && distrust {
			err = stream(dst, sb, chain, nil, s.bufs[0][:min(len(s.bufs[0]), streamPiece)], 0)
		}
		switch {
		case err == nil:
			img.chain, img.loc = chain, loc
			return img, nil
		case storage.IsTransient(err):
			return nil, err
		case errors.Is(err, ErrNoCheckpoint):
			return img, nil // formatted, nothing published yet
		case !distrust:
			return nil, err // unreadable, not known bad: leave it alone
		}
	}
	err = formatImage(dst, sb)
	clear(s.head[:])
	for slot := 0; slot < sb.slots && err == nil; slot++ {
		err = dst.Persist(s.head[:], slotBase(sb, slot))
	}
	return img, err
}

// place picks the tier slot a link goes to: the front's index (tiers mirror
// the front until one lags) or the next one the tier's durable chain, which
// pins at most K+1 of N+1+K, does not use. The chain alone decides, so a link
// shipped twice (a fault ate its record) never leaves a second copy behind.
func (img *tierImage) place(slot int) int {
	for slices.ContainsFunc(img.chain, func(m checkMeta) bool { return m.slot == slot }) {
		slot = (slot + 1) % img.sb.slots
	}
	return slot
}

// commonPrefix counts the leading links two chains share, wherever stored.
func commonPrefix(a, b []checkMeta) (n int) {
	for n < len(a) && n < len(b) {
		x := a[n]
		if x.slot = b[n].slot; x != b[n] {
			break
		}
		n++
	}
	return n
}

// still is a front nobody is writing — failover holds every writer off — as
// a ShipSource: nothing to pin, nothing clobbers, and the whole tail is owed.
type still struct{ storage.Device }

func (still) Pin(f func() (off, n int64))      { f() }
func (still) Clobbered() bool                  { return false }
func (s still) Tail(from int64) (off, n int64) { return from, s.Size() - from }

// Mirror implements storage.Shipper: failover's copy of a front nobody is
// writing. An ordinary ship first gives dst the front's newest chain in dst's
// own slots, and the black box. Then every slot is copied as the front has it
// (an in-flight save's bytes included), header cleared first and written last,
// in an order that keeps dst recoverable: a slot is overwritten only when each
// chain link it holds has a second copy on dst and, for the tip, a record names
// that copy. The front's slots provide both as they arrive; where links merely
// swapped places, one is parked in a spare slot first. The records go last.
// dst ends as the front's image in every region the format reads.
func (s *shipper) Mirror(src, dst storage.Device) error {
	defer delete(s.tiers, dst) // promoted, or to be looked at again
	if _, err := s.Ship(still{src}, dst, false); err != nil {
		return err
	}
	img := s.tiers[dst]
	if img == nil {
		return ErrNotFormatted
	}
	sb := img.sb
	front, loc, err := resolve(src, sb, 0, nil)
	if err != nil && !errors.Is(err, ErrNoCheckpoint) {
		return err
	}
	if len(img.chain) != len(front) || commonPrefix(img.chain, front) != len(front) {
		return fmt.Errorf("core: the tier's newest checkpoint %d is not the front's: no image to fail over to", img.tip())
	}
	// holds: the chain counter each dst slot holds a good copy of; want: the
	// same of the front; names: the slot each dst record names for the tip.
	holds, want := make([]uint64, sb.slots), make([]uint64, sb.slots)
	names, tip := [2]int{-1, -1}, img.tip()
	for i, m := range img.chain {
		holds[m.slot], want[front[i].slot] = m.counter, m.counter
		names[img.loc] = m.slot
	}
	spare := func(i int) bool {
		twice := false
		for j, c := range holds {
			twice = twice || j != i && c == holds[i]
		}
		named := holds[i] != tip || names[0] >= 0 && names[0] != i || names[1] >= 0 && names[1] != i
		return holds[i] == 0 || twice && named
	}
	put := func(from, to int) error { // the front's slot from into dst's slot to
		for x := range names {
			if names[x] == to {
				names[x] = -1
			}
		}
		holds[to] = 0
		clear(s.head[:])
		err := dst.Persist(s.head[:], slotBase(sb, to)) // found by nobody while it is overwritten
		if err == nil {
			_, err = s.span(src, payloadBase(sb, from), dst, payloadBase(sb, to), sb.slotBytes, nil)
		}
		if err == nil {
			err = dst.Sync(payloadBase(sb, to), sb.slotBytes)
		}
		if err == nil {
			err = src.ReadAt(s.head[:], slotBase(sb, from))
		}
		if err == nil {
			err = dst.Persist(s.head[:], slotBase(sb, to))
		}
		if holds[to] = want[from]; err == nil && tip != 0 && holds[to] == tip {
			x := loc // not the location holding dst's only name for the tip
			if names[x] >= 0 {
				x = 1 - loc
			}
			m := front[len(front)-1]
			m.slot = to
			if err = dst.Persist(encodeRecord(m), recordOffs[x]); err == nil {
				names[x] = to
			}
		}
		return err
	}
	done := make([]bool, sb.slots)
	for i := range done {
		done[i] = holds[i] != 0 && holds[i] == want[i] // shipped to the front's index: the same already
	}
	for stuck := -1; ; stuck = -1 {
		moved := false
		for i := range done {
			if done[i] {
				continue
			}
			if !spare(i) {
				stuck = i
				continue
			}
			if err := put(i, i); err != nil {
				return err
			}
			done[i], moved = true, true
		}
		if stuck < 0 {
			break
		}
		if !moved {
			// Every slot left holds the only copy of a link: they swapped
			// places. Park one in a slot that holds none, copied again later.
			to := slices.Index(holds, 0)
			if err := put(slices.Index(want, holds[stuck]), to); err != nil {
				return err
			}
			done[to] = false
		}
	}
	for _, x := range [2]int{loc, 1 - loc} {
		if x == loc && tip != 0 && names[loc] >= 0 {
			continue // names the tip where the front's does: the same already
		}
		rec := s.head[:recordSize]
		if err = src.ReadAt(rec, recordOffs[x]); err == nil {
			err = dst.Persist(rec, recordOffs[x])
		}
		if err != nil {
			return err
		}
	}
	return nil
}
