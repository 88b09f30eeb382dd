// Package blackbox implements PCcheck's crash-surviving telemetry
// journal: a torn-write-tolerant, CRC-framed ring of telemetry frames
// stored in a reserved region of the checkpoint device, after the slot
// area. Every observability surface the process holds in DRAM — the
// flight-recorder ring (policy decisions included) and the goodput
// ledger's report — dies with the process, which is exactly the scenario
// the engine exists to survive; the black box periodically persists a
// snapshot of both so a post-crash inspector can explain what the process
// was doing when the power went out.
//
// Region layout (sizes fixed at format time, recorded in the header):
//
//	[ header sector: 512 B, CRC-framed, epoch-stamped ]
//	[ frame slot 0: FrameBytes ]
//	[ frame slot 1: FrameBytes ]
//	...
//	[ frame slot F-1 ]
//
// Frames carry a monotonic sequence number; frame seq s lives in slot
// s % F, so the region always retains the most recent F frames. Every
// frame is CRC-framed (header and payload separately) and epoch-stamped
// with the device's format epoch: a torn frame fails its CRC and is
// skipped, a frame surviving from before a reformat fails the epoch
// check and is rejected — stale telemetry can never be resurrected as
// current, mirroring the slot-header epoch rule.
package blackbox

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

const (
	// SectorBytes aligns the region header and frame slots: frame slots
	// are a multiple of it so a frame write never shares a sector with a
	// neighbour, bounding torn-write blast radius to the frame itself.
	SectorBytes = 512

	regionMagic = 0x58424350 // "PCBX" little-endian
	frameMagic  = 0x46424350 // "PCBF" little-endian
	version     = 1

	headerLen      = 64 // bytes of the region header actually used
	frameHeaderLen = 64

	// eventLen is the fixed on-device encoding of one obs.Event.
	eventLen = 60

	// maxFrameSlots bounds decode-side loops against hostile headers.
	maxFrameSlots = 1 << 20
)

// Payload section types.
const (
	secEvents = 1 // fixed-width binary obs.Event tail
	secReport = 2 // obs.GoodputReport JSON
	// Section 3 held a JSON decision tail; decisions now ride in the
	// event tail, and old frames skip it as an unknown section.
)

// ErrNoRegion reports that the device was formatted without a black-box
// region (pre-forensics layout, or BlackBox disabled at format time).
var ErrNoRegion = errors.New("blackbox: device has no black box region")

// Layout describes the region geometry: header sector plus Slots frame
// slots of FrameBytes each.
type Layout struct {
	FrameBytes int64
	Slots      int
}

// RegionBytes is the total on-device size of the region.
func (l Layout) RegionBytes() int64 {
	return SectorBytes + int64(l.Slots)*l.FrameBytes
}

// LayoutFor derives the region geometry from a size budget. frameBytes
// is rounded up to a whole number of sectors (0 selects 8 KiB); the slot
// count is whatever fits the budget, minimum 2 so the newest complete
// frame always survives a torn successor.
func LayoutFor(budgetBytes, frameBytes int64) Layout {
	if frameBytes <= 0 {
		frameBytes = 8 << 10
	}
	if rem := frameBytes % SectorBytes; rem != 0 {
		frameBytes += SectorBytes - rem
	}
	slots := (budgetBytes - SectorBytes) / frameBytes
	if slots < 2 {
		slots = 2
	}
	if slots > maxFrameSlots {
		slots = maxFrameSlots
	}
	return Layout{FrameBytes: frameBytes, Slots: int(slots)}
}

// Format persists the region header at off with the given format epoch.
// Frame slots are not zeroed: stale frames from a previous format are
// fenced off by the epoch check, exactly like recycled checkpoint slots.
func Format(dev storage.Device, off int64, epoch uint64, l Layout) error {
	if l.Slots < 1 || l.FrameBytes < frameHeaderLen || l.FrameBytes%SectorBytes != 0 {
		return fmt.Errorf("blackbox: invalid layout %+v", l)
	}
	buf := make([]byte, SectorBytes)
	binary.LittleEndian.PutUint32(buf[0:], regionMagic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint64(buf[16:], uint64(l.RegionBytes()))
	binary.LittleEndian.PutUint64(buf[24:], uint64(l.FrameBytes))
	binary.LittleEndian.PutUint32(buf[32:], uint32(l.Slots))
	binary.LittleEndian.PutUint32(buf[60:], crc32.ChecksumIEEE(buf[:60]))
	return dev.Persist(buf, off)
}

// decodeHeader validates a region header sector and returns its geometry.
func decodeHeader(buf []byte, regionBytes int64) (Layout, uint64, error) {
	if len(buf) < headerLen {
		return Layout{}, 0, errors.New("blackbox: region header truncated")
	}
	if binary.LittleEndian.Uint32(buf[60:]) != crc32.ChecksumIEEE(buf[:60]) {
		return Layout{}, 0, errors.New("blackbox: region header CRC mismatch")
	}
	if binary.LittleEndian.Uint32(buf[0:]) != regionMagic {
		return Layout{}, 0, errors.New("blackbox: bad region magic")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != version {
		return Layout{}, 0, fmt.Errorf("blackbox: unsupported region version %d", v)
	}
	epoch := binary.LittleEndian.Uint64(buf[8:])
	total := int64(binary.LittleEndian.Uint64(buf[16:]))
	frameBytes := int64(binary.LittleEndian.Uint64(buf[24:]))
	slots := int64(binary.LittleEndian.Uint32(buf[32:]))
	l := Layout{FrameBytes: frameBytes, Slots: int(slots)}
	switch {
	case slots < 1 || slots > maxFrameSlots:
		return Layout{}, 0, fmt.Errorf("blackbox: implausible slot count %d", slots)
	case frameBytes < frameHeaderLen || frameBytes%SectorBytes != 0:
		return Layout{}, 0, fmt.Errorf("blackbox: implausible frame size %d", frameBytes)
	case l.RegionBytes() != total:
		return Layout{}, 0, fmt.Errorf("blackbox: header geometry %d does not cover declared region %d", l.RegionBytes(), total)
	case regionBytes > 0 && total != regionBytes:
		return Layout{}, 0, fmt.Errorf("blackbox: region header declares %d bytes, superblock reserves %d", total, regionBytes)
	}
	return l, epoch, nil
}

// CheckHeader validates the region header sector at off: CRC, magic,
// geometry against the reserved regionBytes, and the format epoch. It is
// the scrubber's cheap liveness probe for the telemetry region — frames are
// not touched (a live flusher may be appending to them concurrently).
func CheckHeader(dev storage.Device, off, regionBytes int64, epoch uint64) error {
	buf := make([]byte, SectorBytes)
	if err := dev.ReadAt(buf, off); err != nil {
		return err
	}
	_, got, err := decodeHeader(buf, regionBytes)
	if err != nil {
		return err
	}
	if got != epoch {
		return fmt.Errorf("blackbox: region header carries epoch %d, device is epoch %d", got, epoch)
	}
	return nil
}

// RewriteHeader re-persists the region header sector from the journal's
// in-memory layout and epoch — the repair for a damaged header. Frame slots
// and the append position are untouched.
func (j *Journal) RewriteHeader() error {
	return Format(j.dev, j.off, j.epoch, j.layout)
}

// RepairHeader rewrites the region header through the flusher's journal,
// serialized against concurrent flushes.
func (f *Flusher) RepairHeader() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.j.RewriteHeader()
}

// Frame is one decoded telemetry frame: a point-in-time snapshot of the
// flight ring tail and the goodput report.
type Frame struct {
	// Seq is the frame's monotonic sequence number (1-based).
	Seq uint64
	// TS is the flush wall-clock time, nanoseconds since the Unix epoch.
	TS int64
	// Events is the flight-ring tail captured by this flush, oldest
	// first. Consecutive frames overlap: snapshots are non-destructive.
	Events []obs.Event
	// Report is the goodput ledger's report at flush time as JSON, nil
	// when no ledger was attached.
	Report json.RawMessage
}

// encodeEvents renders events in the fixed 60-byte wire form.
func encodeEvents(events []obs.Event) []byte {
	buf := make([]byte, len(events)*eventLen)
	for i, ev := range events {
		b := buf[i*eventLen:]
		binary.LittleEndian.PutUint64(b[0:], uint64(ev.TS))
		binary.LittleEndian.PutUint64(b[8:], uint64(ev.Dur))
		binary.LittleEndian.PutUint64(b[16:], ev.Counter)
		binary.LittleEndian.PutUint64(b[24:], uint64(ev.Bytes))
		binary.LittleEndian.PutUint64(b[32:], uint64(ev.Value))
		binary.LittleEndian.PutUint32(b[40:], uint32(ev.Phase))
		binary.LittleEndian.PutUint32(b[44:], uint32(ev.Slot))
		binary.LittleEndian.PutUint32(b[48:], uint32(ev.Writer))
		binary.LittleEndian.PutUint32(b[52:], uint32(ev.Rank))
		binary.LittleEndian.PutUint32(b[56:], uint32(ev.Attempt))
	}
	return buf
}

// decodeEvents parses fixed-width event records. ok is false when any
// record carries an out-of-range phase — a CRC collision or a frame
// from a newer writer; either way the frame is not trustworthy.
func decodeEvents(buf []byte) ([]obs.Event, bool) {
	n := len(buf) / eventLen
	events := make([]obs.Event, n)
	for i := range events {
		b := buf[i*eventLen:]
		events[i] = obs.Event{
			TS:      int64(binary.LittleEndian.Uint64(b[0:])),
			Dur:     int64(binary.LittleEndian.Uint64(b[8:])),
			Counter: binary.LittleEndian.Uint64(b[16:]),
			Bytes:   int64(binary.LittleEndian.Uint64(b[24:])),
			Value:   int64(binary.LittleEndian.Uint64(b[32:])),
			Phase:   obs.Phase(binary.LittleEndian.Uint32(b[40:])),
			Slot:    int32(binary.LittleEndian.Uint32(b[44:])),
			Writer:  int32(binary.LittleEndian.Uint32(b[48:])),
			Rank:    int32(binary.LittleEndian.Uint32(b[52:])),
			Attempt: int32(binary.LittleEndian.Uint32(b[56:])),
		}
		if events[i].Phase >= obs.PhaseCount {
			return nil, false
		}
	}
	return events, true
}

// encodeFrame renders a frame into a full slot-sized buffer. Sections
// that do not fit the slot are trimmed in priority order: oldest events
// first, then the report — an empty payload always fits.
func encodeFrame(buf []byte, epoch uint64, f Frame) {
	for i := range buf {
		buf[i] = 0
	}
	budget := len(buf) - frameHeaderLen
	section := func(typ uint32, data []byte) []byte {
		if len(data) == 0 || 8+len(data) > budget {
			return nil
		}
		s := make([]byte, 8+len(data))
		binary.LittleEndian.PutUint32(s[0:], typ)
		binary.LittleEndian.PutUint32(s[4:], uint32(len(data)))
		copy(s[8:], data)
		return s
	}
	// Reserve space for the report, then fill the rest with the newest
	// events that fit.
	reserved := 0
	if len(f.Report) > 0 {
		reserved = 8 + len(f.Report)
	}
	events := f.Events
	if reserved > budget {
		f.Report = nil
		reserved = 0
	}
	if maxEv := (budget - reserved - 8) / eventLen; maxEv < len(events) {
		if maxEv < 0 {
			maxEv = 0
		}
		events = events[len(events)-maxEv:] // keep the newest tail
	}
	payload := buf[frameHeaderLen:frameHeaderLen]
	payload = append(payload, section(secEvents, encodeEvents(events))...)
	payload = append(payload, section(secReport, f.Report)...)

	binary.LittleEndian.PutUint32(buf[0:], frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint64(buf[8:], epoch)
	binary.LittleEndian.PutUint64(buf[16:], f.Seq)
	binary.LittleEndian.PutUint64(buf[24:], uint64(f.TS))
	binary.LittleEndian.PutUint32(buf[32:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[36:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(buf[60:], crc32.ChecksumIEEE(buf[:60]))
}

// decodeFrame validates one slot's bytes against the region epoch and
// returns the frame it holds. ok is false for empty, torn, or
// stale-epoch slots — all expected states, not errors. The decoder is
// fully bounds-checked: arbitrary bytes never panic.
func decodeFrame(buf []byte, epoch uint64) (Frame, bool) {
	if len(buf) < frameHeaderLen {
		return Frame{}, false
	}
	if binary.LittleEndian.Uint32(buf[60:]) != crc32.ChecksumIEEE(buf[:60]) {
		return Frame{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:]) != frameMagic ||
		binary.LittleEndian.Uint32(buf[4:]) != version {
		return Frame{}, false
	}
	if binary.LittleEndian.Uint64(buf[8:]) != epoch {
		return Frame{}, false // pre-reformat frame: fenced off
	}
	payloadLen := int(binary.LittleEndian.Uint32(buf[32:]))
	if payloadLen < 0 || payloadLen > len(buf)-frameHeaderLen {
		return Frame{}, false
	}
	payload := buf[frameHeaderLen : frameHeaderLen+payloadLen]
	if binary.LittleEndian.Uint32(buf[36:]) != crc32.ChecksumIEEE(payload) {
		return Frame{}, false
	}
	f := Frame{
		Seq: binary.LittleEndian.Uint64(buf[16:]),
		TS:  int64(binary.LittleEndian.Uint64(buf[24:])),
	}
	if f.Seq == 0 {
		return Frame{}, false
	}
	for len(payload) >= 8 {
		typ := binary.LittleEndian.Uint32(payload[0:])
		n := int(binary.LittleEndian.Uint32(payload[4:]))
		if n < 0 || n > len(payload)-8 {
			return Frame{}, false
		}
		data := payload[8 : 8+n]
		switch typ {
		case secEvents:
			if n%eventLen != 0 {
				return Frame{}, false
			}
			evs, ok := decodeEvents(data)
			if !ok {
				return Frame{}, false
			}
			f.Events = evs
		case secReport:
			f.Report = append(json.RawMessage(nil), data...)
		default:
			// Unknown section from a newer writer: skip, keep the rest.
		}
		payload = payload[8+n:]
	}
	if len(payload) != 0 {
		return Frame{}, false
	}
	return f, true
}

// PostMortem is the decoded black box: every CRC-valid, current-epoch
// frame in the region, sorted by ascending sequence number.
type PostMortem struct {
	// Epoch is the device format epoch the frames belong to.
	Epoch uint64
	// Layout is the region geometry read back from the header.
	Layout Layout
	// Frames holds the surviving frames, oldest first, strictly
	// increasing Seq.
	Frames []Frame
}

// LastSeq is the newest surviving frame's sequence number (0 when empty).
func (pm *PostMortem) LastSeq() uint64 {
	if pm == nil || len(pm.Frames) == 0 {
		return 0
	}
	return pm.Frames[len(pm.Frames)-1].Seq
}

// Newest returns the most recent frame, or nil when the box is empty.
func (pm *PostMortem) Newest() *Frame {
	if pm == nil || len(pm.Frames) == 0 {
		return nil
	}
	return &pm.Frames[len(pm.Frames)-1]
}

// Events merges every frame's event snapshot into one deduplicated
// timeline, ordered oldest frame first. Snapshots are non-destructive so
// consecutive frames overlap heavily; events are flat comparable values,
// so exact duplicates collapse.
func (pm *PostMortem) Events() []obs.Event {
	if pm == nil {
		return nil
	}
	seen := make(map[obs.Event]struct{})
	var out []obs.Event
	for _, f := range pm.Frames {
		for _, ev := range f.Events {
			if _, dup := seen[ev]; dup {
				continue
			}
			seen[ev] = struct{}{}
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// LastReport decodes the newest frame's goodput report. ok is false when
// no surviving frame carried one.
func (pm *PostMortem) LastReport() (obs.GoodputReport, bool) {
	if pm == nil {
		return obs.GoodputReport{}, false
	}
	for i := len(pm.Frames) - 1; i >= 0; i-- {
		if len(pm.Frames[i].Report) == 0 {
			continue
		}
		var rep obs.GoodputReport
		if err := json.Unmarshal(pm.Frames[i].Report, &rep); err == nil {
			return rep, true
		}
	}
	return obs.GoodputReport{}, false
}

// Decode reads and validates the black-box region at off. regionBytes is
// the size the superblock reserved (0 skips the cross-check). Torn or
// stale frames are silently skipped; Decode only errors when the region
// itself is unreadable or its header is invalid. epoch is the expected
// device format epoch — frames from any other epoch are rejected.
func Decode(dev storage.Device, off, regionBytes int64, epoch uint64) (*PostMortem, error) {
	head := make([]byte, SectorBytes)
	if err := dev.ReadAt(head, off); err != nil {
		return nil, fmt.Errorf("blackbox: read region header: %w", err)
	}
	l, hdrEpoch, err := decodeHeader(head, regionBytes)
	if err != nil {
		return nil, err
	}
	if hdrEpoch != epoch {
		return nil, fmt.Errorf("blackbox: region epoch %d does not match device epoch %d", hdrEpoch, epoch)
	}
	pm := &PostMortem{Epoch: epoch, Layout: l}
	buf := make([]byte, l.FrameBytes)
	for s := 0; s < l.Slots; s++ {
		if err := dev.ReadAt(buf, off+SectorBytes+int64(s)*l.FrameBytes); err != nil {
			return nil, fmt.Errorf("blackbox: read frame slot %d: %w", s, err)
		}
		if f, ok := decodeFrame(buf, epoch); ok {
			pm.Frames = append(pm.Frames, f)
		}
	}
	sort.Slice(pm.Frames, func(i, j int) bool { return pm.Frames[i].Seq < pm.Frames[j].Seq })
	// Slot addressing (seq % F) makes duplicate sequence numbers
	// impossible from a correct writer; drop any that corruption let
	// through so the tail is strictly monotonic by construction.
	dedup := pm.Frames[:0]
	for _, f := range pm.Frames {
		if n := len(dedup); n > 0 && dedup[n-1].Seq == f.Seq {
			continue
		}
		dedup = append(dedup, f)
	}
	pm.Frames = dedup
	return pm, nil
}

// Journal appends telemetry frames to a formatted region. It is not
// safe for concurrent use; the Flusher serializes access.
type Journal struct {
	dev     storage.Device
	off     int64
	layout  Layout
	epoch   uint64
	nextSeq uint64
	buf     []byte // slot-sized scratch, reused across appends
}

// OpenJournal reads the region header at off and positions the journal
// after the newest surviving frame, so telemetry written after a restart
// extends the pre-crash tail instead of overwriting it.
func OpenJournal(dev storage.Device, off, regionBytes int64, epoch uint64) (*Journal, error) {
	pm, err := Decode(dev, off, regionBytes, epoch)
	if err != nil {
		return nil, err
	}
	return &Journal{
		dev:     dev,
		off:     off,
		layout:  pm.Layout,
		epoch:   epoch,
		nextSeq: pm.LastSeq() + 1,
		buf:     make([]byte, pm.Layout.FrameBytes),
	}, nil
}

// Append encodes f (Seq and any oversized sections are overridden /
// trimmed) into the next frame slot and makes it durable with a covering
// sync. It returns the sequence number written.
func (j *Journal) Append(f Frame) (uint64, error) {
	f.Seq = j.nextSeq
	encodeFrame(j.buf, j.epoch, f)
	slot := int64((f.Seq - 1) % uint64(j.layout.Slots))
	if err := j.dev.Persist(j.buf, j.off+SectorBytes+slot*j.layout.FrameBytes); err != nil {
		return 0, err
	}
	j.nextSeq++
	return f.Seq, nil
}

// LastSeq is the sequence number of the most recently appended frame
// (0 before the first append on a fresh region).
func (j *Journal) LastSeq() uint64 { return j.nextSeq - 1 }

// Layout returns the region geometry.
func (j *Journal) Layout() Layout { return j.layout }
