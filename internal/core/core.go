// Package core implements PCcheck's concurrent checkpointing engine — the
// paper's primary contribution (§4).
//
// The engine keeps N+1 checkpoint slots on a persistent device. Up to N
// checkpoints may be in flight concurrently; the (N+1)-th slot always holds
// the latest fully persisted checkpoint, which is never in the free queue
// and therefore can never be overwritten. Coordination follows Listing 1 of
// the paper:
//
//   - a global atomic counter orders checkpoint attempts;
//   - a lock-free queue (internal/lfqueue) hands out free slots;
//   - each checkpoint writes its payload with p parallel writer goroutines,
//     optionally pipelined through bounded DRAM chunks
//     (internal/chunkpool);
//   - after payload and per-slot metadata are durable, the checkpointer
//     CASes the in-memory CHECK_ADDR from the value it sampled *before*
//     taking its counter, persists the new pointer, and only then releases
//     the previous checkpoint's slot.
//
// A failed CAS means a concurrent checkpoint won the race: if the winner is
// newer, this checkpoint is obsolete — its slot is recycled without ever
// being published; if the winner is older, the CAS retries with the fresher
// expected value. Either way the persistent pointer always moves to strictly
// increasing counters, which is the durability invariant the crash-injection
// tests verify.
//
// Device layout (all offsets in bytes):
//
//	0    superblock: magic, version, slot count, slot capacity
//	64   pointer record A ┐ dual records; the valid one with the highest
//	128  pointer record B ┘ counter identifies the latest checkpoint
//	256  slot 0: 64-byte slot header (counter, size, CRCs) + payload
//	...  slot i at 256 + i·(64+slotCap)
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
)

const (
	superMagic    = 0x5043434b // "PCCK"
	formatVersion = 1

	superOff   = 0
	recordAOff = 64
	recordBOff = 128
	headerSize = 256

	slotHeaderSize = 64
	recordSize     = 28 // counter u64 + slot u32 + size u64 + crc u32 + pad
)

// recordOffs are the two pointer-record locations, A then B.
var recordOffs = [2]int64{recordAOff, recordBOff}

// Errors returned by the engine.
var (
	// ErrNoCheckpoint means the device holds no fully persisted checkpoint.
	ErrNoCheckpoint = errors.New("core: no persisted checkpoint")
	// ErrTooLarge means a payload exceeds the slot capacity.
	ErrTooLarge = errors.New("core: payload exceeds slot capacity")
	// ErrNotFormatted means the device does not carry a PCcheck superblock.
	ErrNotFormatted = errors.New("core: device not formatted")
	// ErrClosed means the checkpointer has been closed.
	ErrClosed = errors.New("core: checkpointer closed")
	// ErrBufferTooSmall means a caller-supplied buffer cannot hold the
	// checkpoint — retry with a buffer sized from a fresh Latest().
	ErrBufferTooSmall = errors.New("core: buffer too small for checkpoint")
)

// Config sizes the engine. The zero value is not usable; see New.
type Config struct {
	// Concurrent is N, the number of checkpoints that may be in flight at
	// once. The device must hold N+1 slots (§3.2).
	Concurrent int
	// SlotBytes is the slot capacity m — the maximum checkpoint payload.
	SlotBytes int64
	// Writers is p, the number of parallel writer goroutines per
	// checkpoint. Defaults to 1.
	Writers int
	// ChunkBytes is b, the largest piece a payload is persisted in and the
	// size of the DRAM chunks a staged one is pipelined through. A save is
	// cut into a multiple of Writers near-equal pieces (a delta record into
	// ChunkBytes windows). Zero makes the chunk slot-sized: no pipelining.
	ChunkBytes int
	// DRAMBudget is M, the DRAM the engine itself stages in: the pool holds
	// DRAMBudget/ChunkBytes chunks (at least one). A BytesSource payload is
	// persisted in place and draws on it only for a delta's dirty granules.
	// Zero defaults to 2×SlotBytes, the paper's default (§5.2.1).
	DRAMBudget int64
	// VerifyPayload adds a CRC32 over each payload, folded by the writers
	// that persist it and checked on read. Without it recovery and the
	// scrubber cannot detect a flipped payload bit.
	VerifyPayload bool
	// PerWriterBW paces each writer goroutine to this many bytes/sec
	// (0 = unpaced). Device-level pacing belongs to the Device itself.
	PerWriterBW float64
	// Retry governs how transient device faults are retried on the
	// persist path. The zero value retries nothing.
	Retry RetryPolicy
	// Observer, when non-nil, receives a structured lifecycle event for
	// every phase of every checkpoint: slot wait, per-chunk staging copy,
	// per-writer persist span, sync, pointer-record barrier, CAS publish
	// or obsolete outcome, and retry/backoff. Emit is called from the
	// persist hot path (writer goroutines, the publish loop), so
	// implementations must be concurrency-safe and non-blocking —
	// obs.Recorder is. A nil Observer costs one predictable branch per
	// probe and zero allocations.
	Observer obs.Observer
	// Scrub configures the background integrity scrubber (see scrub.go):
	// periodic CRC verification of the committed slots, pointer records,
	// black-box header and lower-tier copies, with cross-tier self-healing.
	// The zero value disables the background goroutine; ScrubNow still
	// sweeps on demand.
	Scrub ScrubConfig
	// DeltaEvery enables incremental checkpointing: every DeltaEvery-th
	// save is encoded as a delta against the previous checkpoint (1 =
	// every save, 0 = deltas disabled). Setting it without DeltaKeyframe
	// selects a keyframe cadence of 8.
	DeltaEvery int
	// DeltaKeyframe is K, the maximum run of consecutive deltas before a
	// full keyframe is forced, bounding recovery to one keyframe plus at
	// most K delta applications. A positive value formats the device with
	// K extra slots (the keyframe→delta chain stays pinned on top of the
	// N+1 working set). Setting it without DeltaEvery selects DeltaEvery=1.
	DeltaKeyframe int
	// BlackBox, when enabled (Bytes > 0), reserves a crash-surviving
	// telemetry region after the slot area and runs a background flusher
	// that snapshots the flight ring, the goodput report, and the
	// decision-trace tail into CRC-framed, epoch-stamped frames (see
	// internal/obs/blackbox). The flusher only starts when Observer
	// carries a flight recorder; it never touches the Emit hot path.
	BlackBox blackbox.Config
}

func (c Config) withDefaults() Config {
	if c.Writers < 1 {
		c.Writers = 1
	}
	if c.ChunkBytes <= 0 || int64(c.ChunkBytes) > c.SlotBytes {
		c.ChunkBytes = int(c.SlotBytes)
	}
	if c.DRAMBudget <= 0 {
		c.DRAMBudget = 2 * c.SlotBytes
	}
	c = c.deltaDefaults()
	c.Retry = c.Retry.withDefaults()
	return c
}

// deltaDefaults normalizes the delta pair: either knob implies the other.
func (c Config) deltaDefaults() Config {
	if c.DeltaEvery > 0 && c.DeltaKeyframe <= 0 {
		c.DeltaKeyframe = 8
	}
	if c.DeltaKeyframe > 0 && c.DeltaEvery <= 0 {
		c.DeltaEvery = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Concurrent < 1 {
		return fmt.Errorf("core: need at least 1 concurrent checkpoint, got %d", c.Concurrent)
	}
	if c.SlotBytes <= 0 {
		return fmt.Errorf("core: slot capacity must be positive, got %d", c.SlotBytes)
	}
	if c.DeltaEvery < 0 || c.DeltaKeyframe < 0 {
		return fmt.Errorf("core: delta knobs must be non-negative, got every=%d keyframe=%d", c.DeltaEvery, c.DeltaKeyframe)
	}
	return nil
}

// slotStride is the device footprint of one slot.
func slotStride(slotBytes int64) int64 {
	s := slotHeaderSize + slotBytes
	if rem := s % 64; rem != 0 {
		s += 64 - rem
	}
	return s
}

// DeviceBytes returns the device capacity required for a configuration —
// (N+1)·(header+m) plus the engine header — matching the paper's
// (N+1)×m storage footprint (Table 1).
func DeviceBytes(concurrent int, slotBytes int64) int64 {
	return headerSize + int64(concurrent+1)*slotStride(slotBytes)
}

// DeviceBytesFor returns the device capacity a full Config requires. Delta
// mode adds K slots on top of the N+1 working set so the pinned
// keyframe→delta chain never starves concurrent checkpoints of free slots;
// an enabled BlackBox appends its sector-aligned telemetry region after
// the slot area.
func DeviceBytesFor(cfg Config) int64 {
	cfg = cfg.deltaDefaults()
	n := headerSize + int64(cfg.Concurrent+1+cfg.DeltaKeyframe)*slotStride(cfg.SlotBytes)
	if cfg.BlackBox.Enabled() {
		n = alignSector(n) + cfg.BlackBox.Layout().RegionBytes()
	}
	return n
}

// alignSector rounds n up to the black-box sector size, so the telemetry
// region never shares a sector with the last slot.
func alignSector(n int64) int64 {
	if rem := n % blackbox.SectorBytes; rem != 0 {
		n += blackbox.SectorBytes - rem
	}
	return n
}

// pageBytes is what a save's pieces are aligned to within the payload, so no
// device write straddles a page.
const pageBytes = 4 << 10

// pieceCut is how a save cuts size bytes for p writer lanes (cutPieces): k
// pieces of whole units, the first extra of them base+1 units long and the
// rest base, the last clipped to size. Piece i spans [start(i), start(i+1)).
type pieceCut struct{ size, unit, k, base, extra int64 }

// cutPieces cuts size bytes into k = ⌈size/chunk⌉ pieces rounded up to a
// multiple of p, so each of p lanes persists the same share and the last
// round of a save does not run on fewer lanes (§3.3: Tw prices a save as each
// thread writing 1/p of it). The unit is gcd(align, chunk), so a piece is
// aligned and never exceeds chunk; k never exceeds the units in size.
func cutPieces(size, chunk int64, p int, align int64) pieceCut {
	unit := align
	for r := chunk; r != 0; {
		unit, r = r, unit%r
	}
	units := (size + unit - 1) / unit
	k := max(1, min(units, ((size+chunk-1)/chunk+int64(p)-1)/int64(p)*int64(p)))
	return pieceCut{size, unit, k, units / k, units % k}
}

// laneCut cuts size bytes into at most p pieces of whole align units (the
// last clipped to size): a pass's share per reader or diff worker.
func laneCut(size int64, p int, align int64) pieceCut {
	return cutPieces(size, size/align*align+align, p, align)
}

// start is the payload offset piece i starts at; start(k) is size.
func (pc pieceCut) start(i int64) int64 {
	return min(pc.size, pc.unit*(i*pc.base+min(i, pc.extra)))
}

// Slot payload kinds. A delta slot's payload is a delta record (see
// delta.go) against the checkpoint identified by the header's baseCounter.
const (
	slotKindFull  = 0
	slotKindDelta = 1
)

// Slot header flag bits. A quarantined slot is a tombstone the scrubber
// leaves when a committed copy is damaged beyond repair (no healthy tier or
// replica to rewrite it from): recovery skips the slot entirely and falls
// back to the other pointer record, so corrupt bytes are never served. The
// flag lives in the CRC-covered header, and a writer reusing the slot
// clears it implicitly — every fresh header is written with flags 0.
const slotFlagQuarantined uint8 = 1 << 0

// checkMeta mirrors the paper's Check_meta class: which slot holds the data
// and the checkpoint's global order. For delta checkpoints, size is the
// stored record length; fullSize is the logical payload length after
// applying the chain.
type checkMeta struct {
	slot     int
	counter  uint64
	size     int64
	kind     uint8
	base     uint64 // counter of the chain predecessor (delta only)
	fullSize int64  // logical payload size (delta only)
}

// logicalSize is the payload length a reader sees: the reconstructed size
// for deltas, the stored size otherwise.
func (m checkMeta) logicalSize() int64 {
	if m.kind == slotKindDelta {
		return m.fullSize
	}
	return m.size
}

// --- superblock -----------------------------------------------------------

type superblock struct {
	slots     int // N+1
	slotBytes int64
	// epoch identifies one format generation: New stamps a fresh value into
	// the superblock and every slot header written under it. Recovery rejects
	// slot headers whose epoch differs from the superblock's, so a reformat
	// can never resurrect payloads persisted under a previous image — slot
	// headers left intact by the old image carry the old epoch. Epoch 0 is
	// the legacy value of pre-epoch images (headers and superblock agree at
	// 0, so they keep recovering).
	epoch uint64
	// deltaKeyframe is K when the device was formatted for delta
	// checkpointing (K of the slots are reserved for the pinned chain), 0
	// for a plain device. Pre-delta images decode as 0, so the format
	// version is unchanged.
	deltaKeyframe int
	// blackBoxBytes is the size of the crash-surviving telemetry region
	// reserved after the slot area, 0 when the device was formatted
	// without one. Pre-forensics images decode as 0, so the format
	// version is unchanged.
	blackBoxBytes int64
}

func (sb superblock) encode() []byte {
	buf := make([]byte, 64)
	binary.LittleEndian.PutUint32(buf[0:], superMagic)
	binary.LittleEndian.PutUint32(buf[4:], formatVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(sb.slots))
	binary.LittleEndian.PutUint64(buf[16:], uint64(sb.slotBytes))
	binary.LittleEndian.PutUint64(buf[24:], sb.epoch)
	binary.LittleEndian.PutUint32(buf[32:], uint32(sb.deltaKeyframe))
	binary.LittleEndian.PutUint64(buf[40:], uint64(sb.blackBoxBytes))
	binary.LittleEndian.PutUint32(buf[60:], crc32.ChecksumIEEE(buf[:60]))
	return buf
}

func decodeSuperblock(buf []byte) (superblock, error) {
	if len(buf) < 64 {
		return superblock{}, ErrNotFormatted
	}
	if binary.LittleEndian.Uint32(buf[0:]) != superMagic {
		return superblock{}, ErrNotFormatted
	}
	if binary.LittleEndian.Uint32(buf[60:]) != crc32.ChecksumIEEE(buf[:60]) {
		return superblock{}, fmt.Errorf("core: superblock checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != formatVersion {
		return superblock{}, fmt.Errorf("core: unsupported format version %d", v)
	}
	sb := superblock{
		slots:         int(binary.LittleEndian.Uint32(buf[8:])),
		slotBytes:     int64(binary.LittleEndian.Uint64(buf[16:])),
		epoch:         binary.LittleEndian.Uint64(buf[24:]),
		deltaKeyframe: int(binary.LittleEndian.Uint32(buf[32:])),
		blackBoxBytes: int64(binary.LittleEndian.Uint64(buf[40:])),
	}
	if sb.slots < 2 || sb.slotBytes <= 0 {
		return superblock{}, fmt.Errorf("core: implausible superblock: %d slots of %d bytes", sb.slots, sb.slotBytes)
	}
	if sb.deltaKeyframe < 0 || sb.slots-1-sb.deltaKeyframe < 1 {
		return superblock{}, fmt.Errorf("core: implausible superblock: %d slots with keyframe cadence %d", sb.slots, sb.deltaKeyframe)
	}
	if sb.blackBoxBytes < 0 {
		return superblock{}, fmt.Errorf("core: implausible superblock: black box region of %d bytes", sb.blackBoxBytes)
	}
	return sb, nil
}

// --- pointer records --------------------------------------------------------

// encodeRecord serializes a pointer record. A record is self-validating
// (CRC) so recovery can detect torn writes and fall back to the other copy.
func encodeRecord(meta checkMeta) []byte { return meta.putRecord(make([]byte, recordSize)) }

// putRecord encodes into buf, setting all recordSize bytes, and returns it:
// the save path keeps one scratch per engine.
func (m checkMeta) putRecord(buf []byte) []byte {
	clear(buf[:recordSize])
	binary.LittleEndian.PutUint64(buf[0:], m.counter)
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.slot))
	binary.LittleEndian.PutUint64(buf[12:], uint64(m.size))
	binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	return buf
}

func decodeRecord(buf []byte) (checkMeta, bool) {
	if len(buf) < recordSize {
		return checkMeta{}, false
	}
	if binary.LittleEndian.Uint32(buf[24:]) != crc32.ChecksumIEEE(buf[:24]) {
		return checkMeta{}, false
	}
	m := checkMeta{
		counter: binary.LittleEndian.Uint64(buf[0:]),
		slot:    int(binary.LittleEndian.Uint32(buf[8:])),
		size:    int64(binary.LittleEndian.Uint64(buf[12:])),
	}
	if m.counter == 0 {
		return checkMeta{}, false // counter 0 is "never written"
	}
	return m, true
}

// --- slot headers -----------------------------------------------------------

type slotHeader struct {
	counter    uint64
	size       int64
	payloadCRC uint32
	hasCRC     bool
	// epoch is the format generation the header was written under; recovery
	// only trusts headers whose epoch matches the superblock's.
	epoch uint64
	// kind distinguishes full payloads from delta records. Delta headers
	// also carry the chain predecessor's counter and the logical payload
	// size. Pre-delta headers decode with zeros, i.e. as full payloads.
	kind     uint8
	base     uint64
	fullSize int64
	// flags carries slot state bits (slotFlagQuarantined). Pre-scrub
	// headers decode with zero flags, so old images are unaffected.
	flags uint8
}

// quarantined reports whether the header is a scrubber tombstone.
func (h slotHeader) quarantined() bool { return h.flags&slotFlagQuarantined != 0 }

func encodeSlotHeader(h slotHeader) []byte { return h.put(make([]byte, slotHeaderSize)) }

// put encodes into buf, setting all slotHeaderSize bytes, and returns it: the
// save path keeps one scratch per slot.
func (h slotHeader) put(buf []byte) []byte {
	clear(buf[:slotHeaderSize])
	binary.LittleEndian.PutUint64(buf[0:], h.counter)
	binary.LittleEndian.PutUint64(buf[8:], uint64(h.size))
	binary.LittleEndian.PutUint32(buf[16:], h.payloadCRC)
	if h.hasCRC {
		buf[20] = 1
	}
	buf[21] = h.kind
	buf[22] = h.flags
	binary.LittleEndian.PutUint64(buf[24:], h.epoch)
	binary.LittleEndian.PutUint64(buf[32:], h.base)
	binary.LittleEndian.PutUint64(buf[40:], uint64(h.fullSize))
	binary.LittleEndian.PutUint32(buf[60:], crc32.ChecksumIEEE(buf[:60]))
	return buf
}

func decodeSlotHeader(buf []byte) (slotHeader, bool) {
	if len(buf) < slotHeaderSize {
		return slotHeader{}, false
	}
	if binary.LittleEndian.Uint32(buf[60:]) != crc32.ChecksumIEEE(buf[:60]) {
		return slotHeader{}, false
	}
	return slotHeader{
		counter:    binary.LittleEndian.Uint64(buf[0:]),
		size:       int64(binary.LittleEndian.Uint64(buf[8:])),
		payloadCRC: binary.LittleEndian.Uint32(buf[16:]),
		hasCRC:     buf[20] == 1,
		kind:       buf[21],
		flags:      buf[22],
		epoch:      binary.LittleEndian.Uint64(buf[24:]),
		base:       binary.LittleEndian.Uint64(buf[32:]),
		fullSize:   int64(binary.LittleEndian.Uint64(buf[40:])),
	}, true
}

// slotBase returns the device offset of slot i's header.
func slotBase(sb superblock, i int) int64 {
	return headerSize + int64(i)*slotStride(sb.slotBytes)
}

// payloadBase returns the device offset of slot i's payload.
func payloadBase(sb superblock, i int) int64 {
	return slotBase(sb, i) + slotHeaderSize
}

// blackBoxBase returns the device offset of the black-box telemetry
// region: sector-aligned, after the last slot.
func blackBoxBase(sb superblock) int64 {
	return alignSector(headerSize + int64(sb.slots)*slotStride(sb.slotBytes))
}
