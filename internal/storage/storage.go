// Package storage provides the persistent-device abstraction the checkpoint
// engine writes to, with implementations for an SSD (file-backed, explicit
// sync — the mmap+msync path of the paper), emulated PMEM (non-temporal
// stores + fences over a pmem.Region), and plain RAM (for tests and for
// modelling Gemini's remote-DRAM target).
//
// Devices optionally carry bandwidth pacing (see Throttle) so that the *real*
// engine reproduces the contention effects the paper measures: a single
// writer thread cannot saturate the device, several writers can, and too many
// concurrent checkpoints merely fight over the same tokens (§5.4.1–§5.4.2).
package storage

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"sync"

	"pccheck/internal/pmem"
)

// Kind identifies the persistence technology of a device.
type Kind int

const (
	// KindSSD is a block device persisted with an explicit sync call.
	KindSSD Kind = iota
	// KindPMEM is byte-addressable persistent memory persisted with
	// store+fence sequences.
	KindPMEM
	// KindRAM is volatile memory; Sync is a no-op and nothing survives a
	// crash. Used for tests and for remote-DRAM checkpoint targets.
	KindRAM
	// KindRemote is a remote durability target reached over a network — an
	// object-store bucket or a replication peer. Syncs behave like SSD
	// (explicit barrier); all ops can fail transiently when the remote is
	// unreachable.
	KindRemote
)

func (k Kind) String() string {
	switch k {
	case KindSSD:
		return "ssd"
	case KindPMEM:
		return "pmem"
	case KindRAM:
		return "ram"
	case KindRemote:
		return "remote"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Device is a fixed-size persistent address space.
//
// WriteAt makes data visible but not necessarily durable. Sync makes all
// writes issued by this goroutine (and, for SSD, by everyone) durable over
// the given range. Persist combines both for the common
// write-and-make-durable case and is the fast path on PMEM (non-temporal
// store + sfence).
type Device interface {
	io.Closer
	// WriteAt stores p at off. Durability requires a subsequent Sync. p is
	// the caller's (often the trainer's own state, written without a staging
	// copy): a device reads it during the call and must not retain it.
	WriteAt(p []byte, off int64) error
	// ReadAt fills p from off.
	ReadAt(p []byte, off int64) error
	// Sync is a persistence barrier covering [off, off+n).
	Sync(off, n int64) error
	// Persist writes p at off and makes it durable before returning.
	Persist(p []byte, off int64) error
	// Size returns the device capacity in bytes.
	Size() int64
	// Kind reports the persistence technology.
	Kind() Kind
}

// Backend is the name the conformance suite (storagetest) gives the Device
// contract: every backend — local, layered or remote — must satisfy the same
// WriteAt/ReadAt/Sync/Persist semantics, proven once by the shared suite.
type Backend = Device

func checkRange(size, off int64, n int) error {
	// off+int64(n) can wrap negative for adversarial offsets near MaxInt64
	// (a corrupt slot or delta header is exactly where such offsets come
	// from), so the bound is checked without computing the sum.
	if off < 0 || n < 0 || int64(n) > size || off > size-int64(n) {
		return fmt.Errorf("storage: range [%d,+%d) outside device of %d bytes", off, n, size)
	}
	return nil
}

// ---------------------------------------------------------------------------
// SSD

// SSD is a file-backed device. Writes go to the page cache; Sync forces them
// to stable storage, mirroring the paper's mmap+msync SSD path.
type SSD struct {
	f        *os.File
	size     int64
	throttle *Throttle
}

// SSDOption configures an SSD device.
type SSDOption func(*SSD)

// WithSSDThrottle paces all writes through th, the device-level bandwidth
// cap.
func WithSSDThrottle(th *Throttle) SSDOption {
	return func(d *SSD) { d.throttle = th }
}

// OpenSSD creates (or truncates) a file-backed device of the given size.
func OpenSSD(path string, size int64, opts ...SSDOption) (*SSD, error) {
	if size < 0 {
		return nil, fmt.Errorf("storage: negative SSD size %d", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	d := &SSD{f: f, size: size}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// sizeProbes validate a reopened device file's size against whatever
// superblock its first bytes decode to. Registered by format owners (the
// checkpoint core) so the storage layer need not understand their layout.
var (
	sizeProbesMu sync.RWMutex
	sizeProbes   []SizeProbe
)

// SizeProbe inspects the first bytes of a device (at least SizeProbeBytes)
// and, when it recognises a format it owns, returns the device size that
// format requires and ok=true. Unrecognised contents return ok=false.
type SizeProbe func(header []byte) (required int64, ok bool)

// SizeProbeBytes is how many leading device bytes a SizeProbe is handed.
const SizeProbeBytes = 64

// RegisterSizeProbe adds a format's size validator to ReopenSSD. Safe for
// concurrent use; probes run in registration order and the first to
// recognise the header wins.
func RegisterSizeProbe(p SizeProbe) {
	sizeProbesMu.Lock()
	sizeProbes = append(sizeProbes, p)
	sizeProbesMu.Unlock()
}

// validateReopenedSize cross-checks a reopened file's size against the
// registered format probes. A recognised superblock whose required size does
// not match the file — truncated *or* grown — is corruption worth failing at
// open time, not deep in recovery as a confusing range error.
func validateReopenedSize(f *os.File, size int64) error {
	head := make([]byte, SizeProbeBytes)
	if size < SizeProbeBytes {
		return nil // too small to hold any known superblock; probes can't speak
	}
	if _, err := f.ReadAt(head, 0); err != nil {
		return err
	}
	sizeProbesMu.RLock()
	probes := sizeProbes
	sizeProbesMu.RUnlock()
	for _, p := range probes {
		required, ok := p(head)
		if !ok {
			continue
		}
		if required != size {
			return Corrupt(fmt.Errorf("storage: device file is %d bytes but its superblock requires %d (truncated or grown since format)", size, required))
		}
		return nil
	}
	return nil
}

// ReopenSSD opens an existing device file without truncating it — the
// post-crash recovery path. The file size is validated against the
// superblock (via the registered SizeProbes): a truncated or grown device
// file fails here with a classified Corrupt error instead of surfacing later
// as a range error deep in recovery.
func ReopenSSD(path string, opts ...SSDOption) (*SSD, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := validateReopenedSize(f, st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	d := &SSD{f: f, size: st.Size()}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

func (d *SSD) pace(n int) { d.throttle.Acquire(n) }

// WriteAt implements Device.
func (d *SSD) WriteAt(p []byte, off int64) error {
	if err := checkRange(d.size, off, len(p)); err != nil {
		return err
	}
	d.pace(len(p))
	_, err := d.f.WriteAt(p, off)
	return err
}

// ReadAt implements Device.
func (d *SSD) ReadAt(p []byte, off int64) error {
	if err := checkRange(d.size, off, len(p)); err != nil {
		return err
	}
	_, err := d.f.ReadAt(p, off)
	return err
}

// Sync implements Device. File sync has no range granularity; the arguments
// are validated and the whole file is synced, which is what msync over the
// checkpoint mapping amounts to in the paper's implementation.
func (d *SSD) Sync(off, n int64) error {
	if err := checkRange(d.size, off, int(n)); err != nil {
		return err
	}
	return d.f.Sync()
}

// Persist implements Device.
func (d *SSD) Persist(p []byte, off int64) error {
	if err := d.WriteAt(p, off); err != nil {
		return err
	}
	return d.f.Sync()
}

// Size implements Device.
func (d *SSD) Size() int64 { return d.size }

// Kind implements Device.
func (d *SSD) Kind() Kind { return KindSSD }

// Close implements io.Closer. An orderly shutdown implies durability: the
// file is synced before it is closed, so writes since the last explicit Sync
// are not left to the page cache's mercy.
func (d *SSD) Close() error {
	syncErr := d.f.Sync()
	if err := d.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// ---------------------------------------------------------------------------
// PMEM

// PMEMMode selects the persist instruction sequence (§3.3 of the paper).
type PMEMMode int

const (
	// NTStore uses non-temporal stores + sfence (the faster path the paper
	// selects: 4.01 GB/s on their machine).
	NTStore PMEMMode = iota
	// CLWB uses cached stores + clwb + sfence (2.46 GB/s).
	CLWB
)

// PMEM adapts a pmem.Region to the Device interface.
type PMEM struct {
	region   *pmem.Region
	mode     PMEMMode
	throttle *Throttle
}

// PMEMOption configures a PMEM device.
type PMEMOption func(*PMEM)

// WithPMEMMode selects the instruction sequence used by WriteAt/Persist.
func WithPMEMMode(m PMEMMode) PMEMOption { return func(d *PMEM) { d.mode = m } }

// WithPMEMThrottle paces writes through the given device-level cap.
func WithPMEMThrottle(th *Throttle) PMEMOption {
	return func(d *PMEM) { d.throttle = th }
}

// NewPMEM wraps region as a Device.
func NewPMEM(region *pmem.Region, opts ...PMEMOption) *PMEM {
	d := &PMEM{region: region, mode: NTStore}
	for _, o := range opts {
		o(d)
	}
	return d
}

// Region exposes the underlying emulated region (for crash injection in
// tests).
func (d *PMEM) Region() *pmem.Region { return d.region }

func (d *PMEM) pace(n int) { d.throttle.Acquire(n) }

// WriteAt implements Device. In NTStore mode the data is queued for
// persistence and becomes durable at the next Sync (sfence); in CLWB mode it
// is a cached store followed by a write-back, likewise durable at Sync.
func (d *PMEM) WriteAt(p []byte, off int64) error {
	d.pace(len(p))
	switch d.mode {
	case NTStore:
		return d.region.NTStore(int(off), p)
	case CLWB:
		if err := d.region.Store(int(off), p); err != nil {
			return err
		}
		return d.region.WriteBack(int(off), len(p))
	default:
		return fmt.Errorf("storage: unknown PMEM mode %d", d.mode)
	}
}

// ReadAt implements Device.
func (d *PMEM) ReadAt(p []byte, off int64) error {
	return d.region.ReadAt(p, int(off))
}

// Sync implements Device: an sfence.
func (d *PMEM) Sync(off, n int64) error {
	if err := checkRange(int64(d.region.Size()), off, int(n)); err != nil {
		return err
	}
	d.region.Fence()
	return nil
}

// Persist implements Device: store + fence as one durable operation.
func (d *PMEM) Persist(p []byte, off int64) error {
	d.pace(len(p))
	return d.region.Persist(int(off), p)
}

// Size implements Device.
func (d *PMEM) Size() int64 { return int64(d.region.Size()) }

// Kind implements Device.
func (d *PMEM) Kind() Kind { return KindPMEM }

// Close implements io.Closer.
func (d *PMEM) Close() error { return nil }

// ---------------------------------------------------------------------------
// RAM

// RAM is a volatile in-memory device. Sync succeeds but provides no crash
// durability. It backs unit tests and models DRAM checkpoint targets.
//
// Calls are atomic with respect to each other, as under one device-wide
// lock, but calls on disjoint ranges copy in parallel: the address space is
// cut into 1 MiB units hashed onto 64 lock stripes, and a call holds every
// stripe its range touches for the whole copy (all at once, not stripe by
// stripe: a reader must never see half of a record that straddles a unit).
type RAM struct {
	stripes [64]sync.RWMutex
	data    []byte
}

// NewRAM allocates a zeroed volatile device.
func NewRAM(size int64) *RAM { return &RAM{data: make([]byte, size)} }

// NewRAMFromBytes wraps data as a volatile device without copying — the
// crash explorer mounts each materialized post-crash image this way. The
// device owns data from here on.
func NewRAMFromBytes(data []byte) *RAM { return &RAM{data: data} }

// ramStripeMask returns the stripes covering [off, off+n) as a bit set. The
// unit index is hashed (Fibonacci multiply, top six bits) rather than taken
// modulo 64: checkpoint slots are a payload apart, so a modulus would put the
// same relative offset of every slot on the same stripe and writers moving
// through two slots in step would still serialise.
func ramStripeMask(off int64, n int) uint64 {
	if n == 0 {
		return 0
	}
	first, last := uint64(off)>>20, uint64(off+int64(n)-1)>>20
	if last-first >= 62 { // 63 units or more: every stripe
		return ^uint64(0)
	}
	var mask uint64
	for u := first; u <= last; u++ {
		mask |= 1 << (u * 0x9E3779B97F4A7C15 >> 58)
	}
	return mask
}

// WriteAt implements Device. Stripes are taken in ascending index, so calls
// with overlapping stripe sets cannot deadlock.
func (d *RAM) WriteAt(p []byte, off int64) error {
	if err := checkRange(int64(len(d.data)), off, len(p)); err != nil {
		return err
	}
	mask := ramStripeMask(off, len(p))
	for m := mask; m != 0; m &= m - 1 {
		d.stripes[bits.TrailingZeros64(m)].Lock()
	}
	copy(d.data[off:], p)
	for m := mask; m != 0; m &= m - 1 {
		d.stripes[bits.TrailingZeros64(m)].Unlock()
	}
	return nil
}

// ReadAt implements Device; it shares its stripes with other readers.
func (d *RAM) ReadAt(p []byte, off int64) error {
	if err := checkRange(int64(len(d.data)), off, len(p)); err != nil {
		return err
	}
	mask := ramStripeMask(off, len(p))
	for m := mask; m != 0; m &= m - 1 {
		d.stripes[bits.TrailingZeros64(m)].RLock()
	}
	copy(p, d.data[off:])
	for m := mask; m != 0; m &= m - 1 {
		d.stripes[bits.TrailingZeros64(m)].RUnlock()
	}
	return nil
}

// Sync implements Device (a no-op on volatile memory).
func (d *RAM) Sync(off, n int64) error {
	return checkRange(int64(len(d.data)), off, int(n))
}

// Persist implements Device.
func (d *RAM) Persist(p []byte, off int64) error { return d.WriteAt(p, off) }

// Size implements Device.
func (d *RAM) Size() int64 { return int64(len(d.data)) }

// Kind implements Device.
func (d *RAM) Kind() Kind { return KindRAM }

// Close implements io.Closer.
func (d *RAM) Close() error { return nil }

var (
	_ Device = (*SSD)(nil)
	_ Device = (*PMEM)(nil)
	_ Device = (*RAM)(nil)
)
