// Package tensor provides dense float32 tensors and a compact binary codec.
//
// Tensors are the unit of training state in this repository: model
// parameters, gradients, and optimizer moments are all tensors. The codec is
// deliberately simple — a fixed header, raw little-endian payload, and a
// CRC32 checksum — because checkpoint serialization speed is on the critical
// path of everything the paper measures.
package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32
}

// New returns a zero tensor with the given shape. A scalar has an empty
// shape. New panics on negative dimensions; a zero dimension yields an empty
// tensor.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d", d))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly, not copied. It returns an error if len(data) does not match the
// shape volume.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("tensor: negative dimension %d", d)
		}
		n *= d
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape volume %d", len(data), n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// Randn fills a new tensor with pseudo-normal values scaled by std, using the
// provided source for determinism.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Bytes returns the payload size in bytes when serialized (excluding the
// header).
func (t *Tensor) Bytes() int { return 4 * len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given row-major indices.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given row-major indices.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: %d indices for %d-d tensor", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d)", x, t.shape[i]))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal volume.
func (t *Tensor) CopyFrom(src *Tensor) error {
	if len(t.data) != len(src.data) {
		return fmt.Errorf("tensor: copy volume mismatch %d != %d", len(t.data), len(src.data))
	}
	copy(t.data, src.data)
	return nil
}

// Zero sets all elements to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Equal reports whether u has the same shape and bit-identical contents.
func (t *Tensor) Equal(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	for i := range t.data {
		if math.Float32bits(t.data[i]) != math.Float32bits(u.data[i]) {
			return false
		}
	}
	return true
}

// String renders a short description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v(%d elems)", t.shape, len(t.data))
}

// Codec framing:
//
//	magic   uint32  "PCTN"
//	ndim    uint32
//	dims    ndim × uint32
//	payload 4·volume bytes of little-endian float32
//	crc32   uint32 over payload
const magic = 0x5043544e // "PCTN"

var (
	// ErrBadMagic is returned when decoding data that is not a tensor.
	ErrBadMagic = errors.New("tensor: bad magic")
	// ErrChecksum is returned when the payload fails CRC validation —
	// typically a torn or corrupted checkpoint.
	ErrChecksum = errors.New("tensor: checksum mismatch")
)

// EncodedSize returns the total number of bytes WriteTo will produce.
func (t *Tensor) EncodedSize() int {
	return 4 + 4 + 4*len(t.shape) + 4*len(t.data) + 4
}

// WriteTo serializes the tensor to w in the codec framing above.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, t.EncodedSize())
	n, err := t.Encode(buf)
	if err != nil {
		return 0, err
	}
	written, err := w.Write(buf[:n])
	return int64(written), err
}

// Encode serializes the tensor into dst, returning the number of bytes
// written. dst must be at least EncodedSize() long.
func (t *Tensor) Encode(dst []byte) (int, error) {
	need := t.EncodedSize()
	if len(dst) < need {
		return 0, fmt.Errorf("tensor: encode buffer too small: %d < %d", len(dst), need)
	}
	off := 0
	binary.LittleEndian.PutUint32(dst[off:], magic)
	off += 4
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(t.shape)))
	off += 4
	for _, d := range t.shape {
		binary.LittleEndian.PutUint32(dst[off:], uint32(d))
		off += 4
	}
	payloadStart := off
	for _, v := range t.data {
		binary.LittleEndian.PutUint32(dst[off:], math.Float32bits(v))
		off += 4
	}
	sum := crc32.ChecksumIEEE(dst[payloadStart:off])
	binary.LittleEndian.PutUint32(dst[off:], sum)
	off += 4
	return off, nil
}

// Decode parses a tensor from src, returning the tensor and the number of
// bytes consumed.
func Decode(src []byte) (*Tensor, int, error) {
	if len(src) < 8 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	off := 0
	if binary.LittleEndian.Uint32(src[off:]) != magic {
		return nil, 0, ErrBadMagic
	}
	off += 4
	ndim := int(binary.LittleEndian.Uint32(src[off:]))
	off += 4
	if ndim > 8 {
		return nil, 0, fmt.Errorf("tensor: implausible ndim %d", ndim)
	}
	if len(src) < off+4*ndim {
		return nil, 0, io.ErrUnexpectedEOF
	}
	shape := make([]int, ndim)
	vol := 1
	// The payload must fit in src, so any dimension product beyond
	// len(src)/4 is invalid; rejecting oversized dimensions eagerly also
	// prevents integer overflow of the product.
	maxVol := len(src) / 4
	for i := range shape {
		d := int(binary.LittleEndian.Uint32(src[off:]))
		off += 4
		shape[i] = d
		if vol != 0 && d > 0 && d > maxVol/vol {
			return nil, 0, io.ErrUnexpectedEOF
		}
		vol *= d
	}
	if off+4*vol+4 > len(src) {
		return nil, 0, io.ErrUnexpectedEOF
	}
	payload := src[off : off+4*vol]
	sum := crc32.ChecksumIEEE(payload)
	data := make([]float32, vol)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	off += 4 * vol
	if binary.LittleEndian.Uint32(src[off:]) != sum {
		return nil, 0, ErrChecksum
	}
	off += 4
	return &Tensor{shape: shape, data: data}, off, nil
}

// ReadFrom deserializes a tensor previously written with WriteTo.
func ReadFrom(r io.Reader) (*Tensor, error) {
	head := make([]byte, 8)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(head) != magic {
		return nil, ErrBadMagic
	}
	ndim := int(binary.LittleEndian.Uint32(head[4:]))
	if ndim > 8 {
		return nil, fmt.Errorf("tensor: implausible ndim %d", ndim)
	}
	dims := make([]byte, 4*ndim)
	if _, err := io.ReadFull(r, dims); err != nil {
		return nil, err
	}
	shape := make([]int, ndim)
	vol := int64(1)
	// Refuse absurd allocations from bad input, and any 4*vol+4 an int cannot hold.
	const maxStreamVol int64 = min(1<<31, (math.MaxInt-4)/4)
	for i := range shape {
		d := int64(binary.LittleEndian.Uint32(dims[4*i:]))
		shape[i] = int(d)
		if d == 0 {
			vol = 0
			continue
		}
		if vol > maxStreamVol/d {
			return nil, fmt.Errorf("tensor: implausible volume")
		}
		vol *= d
	}
	rest := make([]byte, 4*vol+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, err
	}
	payload := rest[:4*vol]
	if binary.LittleEndian.Uint32(rest[4*vol:]) != crc32.ChecksumIEEE(payload) {
		return nil, ErrChecksum
	}
	data := make([]float32, vol)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return &Tensor{shape: shape, data: data}, nil
}
