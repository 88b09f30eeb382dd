// Package simd holds the engine's AVX-512 kernels: the payload CRC fold
// (CRC32Update), the streaming-store copy into a RAM device (StreamCopy),
// and the two in one pass (StreamCopyCRC). Each returns exactly what its
// standard-library counterpart does, and falls back to it on a CPU without
// the kernel's features and on every GOARCH but amd64.
package simd

import (
	"hash/crc32"
	"unsafe"
)

// Features says which kernels this CPU runs.
type Features struct {
	Stream bool // StreamCopy: AVX-512F, and the OS saves ZMM state
	Fold   bool // CRC32Update: Stream's needs plus VPCLMULQDQ, PCLMULQDQ and SSE4.1
	// StreamCopyCRC runs its kernel only where both are set.
}

// CPU is read once at start-up. Library code only reads it; tests clear a
// field to run the fallback.
var CPU = detect()

// foldMin is the shortest buffer worth foldIEEE's fixed ≈25 ns reduction;
// at 256 bytes hash/crc32's 128-bit fold is as fast.
const foldMin = 512

// streamMin is the shortest copy StreamCopy streams. A RAM device's save
// piece is copied as a head of up to 1 MiB, whole 1 MiB units and a short
// tail; streaming every copy of 64 KiB or more also takes the head.
const streamMin = 64 << 10

// CRC32Update returns crc32.Update(crc, crc32.IEEETable, p).
func CRC32Update(crc uint32, p []byte) uint32 {
	if CPU.Fold && len(p) >= foldMin {
		n := len(p) &^ 255
		raceRead(p[:n])
		crc = ^foldIEEE(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}

// StreamCopy is copy(dst, src), except that a copy of streamMin bytes or
// more goes around the cache: its bytes are visible to every core when it
// returns, and none of them is left in this core's cache. Nothing should
// read them back soon.
func StreamCopy(dst, src []byte) int {
	n := min(len(dst), len(src))
	if !CPU.Stream || n < streamMin || overlap(dst[:n], src[:n]) {
		return copy(dst, src)
	}
	streamCopy(dst[:n], src[:n])
	return n
}

// StreamCopyCRC is StreamCopy that also returns crc32.Update(crc,
// crc32.IEEETable, src[:n]): where it streams, one kernel folds the CRC from
// the registers it stores, so src is read from memory once. Anywhere else it
// is CRC32Update, then StreamCopy.
func StreamCopyCRC(dst, src []byte, crc uint32) (n int, _ uint32) {
	n = min(len(dst), len(src))
	if !CPU.Stream || !CPU.Fold || n < streamMin || overlap(dst[:n], src[:n]) {
		crc = CRC32Update(crc, src[:n])
		return StreamCopy(dst, src), crc
	}
	return n, streamCopyCRC(dst[:n], src[:n], crc)
}

// streamCopy copies src into dst (as long, not overlapping): copy up to
// 64-byte dst alignment, the kernel over whole 256-byte steps, copy the rest.
func streamCopy(dst, src []byte) {
	head, body := split(dst)
	copy(dst[:head], src)
	if body > 0 {
		d, s := dst[head:head+body], src[head:head+body]
		raceRead(s)
		raceWrite(d)
		copyNT(d, s)
	}
	copy(dst[head+body:], src[head+body:])
}

// streamCopyCRC is streamCopy that folds what it copies into crc.
func streamCopyCRC(dst, src []byte, crc uint32) uint32 {
	head, body := split(dst)
	crc = CRC32Update(crc, src[:head])
	copy(dst[:head], src)
	if body > 0 {
		d, s := dst[head:head+body], src[head:head+body]
		raceRead(s)
		raceWrite(d)
		crc = ^copyFoldNT(d, s, ^crc)
	}
	crc = CRC32Update(crc, src[head+body:])
	copy(dst[head+body:], src[head+body:])
	return crc
}

// split cuts dst into the bytes up to 64-byte alignment and the whole
// 256-byte steps after them, the span a kernel takes.
func split(dst []byte) (head, body int) {
	head = min(len(dst), int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst)))&63))
	return head, (len(dst) - head) &^ 255
}

func overlap(a, b []byte) bool {
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}
