// Package simd holds the engine's AVX-512 kernels: the payload CRC fold
// (CRC32Update) and the streaming-store copy into a RAM device
// (StreamCopy). Each returns exactly what its standard-library counterpart
// does, and falls back to it on a CPU without the kernel's features and on
// every GOARCH but amd64.
package simd

import (
	"hash/crc32"
	"unsafe"
)

// Features says which kernels this CPU runs.
type Features struct {
	Stream bool // StreamCopy: AVX-512F, and the OS saves ZMM state
	Fold   bool // CRC32Update: Stream's needs plus VPCLMULQDQ, PCLMULQDQ and SSE4.1
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

// streamCopy copies src into dst (as long, not overlapping): copy up to
// 64-byte dst alignment, the kernel over whole 256-byte steps, copy the rest.
func streamCopy(dst, src []byte) {
	head := min(len(dst), int(-uintptr(unsafe.Pointer(unsafe.SliceData(dst)))&63))
	body := (len(dst) - head) &^ 255
	copy(dst[:head], src)
	if body > 0 {
		d, s := dst[head:head+body], src[head:head+body]
		raceRead(s)
		raceWrite(d)
		copyNT(d, s)
	}
	copy(dst[head+body:], src[head+body:])
}

func overlap(a, b []byte) bool {
	pa, pb := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}
