package core

import "hash/crc32"

// foldMin is the shortest buffer worth foldIEEE's fixed ≈25 ns reduction;
// at 256 bytes hash/crc32's 128-bit fold is as fast.
const foldMin = 512

// hasFold: the CPU has AVX-512F and VPCLMULQDQ, and the OS saves ZMM state.
var hasFold = hasFoldCPU()

func hasFoldCPU() bool

// foldIEEE advances the raw IEEE CRC register (crc32.Update's value
// inverted, as for hash/crc32's ieeeCLMUL) over p, 4 × 512 bits at a time;
// len(p) is a positive multiple of 256.
//
//go:noescape
func foldIEEE(crc uint32, p []byte) uint32

// crc32Update returns crc32.Update(crc, crc32.IEEETable, p).
func crc32Update(crc uint32, p []byte) uint32 {
	if hasFold && len(p) >= foldMin {
		n := len(p) &^ 255
		crc = ^foldIEEE(^crc, p[:n])
		p = p[n:]
	}
	return crc32.Update(crc, crc32.IEEETable, p)
}
