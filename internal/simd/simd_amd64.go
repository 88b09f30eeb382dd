package simd

func detect() Features {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return Features{}
	}
	const (
		pclmulqdq = 1 << 1  // CPUID.1:ECX
		sse41     = 1 << 19 // CPUID.1:ECX
		osxsave   = 1 << 27 // CPUID.1:ECX
		avx512f   = 1 << 16 // CPUID.7.0:EBX
		vpclmul   = 1 << 10 // CPUID.7.0:ECX
		zmmState  = 0xe6    // XCR0: XMM, YMM, opmask and ZMM
	)
	_, _, c1, _ := cpuid(1, 0)
	_, b7, c7, _ := cpuid(7, 0)
	if c1&osxsave == 0 || b7&avx512f == 0 {
		return Features{}
	}
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return Features{}
	}
	return Features{
		Stream: true,
		Fold:   c1&(pclmulqdq|sse41) == pclmulqdq|sse41 && c7&vpclmul != 0,
	}
}

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (lo, hi uint32)

// foldIEEE advances the raw IEEE CRC register (crc32.Update's value
// inverted, as for hash/crc32's ieeeCLMUL) over p, 4 × 512 bits at a time;
// len(p) is a positive multiple of 256.
//
//go:noescape
func foldIEEE(crc uint32, p []byte) uint32

// copyNT copies src into dst with streaming stores and fences; the two are
// as long, a positive multiple of 256, and dst is 64-byte aligned.
//
//go:noescape
func copyNT(dst, src []byte)

// copyFoldNT is copyNT that also advances the raw IEEE CRC register over src
// (as foldIEEE does) from the registers it stores.
//
//go:noescape
func copyFoldNT(dst, src []byte, crc uint32) uint32
