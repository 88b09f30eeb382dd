package core

import "hash/crc32"

// crc32Combine returns the IEEE CRC-32 of A‖B given crc1 = CRC(A),
// crc2 = CRC(B) and len2 = len(B), without touching either byte string —
// zlib's crc32_combine. Appending len2 zero bytes to A multiplies its CRC
// register by x^(8·len2) modulo the CRC polynomial; that power is built by
// squaring x^8 once per bit of len2, so the cost is O(log len2) 32-bit
// products, about a microsecond. The delta save uses it to put the record
// header, which is only known after the last chunk, in front of a chunk CRC
// that was folded while the chunks streamed; stream uses it to join what its
// readers folded.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	for x := uint32(1) << 23; len2 > 0; len2, x = len2>>1, mulModP(x, x) { // x^8: one zero byte
		if len2&1 != 0 {
			crc1 = mulModP(x, crc1)
		}
	}
	return crc1 ^ crc2
}

// mulModP multiplies two polynomials modulo the CRC polynomial, both in the
// CRC register's reflected order (bit 31 holds x^0).
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.IEEE
		} else {
			b >>= 1
		}
	}
	return p
}
