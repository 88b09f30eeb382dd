package core

import "hash/crc32"

// crc32Combine returns the IEEE CRC-32 of A‖B given crc1 = CRC(A),
// crc2 = CRC(B) and len2 = len(B), without touching either byte string —
// zlib's crc32_combine. Appending len2 zero bytes to A is a linear map of
// the CRC register over GF(2); the map for one zero bit is squared up to the
// map for 2^k zero bytes and applied for every set bit of len2, so the cost
// is O(log len2) 32×32 bit-matrix products. The delta save uses it to put
// the record header, which is only known after the last chunk, in front of a
// chunk CRC that was folded while the chunks streamed.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	if len2 <= 0 {
		return crc1
	}
	var a, b [32]uint32
	a[0] = crc32.IEEE // one zero bit: shift right, feeding back the polynomial
	for n := 1; n < 32; n++ {
		a[n] = 1 << (n - 1)
	}
	gf2Square(&b, &a) // two zero bits
	gf2Square(&a, &b) // four
	for mat, tmp := &a, &b; len2 > 0; len2 >>= 1 {
		gf2Square(tmp, mat) // first round: eight zero bits, i.e. one byte
		mat, tmp = tmp, mat
		if len2&1 != 0 {
			crc1 = gf2Times(mat, crc1)
		}
	}
	return crc1 ^ crc2
}

// gf2Times multiplies the bit-matrix mat (one column per word) by vec.
func gf2Times(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i, vec = i+1, vec>>1 {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
	}
	return sum
}

func gf2Square(dst, mat *[32]uint32) {
	for n := range mat {
		dst[n] = gf2Times(mat, mat[n])
	}
}
