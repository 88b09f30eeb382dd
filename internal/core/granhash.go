//go:build go1.24

package core

import (
	"hash/maphash"
	"unsafe"
)

// granuleHash: one runtime-hasher call over the whole granule, no copy.
func granuleHash(seed maphash.Seed, g []byte) uint64 {
	return maphash.Comparable(seed, unsafe.String(unsafe.SliceData(g), len(g)))
}
