//go:build !go1.24

package core

import "hash/maphash"

// granuleHash for Go < 1.24 (no maphash.Comparable); goes once go.mod and bench/go.mod say 1.24.
func granuleHash(seed maphash.Seed, g []byte) uint64 { return maphash.Bytes(seed, g) }
