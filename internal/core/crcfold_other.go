//go:build !amd64

package core

import "hash/crc32"

// crc32Update returns crc32.Update(crc, crc32.IEEETable, p).
func crc32Update(crc uint32, p []byte) uint32 { return crc32.Update(crc, crc32.IEEETable, p) }
