//go:build !amd64

package simd

// No kernel runs off amd64: CPU reports none, so no stub is called.
func detect() Features { return Features{} }

func foldIEEE(uint32, []byte) uint32 { panic("simd: no CRC fold kernel on this GOARCH") }

func copyNT(dst, src []byte) { panic("simd: no streaming-copy kernel on this GOARCH") }

func copyFoldNT([]byte, []byte, uint32) uint32 { panic("simd: no streaming CRC kernel on this GOARCH") }
