package simd

import "testing"

// legs runs fn with the kernels this CPU has, then again with none, so a
// machine with AVX-512 covers the fallback too.
func legs(t *testing.T, fn func(t *testing.T)) {
	t.Run("kernel", fn)
	with(t, "fallback", Features{}, fn)
}

// crcLegs is legs plus a leg with CPU.Fold cleared and one with CPU.Stream
// cleared: StreamCopyCRC's kernel needs both, so either alone falls back.
func crcLegs(t *testing.T, fn func(t *testing.T)) {
	legs(t, fn)
	with(t, "nofold", Features{Stream: CPU.Stream}, fn)
	with(t, "nostream", Features{Fold: CPU.Fold}, fn)
}

// with runs fn as subtest name with CPU set to f.
func with(t *testing.T, name string, f Features, fn func(t *testing.T)) {
	t.Run(name, func(t *testing.T) {
		defer func(saved Features) { CPU = saved }(CPU)
		CPU = f
		fn(t)
	})
}
