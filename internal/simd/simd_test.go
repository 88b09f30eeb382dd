package simd

import "testing"

// legs runs fn with the kernels this CPU has, then again with none, so a
// machine with AVX-512 covers the fallback too.
func legs(t *testing.T, fn func(t *testing.T)) {
	t.Run("kernel", fn)
	t.Run("fallback", func(t *testing.T) {
		defer func(saved Features) { CPU = saved }(CPU)
		CPU = Features{}
		fn(t)
	})
}
