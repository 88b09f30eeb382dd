//go:build linux

package simd

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestCPUFeaturesMatchCPUInfo: the CPUID/XGETBV check turns each kernel on
// exactly where the kernel reports its features usable.
func TestCPUFeaturesMatchCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		f := strings.Fields(flags)
		avx512f := slices.Contains(f, "avx512f")
		if want := avx512f; CPU.Stream != want {
			t.Errorf("CPU.Stream = %v, /proc/cpuinfo says avx512f = %v", CPU.Stream, want)
		}
		if want := avx512f && slices.Contains(f, "vpclmulqdq"); CPU.Fold != want {
			t.Errorf("CPU.Fold = %v, /proc/cpuinfo says avx512f && vpclmulqdq = %v", CPU.Fold, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
