//go:build linux

package core

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestHasFoldMatchesCPUInfo: the CPUID/XGETBV check turns the kernel on
// exactly where the kernel reports both features usable.
func TestHasFoldMatchesCPUInfo(t *testing.T) {
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
		want := slices.Contains(f, "avx512f") && slices.Contains(f, "vpclmulqdq")
		if hasFold != want {
			t.Fatalf("hasFold = %v, /proc/cpuinfo says avx512f && vpclmulqdq = %v", hasFold, want)
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
