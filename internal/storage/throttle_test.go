package storage

import (
	"math"
	"testing"
	"time"
)

func TestThrottleReserveAdvancesTimeline(t *testing.T) {
	th := NewThrottle(1 << 20) // 1 MiB/s
	d1 := th.Reserve(1 << 20)
	d2 := th.Reserve(1 << 20)
	if !d2.After(d1) {
		t.Fatalf("second reservation %v not after first %v", d2, d1)
	}
	if gap := d2.Sub(d1); gap < 900*time.Millisecond || gap > 1100*time.Millisecond {
		t.Fatalf("1 MiB at 1 MiB/s reserved %v, want ~1s", gap)
	}
}

func TestThrottleReserveDisabled(t *testing.T) {
	var nilTh *Throttle
	if !nilTh.Reserve(100).IsZero() {
		t.Error("nil throttle reserved a deadline")
	}
	if !NewThrottle(0).Reserve(100).IsZero() {
		t.Error("unpaced throttle reserved a deadline")
	}
	if !NewThrottle(1000).Reserve(0).IsZero() {
		t.Error("zero-byte reservation booked a deadline")
	}
}

// TestThrottleReserveOverflow is the regression for the float→Duration
// overflow: a huge byte count over a tiny rate produced an out-of-range
// conversion (MinInt64 on amd64), so the deadline landed in the distant
// past, the timeline regressed, and pacing was silently disabled for every
// later caller. Before the clamp, both assertions below failed.
func TestThrottleReserveOverflow(t *testing.T) {
	th := NewThrottle(0.5) // 1 byte every 2 seconds
	before := time.Now()
	normal := th.Reserve(1)
	if normal.Before(before) {
		t.Fatalf("sane reservation %v is already in the past", normal)
	}
	huge := th.Reserve(math.MaxInt)
	if huge.Before(normal) {
		t.Fatalf("overflowing reservation %v regressed before the earlier deadline %v", huge, normal)
	}
	// The timeline must stay monotonic for subsequent callers too: pacing
	// is still in force after the absurd request.
	after := th.Reserve(1)
	if after.Before(huge) {
		t.Fatalf("post-overflow reservation %v regressed before %v — pacing disabled", after, huge)
	}
}
