package cliutil

import (
	"bytes"
	"strings"
	"testing"

	"pccheck/internal/obs"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1GB", 1_000_000_000, true},
		{"1.5GB", 1_500_000_000, true},
		{"64MB", 64_000_000, true},
		{"10KB", 10_000, true},
		{"128B", 128, true},
		{"42", 42, true},
		{" 2 mb ", 2_000_000, true},
		{"", 0, false},
		{"GB", 0, false},
		{"twelve", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseBytes(%q) accepted", c.in)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2_000, "2.00 KB"},
		{3_500_000, "3.50 MB"},
		{1_200_000_000, "1.20 GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Fatalf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRoundTripish(t *testing.T) {
	for _, n := range []int64{1, 999, 1000, 1_000_000, 2_500_000_000} {
		parsed, err := ParseBytes(FormatBytes(n))
		if err != nil {
			t.Fatalf("FormatBytes(%d) unparseable: %v", n, err)
		}
		// Formatting rounds to 2 decimals; allow 1% slack.
		diff := parsed - n
		if diff < 0 {
			diff = -diff
		}
		if diff*100 > n {
			t.Fatalf("round trip %d -> %q -> %d", n, FormatBytes(n), parsed)
		}
	}
}

func TestFormatDecisionsWorstFirst(t *testing.T) {
	r := obs.NewRecorder(64)
	obs.EmitDecision(r, 1, obs.DecisionRetry, 0, obs.OutExhausted, obs.Choice{Action: obs.ActRetry, Arg: 3, Cost: 1e7},
		obs.Choice{Action: obs.ActFailFast, Eligible: true})
	r.Emit(obs.Event{Phase: obs.PhaseSlotWait, Dur: 5e8, Value: 1, Counter: 2})
	var buf bytes.Buffer
	FormatDecisions(&buf, obs.Decisions(r.TakeEvents()), 0)
	out := buf.String()
	if i, j := strings.Index(out, "slot-admission"), strings.Index(out, "retry(max=3)"); i < 0 || j < 0 || i > j {
		t.Errorf("table not worst-regret-first:\n%s", out)
	}
}
