// Package cliutil holds the small formatting/parsing helpers shared by the
// command-line tools, the scored-decision table among them.
package cliutil

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pccheck/internal/obs"
)

// ParseBytes parses human-friendly sizes: "64MB", "1.5GB", "10KB", "128B",
// or a bare number of bytes. Units are decimal (matching how the paper and
// storage vendors count).
func ParseBytes(s string) (int64, error) {
	if strings.TrimSpace(s) == "" {
		return 0, fmt.Errorf("cliutil: empty size")
	}
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(upper, "GB"):
		mult, upper = 1_000_000_000, strings.TrimSuffix(upper, "GB")
	case strings.HasSuffix(upper, "MB"):
		mult, upper = 1_000_000, strings.TrimSuffix(upper, "MB")
	case strings.HasSuffix(upper, "KB"):
		mult, upper = 1_000, strings.TrimSuffix(upper, "KB")
	case strings.HasSuffix(upper, "B"):
		upper = strings.TrimSuffix(upper, "B")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(upper), 64)
	if err != nil {
		return 0, fmt.Errorf("cliutil: bad size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// FormatBytes renders a byte count with a decimal unit suffix.
func FormatBytes(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2f GB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2f MB", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.2f KB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// FormatDecisions renders decisions worst regret first (open ones last,
// newest first among equals), up to limit rows (0 = all). A "!" marks an
// ineligible alternative.
func FormatDecisions(w io.Writer, ds []obs.Decision, limit int) {
	ds = append([]obs.Decision(nil), ds...)
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		return a.Scored != b.Scored && a.Scored ||
			a.Scored == b.Scored && (a.Regret > b.Regret || a.Regret == b.Regret && a.TS > b.TS)
	})
	if limit > 0 && len(ds) > limit {
		ds = ds[:limit]
	}
	const row = "%-6v %-15v %-22v %11v %11v %-22v %-22v %v\n"
	fmt.Fprintf(w, row, "id", "kind", "chosen", "measured", "regret", "best-alt", "outcome", "alternatives")
	for _, d := range ds {
		measured, regret := "-", "-"
		if d.Scored {
			measured, regret = fmt.Sprintf("%.4gs", d.Measured), fmt.Sprintf("%.4gs", d.Regret)
		}
		var alts []string
		for _, a := range d.Rejected {
			alts = append(alts, fmt.Sprintf("%s=%.3gs%s", a.Action, a.Cost, map[bool]string{false: "!"}[a.Eligible]))
		}
		fmt.Fprintf(w, row, d.ID, d.Kind, d.Chosen, measured, regret, cmp.Or(d.BestAlt, "(chosen)"), d.Outcome, strings.Join(alts, " "))
	}
}
