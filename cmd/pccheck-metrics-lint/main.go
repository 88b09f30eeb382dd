// pccheck-metrics-lint validates Prometheus text exposition.
//
// With no flags it runs a self-check: it builds a Recorder and a goodput
// Ledger (chained ledger → recorder, the production order), emits at least
// one event of every pipeline phase (so every metric family the exporters
// can produce is present), serves /metrics on a loopback port,
// scrapes it, and parses every line — rejecting duplicate or malformed
// families. CI runs this so an exporter regression fails the build before
// a real scraper trips over it.
//
// With -url it lints a live endpoint instead:
//
//	pccheck-metrics-lint -url http://127.0.0.1:9090/metrics
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/promtext"
	"pccheck/internal/storage"
)

func main() {
	url := flag.String("url", "", "lint a live /metrics endpoint instead of the built-in self-check")
	flag.Parse()

	var err error
	if *url != "" {
		err = lintURL(*url)
	} else {
		err = selfCheck()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics-lint FAILED:", err)
		os.Exit(1)
	}
}

func lintURL(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	n, err := promtext.Lint(resp.Body)
	if err != nil {
		return err
	}
	fmt.Printf("metrics-lint OK: %s, %d families\n", url, n)
	return nil
}

// selfCheck exercises every family the exporters can emit and lints the
// combined exposition.
func selfCheck() error {
	rec := obs.NewRecorder(0)
	led := obs.NewLedger(obs.LedgerConfig{SlowdownBudget: 1.05}, rec)

	// One event per phase so every per-phase summary and counter family
	// materialises, including the rank-labelled straggler families.
	now := time.Now().UnixNano()
	for p := obs.Phase(0); p < obs.PhaseCount; p++ {
		ev := obs.Event{
			TS: now, Phase: p, Counter: 1, Bytes: 1 << 20, Value: 1,
			Slot: 0, Writer: 0, Rank: 0, Attempt: 1,
		}
		if p.IsSpan() {
			ev.Dur = int64(time.Millisecond)
		}
		led.Emit(ev)
	}
	// Iteration hooks so the goodput/SLO gauges carry real values.
	for i := 0; i < 64; i++ {
		led.IterDone(time.Millisecond, i%8 == 0)
	}
	led.DrainDone(2 * time.Millisecond)
	led.AddRecovery(3 * time.Millisecond)

	// A black-box flusher over an in-memory region, flushed once, so the
	// pccheck_blackbox_* families are linted too.
	layout := blackbox.LayoutFor(64<<10, 4096)
	bbDev := storage.NewRAM(layout.RegionBytes())
	if err := blackbox.Format(bbDev, 0, 1, layout); err != nil {
		return err
	}
	journal, err := blackbox.OpenJournal(bbDev, 0, layout.RegionBytes(), 1)
	if err != nil {
		return err
	}
	flusher, err := blackbox.NewFlusher(journal, led, blackbox.Config{FlushEvery: -1})
	if err != nil {
		return err
	}
	if _, err := flusher.Flush(); err != nil {
		return err
	}

	srv, addr, err := obs.Serve("127.0.0.1:0", rec, led, flusher)
	if err != nil {
		return err
	}
	defer srv.Close()
	url := "http://" + addr + "/metrics"
	if err := lintURL(url); err != nil {
		return err
	}
	return requireFamilies(url,
		"pccheck_flight_dropped_events_total",
		"pccheck_blackbox_flushes_total",
		"pccheck_blackbox_flush_errors_total",
		"pccheck_blackbox_flushed_bytes_total",
		"pccheck_blackbox_events_snapshotted_total",
		"pccheck_blackbox_last_seq",
		"pccheck_scrub_sweeps_total",
		"pccheck_scrub_bytes_total",
		"pccheck_scrub_corruptions_total",
		"pccheck_repairs_total",
		"pccheck_scrub_quarantines_total",
		"pccheck_tier_failover_total",
	)
}

// requireFamilies re-scrapes the endpoint and fails if any of the named
// metric families is missing — the forensics families must not silently
// drop out of the exposition.
func requireFamilies(url string, names ...string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	fams, err := promtext.Parse(resp.Body)
	if err != nil {
		return err
	}
	present := make(map[string]bool, len(fams))
	for _, f := range fams {
		present[f.Name] = true
	}
	for _, name := range names {
		if !present[name] {
			return fmt.Errorf("family %s missing from exposition", name)
		}
	}
	return nil
}
