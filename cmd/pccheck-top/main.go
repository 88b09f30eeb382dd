// pccheck-top is a live terminal dashboard for a running pccheck
// process: it polls the /metrics endpoint a Recorder+Ledger serve (see
// ServeMetrics / -metrics-addr on the commands) and renders goodput,
// slowdown-budget headroom, checkpoint staleness, per-phase stall bars,
// save latency percentiles, the scrubber's detect/repair counters (with a
// tier-failover alert) and the per-rank straggler table.
//
//	pccheck-top -addr 127.0.0.1:9090
//	pccheck-top -addr 127.0.0.1:9090 -once   # one frame, no screen control
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"pccheck/internal/promtext"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "host:port of the pccheck metrics endpoint")
	interval := flag.Duration("interval", 2*time.Second, "refresh period")
	frames := flag.Int("frames", 0, "stop after this many frames (0 = run until interrupted)")
	once := flag.Bool("once", false, "print a single frame without screen control and exit")
	flag.Parse()

	url := "http://" + *addr + "/metrics"
	for n := 0; ; n++ {
		fams, err := fetch(url)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-top:", err)
			os.Exit(1)
		}
		if !*once {
			fmt.Print("\x1b[H\x1b[2J") // home + clear
		}
		renderFrame(os.Stdout, *addr, fams)
		if *once || (*frames > 0 && n+1 >= *frames) {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch scrapes and parses one exposition, keyed by family name.
func fetch(url string) (map[string]promtext.Family, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	list, err := promtext.Parse(resp.Body)
	if err != nil {
		return nil, err
	}
	fams := make(map[string]promtext.Family, len(list))
	for _, f := range list {
		fams[f.Name] = f
	}
	return fams, nil
}

// value returns the plain (unlabelled) sample of a family, 0 when absent.
func value(fams map[string]promtext.Family, name string) float64 {
	f, ok := fams[name]
	if !ok {
		return 0
	}
	v, _ := f.Value()
	return v
}

// quantile reads one quantile sample of a summary family.
func quantile(fams map[string]promtext.Family, name, q string) float64 {
	f, ok := fams[name]
	if !ok {
		return 0
	}
	if s := f.Sample(name, "quantile", q); s != nil {
		return s.Value
	}
	return 0
}

// bar renders frac ∈ [0,1] as a width-cell block bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	full := int(frac*float64(width) + 0.5)
	out := make([]rune, width)
	for i := range out {
		if i < full {
			out[i] = '█'
		} else {
			out[i] = '░'
		}
	}
	return string(out)
}

// renderFrame draws one dashboard frame from a parsed exposition. It is
// pure output — tested against a canned scrape.
func renderFrame(w io.Writer, addr string, fams map[string]promtext.Family) {
	goodput := value(fams, "pccheck_goodput_ratio")
	slow := value(fams, "pccheck_observed_slowdown")
	budget := value(fams, "pccheck_slowdown_budget")
	breaches := value(fams, "pccheck_slowdown_budget_breaches_total")
	staleness := value(fams, "pccheck_checkpoint_staleness_seconds")
	iters := value(fams, "pccheck_iterations_total")

	fmt.Fprintf(w, "pccheck-top  %s\n\n", addr)
	fmt.Fprintf(w, "goodput    %6.4f  %s\n", goodput, bar(goodput, 30))
	if budget > 1 {
		headroom := budget - slow
		status := "OK"
		if headroom < 0 {
			status = "BREACH"
		}
		fmt.Fprintf(w, "slowdown   %6.4f  budget q=%.4f  headroom %+.4f  [%s]  breaches %d\n",
			slow, budget, headroom, status, int64(breaches))
	} else if slow > 0 {
		fmt.Fprintf(w, "slowdown   %6.4f  (no budget configured)\n", slow)
	}
	fmt.Fprintf(w, "staleness  %6.2fs since last durable checkpoint   iterations %d\n",
		staleness, int64(iters))

	fmt.Fprintf(w, "\nsaves      total %d  published %d  obsolete %d  failed %d\n",
		int64(value(fams, "pccheck_saves_total")),
		int64(value(fams, "pccheck_published_total")),
		int64(value(fams, "pccheck_obsolete_total")),
		int64(value(fams, "pccheck_failed_saves_total")))
	fmt.Fprintf(w, "save lat   p50 %s  p95 %s  p99 %s\n",
		fmtSec(quantile(fams, "pccheck_save_seconds", "0.5")),
		fmtSec(quantile(fams, "pccheck_save_seconds", "0.95")),
		fmtSec(quantile(fams, "pccheck_save_seconds", "0.99")))
	dropped := value(fams, "pccheck_flight_dropped_events_total")
	if _, ok := fams["pccheck_flight_dropped_events_total"]; !ok {
		// Pre-forensics expositions only had the old name.
		dropped = value(fams, "pccheck_trace_dropped_events_total")
	}
	fmt.Fprintf(w, "flight     ring occupancy %d  dropped %d\n",
		int64(value(fams, "pccheck_flight_ring_occupancy")),
		int64(dropped))

	if _, ok := fams["pccheck_blackbox_flushes_total"]; ok {
		fmt.Fprintf(w, "black box  flushes %d  errors %d  last seq %d  %s persisted\n",
			int64(value(fams, "pccheck_blackbox_flushes_total")),
			int64(value(fams, "pccheck_blackbox_flush_errors_total")),
			int64(value(fams, "pccheck_blackbox_last_seq")),
			fmtBytes(value(fams, "pccheck_blackbox_flushed_bytes_total")))
	}

	if _, ok := fams["pccheck_scrub_sweeps_total"]; ok {
		line := fmt.Sprintf("scrub      sweeps %d  verified %s  corruptions %d  repairs %d  quarantines %d",
			int64(value(fams, "pccheck_scrub_sweeps_total")),
			fmtBytes(value(fams, "pccheck_scrub_bytes_total")),
			int64(value(fams, "pccheck_scrub_corruptions_total")),
			int64(value(fams, "pccheck_repairs_total")),
			int64(value(fams, "pccheck_scrub_quarantines_total")))
		if fo := value(fams, "pccheck_tier_failover_total"); fo > 0 {
			line += fmt.Sprintf("  TIER FAILOVERS %d", int64(fo))
		}
		fmt.Fprintln(w, line)
	}

	if f, ok := fams["pccheck_stall_seconds_total"]; ok && len(f.Samples) > 0 {
		maxV := 0.0
		for _, s := range f.Samples {
			if s.Value > maxV {
				maxV = s.Value
			}
		}
		fmt.Fprintf(w, "\nstalls (cumulative)\n")
		for _, s := range f.Samples {
			frac := 0.0
			if maxV > 0 {
				frac = s.Value / maxV
			}
			fmt.Fprintf(w, "  %-10s %10.3fs  %s\n", s.Label("phase"), s.Value, bar(frac, 24))
		}
	}

	if f, ok := fams["pccheck_tier_durable_checkpoint"]; ok && len(f.Samples) > 0 {
		stale := fams["pccheck_tier_staleness_seconds"]
		lag := fams["pccheck_tier_drain_lag_checkpoints"]
		errs := fams["pccheck_tier_drain_errors_total"]
		resyncs := fams["pccheck_tier_resyncs_total"]
		drained := fams["pccheck_tier_drained_bytes_total"]
		tierSample := func(f promtext.Family, name, tier string) float64 {
			if s := f.Sample(name, "tier", tier); s != nil {
				return s.Value
			}
			return 0
		}
		rows := append([]promtext.Sample(nil), f.Samples...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Label("tier") < rows[j].Label("tier") })
		fmt.Fprintf(w, "\ntiers (per-level durability)\n")
		for _, s := range rows {
			tier := s.Label("tier")
			health := ""
			if e := tierSample(errs, "pccheck_tier_drain_errors_total", tier); e > 0 {
				health = fmt.Sprintf("  errors %d", int64(e))
			}
			if r := tierSample(resyncs, "pccheck_tier_resyncs_total", tier); r > 0 {
				health += fmt.Sprintf("  resyncs %d", int64(r))
			}
			fmt.Fprintf(w, "  tier %-3s  durable ckpt %-8d lag %-4d stale %7.2fs  drained %s%s\n",
				tier, int64(s.Value),
				int64(tierSample(lag, "pccheck_tier_drain_lag_checkpoints", tier)),
				tierSample(stale, "pccheck_tier_staleness_seconds", tier),
				fmtBytes(tierSample(drained, "pccheck_tier_drained_bytes_total", tier)),
				health)
		}
	}

	if f, ok := fams["pccheck_rank_gated_rounds_total"]; ok && len(f.Samples) > 0 {
		lag := fams["pccheck_rank_agree_lag_seconds"]
		type row struct {
			rank  int
			gated float64
			lagS  float64
		}
		rows := make([]row, 0, len(f.Samples))
		for _, s := range f.Samples {
			r, _ := strconv.Atoi(s.Label("rank"))
			var lg float64
			if ls := lag.Sample("pccheck_rank_agree_lag_seconds", "rank", s.Label("rank")); ls != nil {
				lg = ls.Value
			}
			rows = append(rows, row{rank: r, gated: s.Value, lagS: lg})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].gated > rows[j].gated })
		fmt.Fprintf(w, "\nstragglers (who gates global consistency)\n")
		for _, r := range rows {
			fmt.Fprintf(w, "  rank %-3d   gated %4d round(s)   held rounds open %.3fs\n", r.rank, int64(r.gated), r.lagS)
		}
	}
}

func fmtSec(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

func fmtBytes(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2f GiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2f MiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1f KiB", v/(1<<10))
	default:
		return fmt.Sprintf("%d B", int64(v))
	}
}
