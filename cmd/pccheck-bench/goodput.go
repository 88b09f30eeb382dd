package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"pccheck"
	"pccheck/internal/cliutil"
	"pccheck/internal/obs"
)

// goodputConfig parameterizes the -goodput mode: a deterministic training
// loop over a bandwidth-throttled volatile device, with the goodput
// ledger attached, reporting the paper's headline quantities (goodput
// ratio, slowdown vs q, staleness, stall attribution).
type goodputConfig struct {
	iters       int           // training iterations
	interval    int           // checkpoint every f iterations
	iterTime    time.Duration // simulated per-iteration compute
	snapTime    time.Duration // simulated snapshot capture stall (the D2H copy)
	payload     int64         // checkpoint bytes m
	bw          float64       // per-writer device bandwidth throttle (bytes/sec, 0 = unthrottled)
	q           float64       // slowdown budget
	adaptive    bool          // drive an AdaptiveLoop (Eq. (3) retuning) instead of a fixed interval
	jsonOut     string        // write the machine-readable summary here ("" = off)
	metricsAddr string        // serve /metrics while the scenario runs ("" = off)
}

// benchJSON is the BENCH_*.json shape: enough context to compare runs
// across PRs plus the full goodput report and the save-latency summary.
type benchJSON struct {
	Bench  string `json:"bench"`
	Config struct {
		Iterations int     `json:"iterations"`
		Interval   int     `json:"interval"`
		IterTimeMS float64 `json:"iter_time_ms"`
		SnapTimeMS float64 `json:"snap_time_ms"`
		PayloadB   int64   `json:"payload_bytes"`
		WriterBW   float64 `json:"writer_bw_bytes_per_sec"`
		Q          float64 `json:"q"`
	} `json:"config"`
	Report  pccheck.GoodputReport `json:"report"`
	Latency struct {
		SaveP50Sec float64 `json:"save_p50_sec"`
		SaveP95Sec float64 `json:"save_p95_sec"`
		SaveP99Sec float64 `json:"save_p99_sec"`
		Saves      uint64  `json:"saves"`
	} `json:"latency"`
}

// runGoodput drives a simulated training loop with the ledger attached
// and prints (and optionally exports) the goodput report.
func runGoodput(w io.Writer, cfg goodputConfig) error {
	rec := pccheck.NewFlightRecorder(0)
	led := pccheck.NewLedger(pccheck.LedgerConfig{SlowdownBudget: cfg.q}, rec)

	ck, _, err := pccheck.CreateVolatile(pccheck.Config{
		MaxBytes:    cfg.payload,
		Concurrent:  2,
		Writers:     2,
		PerWriterBW: cfg.bw,
		Observer:    led,
	})
	if err != nil {
		return err
	}
	defer ck.Close()

	if cfg.metricsAddr != "" {
		srv, bound, err := pccheck.ServeMetrics(cfg.metricsAddr, rec, led)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "metrics  http://%s/metrics (and /debug/vars)\n", bound)
	}

	state := make([]byte, cfg.payload)
	snapshot := func() []byte {
		// The snapshot stall stands in for the GPU→host copy: the only part
		// of a checkpoint that blocks training (§3.1).
		time.Sleep(cfg.snapTime)
		return state
	}
	ctx := context.Background()
	mode := fmt.Sprintf("checkpoint every %d", cfg.interval)
	if cfg.adaptive {
		mode = fmt.Sprintf("adaptive interval (Eq. (3), seed %d)", cfg.interval)
	}
	fmt.Fprintf(w, "goodput scenario: %d iterations × %v, %s (snapshot stall %v, %d-byte payload, q=%.3f)\n\n",
		cfg.iters, cfg.iterTime, mode, cfg.snapTime, cfg.payload, cfg.q)
	if cfg.adaptive {
		loop, err := pccheck.NewAdaptiveLoop(ck, pccheck.AdaptiveConfig{
			MaxOverhead:     cfg.q,
			InitialInterval: cfg.interval,
		}, snapshot)
		if err != nil {
			return err
		}
		for it := 0; it < cfg.iters; it++ {
			time.Sleep(cfg.iterTime)
			loop.Tick(ctx)
		}
		if err := loop.Drain(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		iter, tw := loop.Measurements()
		fmt.Fprintf(w, "adaptive  interval=%d after %d adjustments (ewma t=%v tw=%v)\n",
			loop.Interval(), loop.Adjustments(), iter, tw)
	} else {
		loop, err := pccheck.NewLoop(ck, cfg.interval, snapshot)
		if err != nil {
			return err
		}
		for it := 0; it < cfg.iters; it++ {
			time.Sleep(cfg.iterTime) // the training step
			loop.Tick(ctx, it)
		}
		if err := loop.Drain(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}

	rep := led.Report()
	pccheck.FormatGoodputReport(w, rep)

	snap := rec.Snapshot()
	save := snap.Phase(pccheck.PhaseSave)
	fmt.Fprintf(w, "latency   save p50=%v p95=%v p99=%v (%d spans)\n", save.P50, save.P95, save.P99, save.Count)

	if cfg.adaptive {
		// The retunes, scored against the ledger's slowdown blocks, plus any
		// slot admissions and retries, all read back from the flight ring.
		fmt.Fprintln(w, "\nworst-regret decisions:")
		cliutil.FormatDecisions(w, obs.Decisions(rec.SnapshotEvents()), 5)
	}

	if cfg.jsonOut != "" {
		var out benchJSON
		out.Bench = "goodput"
		out.Config.Iterations = cfg.iters
		out.Config.Interval = cfg.interval
		out.Config.IterTimeMS = float64(cfg.iterTime) / float64(time.Millisecond)
		out.Config.SnapTimeMS = float64(cfg.snapTime) / float64(time.Millisecond)
		out.Config.PayloadB = cfg.payload
		out.Config.WriterBW = cfg.bw
		out.Config.Q = cfg.q
		out.Report = rep
		out.Latency.SaveP50Sec = save.P50.Seconds()
		out.Latency.SaveP95Sec = save.P95.Seconds()
		out.Latency.SaveP99Sec = save.P99.Seconds()
		out.Latency.Saves = save.Count
		f, err := os.Create(cfg.jsonOut)
		if err != nil {
			return fmt.Errorf("json out: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close()
			return fmt.Errorf("json out: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("json out: %w", err)
		}
		fmt.Fprintf(w, "json      wrote %s\n", cfg.jsonOut)
	}
	return nil
}
