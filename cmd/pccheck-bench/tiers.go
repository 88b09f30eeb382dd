package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"pccheck/internal/cliutil"
	"pccheck/internal/core"
	"pccheck/internal/storage"
)

// tiersConfig parameterizes the -tiers mode.
type tiersConfig struct {
	saves    int     // checkpoints per sweep point
	payload  int64   // bytes per checkpoint
	seed     int64   // rng seed for payloads
	teardown bool    // also run the mid-run tier-teardown chaos phase
	jsonOut  string  // write the machine-readable summary here ("" = off)
	bwsMiB   []int64 // drain-bandwidth sweep points, MiB/s
}

// tierSweepPoint is one row of the bandwidth-vs-staleness sweep.
type tierSweepPoint struct {
	DrainMiBps     int64   `json:"drain_mibps"`
	Saves          int     `json:"saves"`
	MaxLag         int64   `json:"max_drain_lag_checkpoints"`
	MeanLag        float64 `json:"mean_drain_lag_checkpoints"`
	ConvergeMillis float64 `json:"converge_ms"`
	DrainedBytes   int64   `json:"drained_bytes"`
	Drains         uint64  `json:"drains"`
}

// tierTeardownResult summarizes the chaos phase: the slow tier is torn
// down mid-run, training keeps checkpointing against tier 0, and after
// the heal the drainer must converge the replica to the final counter.
type tierTeardownResult struct {
	Saves           int    `json:"saves"`
	FloorAtTeardown uint64 `json:"floor_at_teardown"`
	ErrorsDuring    uint64 `json:"drain_errors_during_outage"`
	FinalDurable    uint64 `json:"final_durable"`
	RecoveredBehind uint64 `json:"recovered_counter_from_slow_tier"`
}

type tiersSummary struct {
	Scenario string              `json:"scenario"`
	Sweep    []tierSweepPoint    `json:"sweep"`
	Teardown *tierTeardownResult `json:"teardown,omitempty"`
}

// runTiers exercises the tiered device end to end: (1) a drain-bandwidth
// sweep quantifying the staleness a slow lower tier costs — how far the
// replica's durable watermark trails the published counter at each
// bandwidth — and (2, with teardown) a chaos phase that tears the slow
// tier down mid-run and demands the cross-tier durability floor still
// holds: checkpoints the drainer acknowledged before the outage stay
// recoverable from the slow tier alone, and after the heal the drainer
// converges it to the final counter. A non-nil error means an invariant
// was violated.
func runTiers(w io.Writer, cfg tiersConfig) error {
	if cfg.saves <= 0 {
		cfg.saves = 40
	}
	if cfg.payload <= 0 {
		cfg.payload = 64 << 10
	}
	if len(cfg.bwsMiB) == 0 {
		cfg.bwsMiB = []int64{4, 16, 64, 256}
	}
	sum := tiersSummary{Scenario: "tiers"}

	fmt.Fprintf(w, "tiered-durability sweep (%d saves × %s per point; tier 0 = DRAM, tier 1 = throttled remote)\n\n",
		cfg.saves, cliutil.FormatBytes(cfg.payload))
	fmt.Fprintf(w, "%-12s %-10s %-10s %-14s %-14s %s\n",
		"drain bw", "max lag", "mean lag", "converge", "drained", "drains")
	for _, bw := range cfg.bwsMiB {
		pt, err := runTierSweepPoint(cfg, bw)
		if err != nil {
			return fmt.Errorf("sweep @%d MiB/s: %w", bw, err)
		}
		sum.Sweep = append(sum.Sweep, pt)
		fmt.Fprintf(w, "%-12s %-10d %-10.1f %-14s %-14s %d\n",
			fmt.Sprintf("%d MiB/s", pt.DrainMiBps), pt.MaxLag, pt.MeanLag,
			fmt.Sprintf("%.1fms", pt.ConvergeMillis), cliutil.FormatBytes(pt.DrainedBytes), pt.Drains)
	}
	for i := 1; i < len(sum.Sweep); i++ {
		if sum.Sweep[i].DrainedBytes == 0 {
			return fmt.Errorf("sweep @%d MiB/s drained zero bytes", sum.Sweep[i].DrainMiBps)
		}
	}

	if cfg.teardown {
		td, err := runTierTeardown(w, cfg)
		if err != nil {
			return err
		}
		sum.Teardown = &td
	}

	fmt.Fprintf(w, "\nverdict  OK — per-tier durability floor held at every sweep point\n")
	if cfg.jsonOut != "" {
		f, err := os.Create(cfg.jsonOut)
		if err != nil {
			return fmt.Errorf("json: %w", err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			f.Close()
			return fmt.Errorf("json: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("json: %w", err)
		}
		fmt.Fprintf(w, "json     wrote %s\n", cfg.jsonOut)
	}
	return nil
}

// runTierSweepPoint runs one bandwidth point: saves checkpoints against a
// DRAM + throttled-remote tiered device, sampling the replica's drain lag
// after every save, then times the post-run convergence.
func runTierSweepPoint(cfg tiersConfig, bwMiB int64) (tierSweepPoint, error) {
	pt := tierSweepPoint{DrainMiBps: bwMiB, Saves: cfg.saves}
	ecfg := core.Config{Concurrent: 2, SlotBytes: cfg.payload + 512, VerifyPayload: true}
	size := core.DeviceBytesFor(ecfg)
	remote := storage.NewRemoteStore(size,
		storage.WithRemoteThrottle(storage.NewThrottle(float64(bwMiB)*float64(1<<20))))
	tiered, err := storage.NewTiered([]storage.Device{storage.NewRAM(size), remote})
	if err != nil {
		return pt, err
	}
	defer tiered.Close()
	eng, err := core.New(tiered, ecfg)
	if err != nil {
		return pt, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	p := make([]byte, cfg.payload)
	var lagSum int64
	for i := 1; i <= cfg.saves; i++ {
		rng.Read(p)
		if _, err := eng.Checkpoint(context.Background(), core.BytesSource(p)); err != nil {
			return pt, fmt.Errorf("save %d: %w", i, err)
		}
		// Simulated training iteration between checkpoints: the drainer
		// races this think time, so the sampled lag reflects bandwidth
		// rather than the tightness of the save loop.
		time.Sleep(2 * time.Millisecond)
		st := tiered.Status()
		if lag := int64(st[0].DurableCounter) - int64(st[1].DurableCounter); lag > 0 {
			lagSum += lag
			if lag > pt.MaxLag {
				pt.MaxLag = lag
			}
		}
	}
	pt.MeanLag = float64(lagSum) / float64(cfg.saves)

	start := time.Now()
	if !tiered.WaitDrained(time.Minute) {
		return pt, fmt.Errorf("replica did not converge within a minute")
	}
	pt.ConvergeMillis = float64(time.Since(start).Microseconds()) / 1e3
	st := tiered.Status()
	if st[1].DurableCounter != uint64(cfg.saves) {
		return pt, fmt.Errorf("replica durable %d after drain, want %d", st[1].DurableCounter, cfg.saves)
	}
	pt.DrainedBytes = st[1].DrainedBytes
	pt.Drains = st[1].Drains
	return pt, nil
}

// runTierTeardown is the chaos phase: partition the remote tier mid-run,
// keep checkpointing, heal, and verify both halves of the durability
// contract — the pre-outage drain floor recovers from the slow tier
// alone, and the healed drainer converges it to the final counter.
func runTierTeardown(w io.Writer, cfg tiersConfig) (tierTeardownResult, error) {
	td := tierTeardownResult{Saves: cfg.saves}
	ecfg := core.Config{Concurrent: 2, SlotBytes: cfg.payload + 512, VerifyPayload: true}
	size := core.DeviceBytesFor(ecfg)
	remote := storage.NewRemoteStore(size)
	tiered, err := storage.NewTiered(
		[]storage.Device{storage.NewRAM(size), remote},
		storage.WithTierRetry(2, 100*time.Microsecond, time.Millisecond))
	if err != nil {
		return td, err
	}
	defer tiered.Close()
	eng, err := core.New(tiered, ecfg)
	if err != nil {
		return td, err
	}

	rng := rand.New(rand.NewSource(cfg.seed + 1))
	p := make([]byte, cfg.payload)
	save := func(i int) ([]byte, error) {
		rng.Read(p)
		_, err := eng.Checkpoint(context.Background(), core.BytesSource(p))
		return append([]byte(nil), p...), err
	}

	// Phase A: healthy run up to the teardown point; the drainer must have
	// made real progress before we cut the cord.
	cut := cfg.saves / 2
	for i := 1; i <= cut; i++ {
		if _, err := save(i); err != nil {
			return td, fmt.Errorf("teardown phase A save %d: %w", i, err)
		}
	}
	if !tiered.WaitDrained(time.Minute) {
		return td, fmt.Errorf("teardown: replica did not converge before the cut")
	}
	td.FloorAtTeardown = tiered.Status()[1].DurableCounter
	if td.FloorAtTeardown == 0 {
		return td, fmt.Errorf("teardown: no drain progress before the cut")
	}

	// Phase B: tier 1 unreachable. Saves must keep completing at tier 0;
	// the drainer classifies the outage transient, retries, goes stale.
	remote.SetReachable(false)
	var want []byte
	for i := cut + 1; i <= cfg.saves; i++ {
		wp, err := save(i)
		if err != nil {
			return td, fmt.Errorf("teardown phase B save %d failed during outage: %w", i, err)
		}
		want = wp
	}
	time.Sleep(5 * time.Millisecond) // let the drainer hit the partition
	stale := tiered.Status()[1]
	td.ErrorsDuring = stale.Errors
	if stale.Errors == 0 {
		return td, fmt.Errorf("teardown: outage produced no classified drain errors")
	}
	if stale.DurableCounter > uint64(cut) {
		return td, fmt.Errorf("teardown: replica watermark advanced to %d during the outage", stale.DurableCounter)
	}

	// The durability floor: what the drainer acknowledged before the cut
	// must recover from the slow tier alone, right now.
	remote.SetReachable(true)
	if _, ctr, err := core.Recover(remote); err != nil {
		return td, fmt.Errorf("teardown: slow tier unrecoverable at the floor: %w", err)
	} else if ctr < td.FloorAtTeardown {
		return td, fmt.Errorf("teardown: slow tier recovered counter %d below the acked floor %d", ctr, td.FloorAtTeardown)
	} else {
		td.RecoveredBehind = ctr
	}

	// Phase C: healed. The drainer must converge the replica to the final
	// counter and the newest payload must round-trip through it.
	tiered.Kick()
	if !tiered.WaitDrained(time.Minute) {
		return td, fmt.Errorf("teardown: replica did not converge after the heal")
	}
	td.FinalDurable = tiered.Status()[1].DurableCounter
	if td.FinalDurable != uint64(cfg.saves) {
		return td, fmt.Errorf("teardown: healed replica durable %d, want %d", td.FinalDurable, cfg.saves)
	}
	got, ctr, err := core.Recover(remote)
	if err != nil {
		return td, fmt.Errorf("teardown: healed slow tier unrecoverable: %w", err)
	}
	if ctr != uint64(cfg.saves) || !bytes.Equal(got, want) {
		return td, fmt.Errorf("teardown: healed slow tier serves checkpoint %d, want byte-identical %d", ctr, cfg.saves)
	}

	fmt.Fprintf(w, "\nteardown chaos   floor %d acked before the cut, %d drain error(s) during the outage,\n",
		td.FloorAtTeardown, td.ErrorsDuring)
	fmt.Fprintf(w, "                 slow tier alone recovered checkpoint %d ≥ floor; healed replica converged to %d\n",
		td.RecoveredBehind, td.FinalDurable)
	return td, nil
}
