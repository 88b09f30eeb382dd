// Command pccheck-bench regenerates the paper's evaluation artefacts
// (Figures 1, 2, 8a–f, 9a–f, 10–14 and Tables 1, 3) from the calibrated
// simulator, writing one CSV per artefact.
//
// Usage:
//
//	pccheck-bench -all -out results/
//	pccheck-bench -figure 8 -out results/       # all six panels
//	pccheck-bench -figure 12                    # print to stdout
//	pccheck-bench -table 1
//	pccheck-bench -faults                       # fault-injection scenario
//	pccheck-bench -crash                        # crash-point exploration sweep
//	pccheck-bench -delta                        # full vs delta bytes-persisted sweep
//	pccheck-bench -tiers                        # drain-bandwidth vs staleness sweep
//	pccheck-bench -tiers -tier-teardown         # + tear the slow tier down mid-run
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pccheck/internal/figures"
)

func main() {
	var (
		all    = flag.Bool("all", false, "regenerate every figure and table")
		figure = flag.Int("figure", 0, "regenerate one figure (1, 2, 8, 9, 10, 11, 12, 13, 14)")
		table  = flag.Int("table", 0, "regenerate one table (1 or 3)")
		claims = flag.Bool("claims", false, "check the paper's headline claims and print the verdicts")
		out    = flag.String("out", "", "directory for CSV output (default: stdout)")

		faults          = flag.Bool("faults", false, "run the fault-injection scenario and print the report")
		faultTransients = flag.Int("fault-transients", 2, "with -faults: consecutive transient faults per injected burst")
		faultSaves      = flag.Int("fault-saves", 200, "with -faults: checkpoints in the soak phase")
		faultSeed       = flag.Int64("fault-seed", 1, "with -faults: rng seed for the soak phase")

		traceOut    = flag.String("trace-out", "", "with -faults: write a Chrome trace-event JSON of every checkpoint phase (view at ui.perfetto.dev)")
		metricsAddr = flag.String("metrics-addr", "", "with -faults or -goodput: serve /metrics (Prometheus) and /debug/vars on this address while the scenario runs")

		crash        = flag.Bool("crash", false, "run the crash-point exploration sweep and print the per-workload summary")
		crashSamples = flag.Int("crash-samples", 100, "with -crash: sampled torn/reordered cache-loss schedules per workload")
		crashSeed    = flag.Int64("crash-seed", 1, "with -crash: seed for workload payloads and sampled schedules")

		goodput         = flag.Bool("goodput", false, "run the goodput-ledger scenario: a simulated training loop with stall attribution and SLO tracking")
		goodputIters    = flag.Int("goodput-iters", 300, "with -goodput: training iterations")
		goodputInterval = flag.Int("goodput-interval", 10, "with -goodput: checkpoint every f iterations")
		goodputQ        = flag.Float64("goodput-q", 1.25, "with -goodput: slowdown budget q")
		adaptive        = flag.Bool("adaptive", false, "with -goodput: drive an AdaptiveLoop (Eq. (3) retuning) instead of a fixed interval")
		jsonOut         = flag.String("json", "", "with -goodput, -delta or -tiers: write the machine-readable summary (BENCH_*.json shape) to this path")

		delta         = flag.Bool("delta", false, "run the delta-checkpoint scenario: full vs delta bytes persisted per sparse update pattern")
		deltaIters    = flag.Int("delta-iters", 120, "with -delta: checkpoints per run")
		deltaKeyframe = flag.Int("delta-keyframe", 10, "with -delta: full keyframe every K deltas")
		deltaPattern  = flag.String("delta-pattern", "", "with -delta: run one sparse pattern by name (default: the whole zoo)")
		deltaState    = flag.Int64("delta-state", 256<<10, "with -delta: checkpointable state bytes")
		deltaSeed     = flag.Int64("delta-seed", 1, "with -delta: rng seed for the mutation sequence")

		tiers        = flag.Bool("tiers", false, "run the tiered-durability scenario: drain-bandwidth vs staleness sweep over a DRAM→remote device")
		tierSaves    = flag.Int("tier-saves", 40, "with -tiers: checkpoints per sweep point")
		tierPayload  = flag.Int64("tier-payload", 64<<10, "with -tiers: bytes per checkpoint")
		tierSeed     = flag.Int64("tier-seed", 1, "with -tiers: rng seed for payloads")
		tierTeardown = flag.Bool("tier-teardown", false, "with -tiers: also tear the slow tier down mid-run and assert the cross-tier durability floor")
	)
	flag.Parse()

	if *tiers {
		err := runTiers(os.Stdout, tiersConfig{
			saves:    *tierSaves,
			payload:  *tierPayload,
			seed:     *tierSeed,
			teardown: *tierTeardown,
			jsonOut:  *jsonOut,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench: TIER SCENARIO FAILED:", err)
			os.Exit(1)
		}
		return
	}

	if *delta {
		err := runDelta(os.Stdout, deltaConfig{
			iters:    *deltaIters,
			keyframe: *deltaKeyframe,
			pattern:  *deltaPattern,
			stateB:   *deltaState,
			seed:     *deltaSeed,
			jsonOut:  *jsonOut,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench: DELTA SCENARIO FAILED:", err)
			os.Exit(1)
		}
		return
	}

	if *goodput {
		err := runGoodput(os.Stdout, goodputConfig{
			iters:       *goodputIters,
			interval:    *goodputInterval,
			iterTime:    2 * time.Millisecond,
			snapTime:    4 * time.Millisecond,
			payload:     256 << 10,
			bw:          64 << 20, // 64 MiB/s per writer: persists visibly overlap training
			q:           *goodputQ,
			adaptive:    *adaptive,
			jsonOut:     *jsonOut,
			metricsAddr: *metricsAddr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench: GOODPUT SCENARIO FAILED:", err)
			os.Exit(1)
		}
		return
	}

	if *crash {
		if err := runCrash(os.Stdout, crashConfig{samples: *crashSamples, seed: *crashSeed}); err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench: CRASH SWEEP FAILED:", err)
			os.Exit(1)
		}
		return
	}

	if *faults {
		err := runFaults(os.Stdout, faultsConfig{
			transients:  *faultTransients,
			saves:       *faultSaves,
			seed:        *faultSeed,
			traceOut:    *traceOut,
			metricsAddr: *metricsAddr,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench: FAULT SCENARIO FAILED:", err)
			os.Exit(1)
		}
		return
	}

	if *claims {
		cs, err := figures.CheckClaims()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
			os.Exit(1)
		}
		fmt.Print(figures.FormatClaims(cs))
		for _, c := range cs {
			if !c.OK {
				os.Exit(1)
			}
		}
		return
	}

	figs, err := collect(*all, *figure, *table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
		os.Exit(1)
	}
	if len(figs) == 0 {
		fmt.Fprintln(os.Stderr, "pccheck-bench: nothing selected; use -all, -figure N or -table N")
		flag.Usage()
		os.Exit(2)
	}
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fig := figs[id]
		if *out == "" {
			fmt.Printf("# %s — %s\n", fig.ID, fig.Title)
			if err := fig.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
				os.Exit(1)
			}
			fmt.Println()
			continue
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, fig.ID+".csv")
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
			os.Exit(1)
		}
		if err := fig.WriteCSV(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "pccheck-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%s)\n", path, fig.Title)
	}
}

func collect(all bool, figure, table int) (map[string]figures.Figure, error) {
	if all {
		return figures.All()
	}
	out := make(map[string]figures.Figure)
	add := func(f figures.Figure, err error) error {
		if err != nil {
			return err
		}
		out[f.ID] = f
		return nil
	}
	switch figure {
	case 0:
	case 1:
		if err := add(figures.Figure1()); err != nil {
			return nil, err
		}
	case 2:
		if err := add(figures.Figure2()); err != nil {
			return nil, err
		}
	case 8:
		for _, m := range figures.Figure8Models {
			if err := add(figures.Figure8(m)); err != nil {
				return nil, err
			}
		}
	case 9:
		for _, m := range figures.Figure8Models {
			if err := add(figures.Figure9(m)); err != nil {
				return nil, err
			}
		}
	case 10:
		if err := add(figures.Figure10()); err != nil {
			return nil, err
		}
	case 11:
		if err := add(figures.Figure11()); err != nil {
			return nil, err
		}
	case 12:
		if err := add(figures.Figure12()); err != nil {
			return nil, err
		}
	case 13:
		if err := add(figures.Figure13()); err != nil {
			return nil, err
		}
	case 14:
		if err := add(figures.Figure14()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown figure %d (have 1, 2, 8, 9, 10, 11, 12, 13, 14)", figure)
	}
	switch table {
	case 0:
	case 1:
		if err := add(figures.Table1(3)); err != nil {
			return nil, err
		}
	case 3:
		if err := add(figures.Table3()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown table %d (have 1 and 3)", table)
	}
	return out, nil
}
