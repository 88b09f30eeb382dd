// Command pccheck-plan is a what-if planner for checkpoint configuration:
// given a workload and a failure regime (mean time between failures), it
// tabulates analytic goodput over a grid of checkpoint intervals and reports
// the optimum — the operator-facing face of Eq. (3) (§3.4) combined with the
// goodput accounting of §5.2.3. Its f* line and slowdown column come from
// perfmodel's interval model with a free snapshot (S = 0): a snapshot that
// stalls training needs a larger f than the one printed.
//
// Examples:
//
//	pccheck-plan -model OPT-1.3B -mtbf 8m                  # spot-cluster regime
//	pccheck-plan -model BLOOM-7B -mtbf 45m -overhead 1.03  # Microsoft's MTBF
//	pccheck-plan -size 16GB -iter 650ms -mtbf 8m           # custom workload
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pccheck/internal/cliutil"
	"pccheck/internal/perfmodel"
	"pccheck/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "pccheck-plan: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the plan to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("pccheck-plan", flag.ExitOnError)
	var (
		model    = fs.String("model", "", "model name from Table 3 (or use -size/-iter)")
		sizeStr  = fs.String("size", "", "checkpoint size for custom workloads (e.g. 16GB)")
		iterDur  = fs.Duration("iter", 0, "iteration time for custom workloads (e.g. 650ms)")
		platform = fs.String("platform", "a100-gcp-ssd", "platform (a100-gcp-ssd, rtx-pmem, h100-azure-nvme)")
		mtbf     = fs.Duration("mtbf", 8*time.Minute, "mean time between failures")
		overhead = fs.Float64("overhead", 1.05, "overhead budget q for the f* line (> 1)")
		n        = fs.Int("n", 2, "concurrent checkpoints N")
		writers  = fs.Int("writers", 3, "writer threads p")
		maxF     = fs.Int("max-interval", 500, "largest interval to evaluate")
	)
	fs.Parse(args)

	p, err := workload.PlatformByName(*platform)
	if err != nil {
		return err
	}
	var m int64
	var t time.Duration
	var name string
	switch {
	case *model != "":
		wl, err := workload.ByName(*model)
		if err != nil {
			return err
		}
		m = wl.PartitionBytes()
		t = wl.IterTimeOn(p)
		name = wl.Name
		if t <= 0 {
			return fmt.Errorf("model %s does not run on platform %s", name, p.Name)
		}
	case *sizeStr != "" && *iterDur > 0:
		if m, err = cliutil.ParseBytes(*sizeStr); err != nil {
			return fmt.Errorf("bad -size: %v", err)
		}
		t = *iterDur
		name = "custom"
	default:
		return errors.New("need -model, or -size together with -iter")
	}

	params := perfmodel.Params{
		IterTime:        t,
		CheckpointBytes: m,
		StorageBW:       p.StorageWriteBW,
		PerThreadBW:     p.PerThreadWriteBW,
		ReadBW:          p.StorageReadBW,
		N:               *n, P: *writers, Interval: 1,
	}
	fstar, err := params.FStar(*overhead)
	if err != nil {
		return err
	}
	bestF, bestG, err := params.OptimalInterval(perfmodel.PCcheck, *mtbf, p.DiskAttach, *maxF)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%s on %s: m = %s, t = %v, N = %d, p = %d, MTBF = %v\n\n",
		name, p.Name, cliutil.FormatBytes(m), t, *n, *writers, *mtbf)
	fmt.Fprintf(w, "Eq. (3) minimum interval for ≤%.0f%% overhead: f* = %d iterations\n\n",
		(*overhead-1)*100, fstar)
	fmt.Fprintf(w, "%10s %12s %14s %16s\n", "interval", "slowdown", "recovery (s)", "goodput (it/s)")
	for _, f := range []int{1, 5, 10, 25, 50, 100, 250, bestF} {
		if f > *maxF {
			continue
		}
		q := params
		q.Interval = f
		rec, err := q.MeanRecovery(perfmodel.PCcheck)
		if err != nil {
			return err
		}
		g, err := q.GoodputAt(perfmodel.PCcheck, *mtbf, p.DiskAttach)
		if err != nil {
			return err
		}
		marker := ""
		if f == bestF {
			marker = "  ← optimum"
		}
		fmt.Fprintf(w, "%10d %11.2f× %14.1f %16.4f%s\n", f, params.Model().Slowdown(f), rec.Seconds(), g, marker)
	}
	fmt.Fprintf(w, "\nbest goodput %.4f it/s at interval %d\n", bestG, bestF)
	return nil
}
