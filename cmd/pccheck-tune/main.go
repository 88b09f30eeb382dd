// Command pccheck-tune is the configuration tool of §3.4: given a workload
// (iteration time, checkpoint size) and constraints (acceptable overhead,
// budgets), it picks the number of concurrent checkpoints N*, the writer
// count p, and the minimum checkpoint interval f* = ceil(Tw/(N·q·t)). That
// f* assumes a free snapshot (S = 0): a snapshot that stalls training needs
// a larger f, which AdaptiveLoop measures and prices at run time.
//
// Two modes:
//
//	-profile path     measure a real device by writing scratch checkpoints
//	-platform name    evaluate the analytic model with a calibrated platform
//	                  (a100-gcp-ssd, rtx-pmem, h100-azure-nvme)
//
// Examples:
//
//	pccheck-tune -profile /mnt/ssd/scratch.pcc -size 64MB -iter 5ms -overhead 1.05
//	pccheck-tune -platform a100-gcp-ssd -model OPT-1.3B -overhead 1.05
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"pccheck"
	"pccheck/internal/cliutil"
	"pccheck/internal/tuner"
	"pccheck/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "pccheck-tune: %v\n", err)
		os.Exit(1)
	}
}

// run parses args and writes the chosen configuration to w. Like a bad
// flag, a missing mode prints the usage and exits 2.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("pccheck-tune", flag.ExitOnError)
	var (
		profile  = fs.String("profile", "", "path of a scratch file on the target device to profile")
		platform = fs.String("platform", "", "analytic mode: platform name (a100-gcp-ssd, rtx-pmem, h100-azure-nvme)")
		model    = fs.String("model", "", "analytic mode: model name from Table 3 (e.g. OPT-1.3B)")
		sizeStr  = fs.String("size", "", "checkpoint size for -profile mode (e.g. 64MB, 1GB)")
		iterStr  = fs.Duration("iter", 0, "iteration time for -profile mode (e.g. 250ms)")
		overhead = fs.Float64("overhead", 1.05, "acceptable slowdown q (> 1)")
		dram     = fs.String("dram", "", "staging DRAM budget M (default 2× checkpoint size)")
		storage  = fs.String("storage", "", "persistent storage budget S (default unlimited)")
	)
	fs.Parse(args)

	switch {
	case *profile != "":
		size, err := cliutil.ParseBytes(*sizeStr)
		if err != nil || size <= 0 {
			return fmt.Errorf("need -size for profile mode: %v", err)
		}
		if *iterStr <= 0 {
			return errors.New("need -iter for profile mode")
		}
		in := pccheck.TuneInput{
			IterTime:        *iterStr,
			CheckpointBytes: size,
			MaxOverhead:     *overhead,
		}
		if *dram != "" {
			if in.DRAMBudget, err = cliutil.ParseBytes(*dram); err != nil {
				return fmt.Errorf("bad -dram: %v", err)
			}
		}
		if *storage != "" {
			if in.StorageBudget, err = cliutil.ParseBytes(*storage); err != nil {
				return fmt.Errorf("bad -storage: %v", err)
			}
		}
		res, err := pccheck.Tune(*profile, in)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "profiled configuration:")
		fmt.Fprintf(w, "  concurrent checkpoints N* = %d\n", res.Config.Concurrent)
		fmt.Fprintf(w, "  writer threads p          = %d\n", res.Config.Writers)
		fmt.Fprintf(w, "  chunk size b              = %s\n", cliutil.FormatBytes(int64(res.Config.ChunkBytes)))
		fmt.Fprintf(w, "  checkpoint interval f*    = %d iterations\n", res.Interval)
		fmt.Fprintf(w, "  measured Tw               = %v\n", res.Tw.Round(time.Microsecond))
		printProfile(w, res.Profile)

	case *platform != "":
		p, err := workload.PlatformByName(*platform)
		if err != nil {
			return err
		}
		m, err := workload.ByName(*model)
		if err != nil {
			return fmt.Errorf("need -model in analytic mode: %v", err)
		}
		t := m.IterTimeOn(p)
		if t <= 0 {
			return fmt.Errorf("model %s does not run on platform %s", m.Name, p.Name)
		}
		res, err := tuner.Analyze(tuner.Input{
			IterTime:        t,
			CheckpointBytes: m.PartitionBytes(),
			MaxOverhead:     *overhead,
		}, p.StorageWriteBW, p.PerThreadWriteBW)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "analytic configuration for %s on %s (q = %.2f):\n", m.Name, p.Name, *overhead)
		fmt.Fprintf(w, "  concurrent checkpoints N* = %d\n", res.N)
		fmt.Fprintf(w, "  writer threads p          = %d\n", res.Writers)
		fmt.Fprintf(w, "  checkpoint interval f*    = %d iterations\n", res.Interval)
		fmt.Fprintf(w, "  worst-case Tw             = %v\n", res.Tw.Round(time.Millisecond))
		printProfile(w, res.Profile)

	default:
		fs.Usage()
		os.Exit(2)
	}
	return nil
}

func printProfile(w io.Writer, profile map[int]time.Duration) {
	ns := make([]int, 0, len(profile))
	for n := range profile {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	fmt.Fprintln(w, "  Tw per candidate N:")
	for _, n := range ns {
		fmt.Fprintf(w, "    N=%d: %v (Tw/N = %v)\n", n,
			profile[n].Round(time.Microsecond),
			(profile[n] / time.Duration(n)).Round(time.Microsecond))
	}
}
