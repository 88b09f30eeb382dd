// Command perf is the repository's benchmark: four workloads, end-to-end
// metrics from an untraced pass, per-layer metrics from a separate traced
// pass, and a byte-for-byte correctness check on every run. See
// ../README.md for what each number means and why it is measured that way.
//
// bench is a module of its own (it builds against the repository through a
// replace directive), so the commands run from bench/ or with -C bench:
//
//	go run -C bench ./perf                       # every workload, end-to-end metrics
//	go run -C bench ./perf -trace 1              # plus per-layer metrics and span files
//	go run -C bench ./perf -workload full_ram -seed 7 -seconds 28 -trace 0
//	go run -C bench ./perf -repeat 10            # same-code repeatability report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir is where per-run JSON and span files go, relative to bench/ (the
// directory `go run -C bench` runs the program in); bench/.gitignore names it.
const outDir = "out"

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	repeat   int
	out      string // directory for per-run JSON and span files
}

func main() {
	o := options{out: outDir}
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run this many whole sets back to back, compare interleaved halves, fail past half a bound")
	flag.Parse()
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	var ok bool
	var err error
	switch {
	case o.repeat > 0:
		ok, err = repeatCheck(o, os.Stdout)
	case o.workload == "all":
		ok, err = runEvery(o, os.Stdout)
	default:
		ok, err = runOne(o, os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}

// report is one invocation's result for one workload.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       envInfo            `json:"env"`
	Ops       map[string]int     `json:"op_counts"`
	Unstable  []string           `json:"unstable,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// runPass runs one pass of one workload in a scratch directory of its own,
// removed afterwards whether or not the pass succeeded.
func runPass(w workloadSpec, o options, p params, seconds float64, tr *tracer, corrupt bool) (*pass, envInfo, error) {
	scratch, err := newScratch(o.out)
	if err != nil {
		return nil, envInfo{}, err
	}
	defer os.RemoveAll(scratch)
	// An interrupted run must not leave its device files in tmpfs either.
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(scratch)
			os.Exit(130)
		case <-done:
		}
	}()
	defer func() { signal.Stop(sig); close(done) }()
	rc := &runCtx{seed: o.seed, seconds: seconds, p: p, tr: tr, scratch: scratch, corrupt: corrupt}
	ps, err := w.run(rc)
	runtime.GC() // a traced pass follows in this process: let it reuse these pages
	return ps, readEnv(scratch), err
}

// measure produces a workload's report. Untraced, it is one pass and the
// end-to-end metrics. Traced, it is two half-length passes — untraced, then
// traced — so the tracing overhead is taken inside one process, and the
// per-layer metrics come from the traced half.
func measure(w workloadSpec, o options, p params, corrupt bool) (*report, error) {
	rep := &report{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1}
	seconds := o.seconds
	if rep.Traced {
		seconds /= 2
	}
	plain, env, err := runPass(w, o, p, seconds, nil, corrupt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.Env, rep.Ops, rep.Unstable, rep.Failures = env, plain.ops, plain.notes, plain.fail
	rep.Attempted, rep.Failed = plain.attempted, plain.failed
	rep.EndToEnd = pick(plain.metrics, endToEnd)
	if !rep.Traced {
		return rep, nil
	}
	tr := newTracer()
	traced, _, err := runPass(w, o, p, seconds, tr, false)
	if err != nil {
		return nil, fmt.Errorf("%s (traced): %w", w.Name, err)
	}
	rep.Attempted += traced.attempted
	rep.Failed += traced.failed
	rep.Failures = append(rep.Failures, traced.fail...)
	for _, n := range traced.notes {
		if !slices.Contains(rep.Unstable, n) {
			rep.Unstable = append(rep.Unstable, n)
		}
	}
	m := traced.metrics
	// Raw and harness rows are informative, so they come from the half that
	// tracing did not slow down.
	for _, k := range []string{"save_gbps_raw", "recover_gbps_raw", "save_p50_ms_raw", "save_p90_ms_raw",
		"train.iters_per_s", "train.staleness_p50_iters", "tier1.lag_p50_ms", "tier1.lag_p90_ms"} {
		m[k] = plain.metrics[k]
	}
	m["bench.tracing_overhead_frac"] = 1 - ratio(m["save_frac_ideal"], plain.metrics["save_frac_ideal"])
	m["bench.failed_ops_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.PerLayer = pick(m, perLayer)
	if err := writeTrace(filepath.Join(o.out, w.Name+".trace.json"), tr.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// pick keeps exactly the named metrics; one a workload has no layer for
// reads 0.
func pick(m map[string]float64, specs []metricSpec) map[string]float64 {
	out := make(map[string]float64, len(specs))
	for _, s := range specs {
		out[s.Name] = m[s.Name]
	}
	return out
}

// printReport lists every metric by name with its unit and, end to end,
// its bound.
func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "== %s seed=%d seconds=%g traced=%v  %s nproc=%d GOMAXPROCS=%d %q scratch=%s tmpfs=%v\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.Env.GoVersion, rep.Env.NProc, rep.Env.GOMAXPROCS,
		rep.Env.CPUModel, rep.Env.ScratchDir, rep.Env.ScratchTmpfs)
	fmt.Fprintf(w, "   op counts %v; attempted %d, failed %d\n", rep.Ops, rep.Attempted, rep.Failed)
	for _, u := range rep.Unstable {
		fmt.Fprintf(w, "   UNSTABLE: %s\n", u)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, s := range endToEnd {
		fmt.Fprintf(w, "   %-44s %14.6g %-6s (%s is better, bound %g%%)\n", s.Name, rep.EndToEnd[s.Name], s.Unit, s.Better, 100*s.Bound)
	}
	// Always 0 on a healthy run, so it cannot be a gated metric of the result
	// line; it is that line's failed/attempted pair and decides the exit code.
	fmt.Fprintf(w, "   %-44s %14.6g %-6s (lower is better, bound 0 absolute: any failed operation fails the run)\n",
		"failed_ops_frac", ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio")
	if rep.PerLayer != nil {
		for _, s := range perLayer {
			fmt.Fprintf(w, "   %-44s %14.6g %s\n", s.Name, rep.PerLayer[s.Name], s.Unit)
		}
	}
}

func reportPath(o options, workload string, traced bool) string {
	mode := "e2e"
	if traced {
		mode = "traced"
	}
	return filepath.Join(o.out, fmt.Sprintf("%s-%s.json", workload, mode))
}

func saveReport(o options, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(reportPath(o, rep.Workload, rep.Traced), append(b, '\n'), 0o644)
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) line() resultLine {
	specs, vals := endToEnd, rep.EndToEnd
	if rep.Traced {
		specs, vals = perLayer, rep.PerLayer
	}
	l := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		l.Metrics[s.Name] = metricValue{vals[s.Name], s.Unit}
	}
	return l
}

// runOne is the driver's form: one workload; the last line carries the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
func runOne(o options, w io.Writer) (bool, error) {
	spec, err := findWorkload(o.workload)
	if err != nil {
		return false, err
	}
	rep, err := measure(spec, o, defaultParams(spec.Name), false)
	if err != nil {
		return false, err
	}
	printReport(w, rep)
	if err := saveReport(o, rep); err != nil {
		return false, err
	}
	b, err := json.Marshal(rep.line())
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return rep.Failed == 0, nil
}

// spawn runs one workload in a fresh process, as the driver does — a second
// pass in one process inherits the first one's heap, and its set-up reads
// differently — and returns the report that process saved.
func spawn(o options, workload string, trace int, seed uint64) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	// Exit status 1 is a run that reported failed operations; its report says so.
	if out, err := cmd.Output(); err != nil && cmd.ProcessState.ExitCode() != 1 {
		return nil, fmt.Errorf("%s: %w\n%s", workload, err, out)
	}
	b, err := os.ReadFile(reportPath(o, workload, trace == 1))
	if err != nil {
		return nil, err
	}
	rep := new(report)
	return rep, json.Unmarshal(b, rep)
}

// runEvery runs all four workloads, each in a process of its own. With
// -trace 1 each workload is measured twice: the full-length untraced run for
// the end-to-end metrics, then the traced pair for the per-layer metrics.
func runEvery(o options, w io.Writer) (bool, error) {
	summary := struct {
		Workloads map[string]*report `json:"workloads"`
		Claim     *string            `json:"claim"`
	}{Workloads: map[string]*report{}}
	ok := true
	for _, spec := range workloads {
		rep, err := spawn(o, spec.Name, 0, o.seed)
		if err != nil {
			return false, err
		}
		if o.trace == 1 {
			traced, err := spawn(o, spec.Name, 1, o.seed)
			if err != nil {
				return false, err
			}
			rep.PerLayer, rep.Unstable = traced.PerLayer, append(rep.Unstable, traced.Unstable...)
			rep.Attempted, rep.Failed = rep.Attempted+traced.Attempted, rep.Failed+traced.Failed
			rep.Failures = append(rep.Failures, traced.Failures...)
		}
		printReport(w, rep)
		summary.Workloads[spec.Name] = rep
		ok = ok && rep.Failed == 0
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", b)
	return ok, nil
}

// ---------------------------------------------------------------------------
// -repeat K

// checkRow is one metric × workload of the repeatability report: the
// medians of the two interleaved halves of the K runs, how far the second
// is worse than the first, the interquartile spread, and the verdict
// against half the bound.
type checkRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	MedianA  float64   `json:"median_even_runs"`
	MedianB  float64   `json:"median_odd_runs"`
	Gap      float64   `json:"gap_frac"`
	IQRFrac  float64   `json:"iqr_over_median"`
	Pass     bool      `json:"pass"`
	Values   []float64 `json:"values"`
}

// repeatCheck runs K whole sets back to back, each run in a fresh process
// as the driver does, each set on another seed.
func repeatCheck(o options, w io.Writer) (bool, error) {
	values := map[[2]string][]float64{}
	unstable := map[string]map[string][]int{} // workload → guard that fired → sets (from 1) it fired in
	var env envInfo
	for set := 0; set < o.repeat; set++ {
		for _, spec := range workloads {
			t := time.Now()
			rep, err := spawn(o, spec.Name, 0, o.seed+uint64(set))
			if err != nil {
				return false, fmt.Errorf("set %d: %w", set, err)
			}
			if rep.Failed > 0 {
				return false, fmt.Errorf("set %d: %s: %d failed operations: %v", set, spec.Name, rep.Failed, rep.Failures)
			}
			for name, v := range rep.EndToEnd {
				k := [2]string{spec.Name, name}
				values[k] = append(values[k], v)
			}
			for _, note := range rep.Unstable {
				guard, _, _ := strings.Cut(note, ":")
				if unstable[spec.Name] == nil {
					unstable[spec.Name] = map[string][]int{}
				}
				unstable[spec.Name][guard] = append(unstable[spec.Name][guard], set+1)
			}
			env = rep.Env
			fmt.Fprintf(w, "set %d/%d %-13s %5.1fs wall\n", set+1, o.repeat, spec.Name, time.Since(t).Seconds())
		}
	}
	var rows []checkRow
	ok := true
	for _, spec := range workloads {
		for _, s := range endToEnd {
			v := values[[2]string{spec.Name, s.Name}]
			var a, b []float64
			for i, x := range v {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			row := checkRow{Workload: spec.Name, Metric: s.Name, Unit: s.Unit, Bound: s.Bound,
				MedianA: median(a), MedianB: median(b), Values: v}
			// Worse means lower for "higher is better", higher otherwise; the
			// check is two-sided because either half could have run first.
			row.Gap = ratio(row.MedianB-row.MedianA, row.MedianA)
			if row.Gap < 0 {
				row.Gap = -row.Gap
			}
			row.IQRFrac = iqrOverMedian(v)
			row.Pass = row.Gap <= s.Bound/2
			ok = ok && row.Pass
			rows = append(rows, row)
			verdict := "ok"
			if !row.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(w, "%-13s %-34s %-6s halves %12.6g %12.6g gap %6.2f%% iqr/median %6.2f%% bound %4.1f%% %s\n",
				row.Workload, row.Metric, row.Unit, row.MedianA, row.MedianB, 100*row.Gap, 100*row.IQRFrac, 100*row.Bound, verdict)
		}
	}
	for _, spec := range workloads {
		for guard, sets := range unstable[spec.Name] {
			fmt.Fprintf(w, "%-13s UNSTABLE (%s) in sets %v\n", spec.Name, guard, sets)
		}
	}
	doc := struct {
		Issue   string  `json:"issue"`
		Repeat  int     `json:"repeat"`
		Seconds float64 `json:"seconds"`
		Seed    uint64  `json:"first_seed"`
		Env     envInfo `json:"env"`
		// Unstable lists, per workload and guard, the sets whose run a guard
		// marked; a row's values are in set order.
		Unstable map[string]map[string][]int `json:"unstable_runs"`
		Rows     []checkRow                  `json:"rows"`
		Pass     bool                        `json:"pass"`
		Claim    *string                     `json:"claim"`
	}{"13: define the benchmark", o.repeat, o.seconds, o.seed, env, unstable, rows, ok, nil}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "check.json"), append(b, '\n'), 0o644); err != nil {
		return false, err
	}
	fmt.Fprintf(w, `{"pass": %v, "report": %q, "claim": null}`+"\n", ok, filepath.Join(o.out, "check.json"))
	return ok, nil
}

// iqrOverMedian is the spread the driver computes: the distance between the
// first and third quartile, exclusive method as Python's
// statistics.quantiles(values, n=4), over the median.
func iqrOverMedian(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), median(s))
}
