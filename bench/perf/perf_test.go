package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"pccheck/internal/storage"
	"pccheck/internal/storage/storagetest"
)

// toyParams shrinks a workload to 256 KiB, and toySeconds its timed phase to
// a few slices, so the whole benchmark — every workload, both passes, on the
// same clock-bounded path a real run takes — runs in a couple of seconds.
func toyParams(workload string) params {
	p := defaultParams(workload)
	p.payload, p.chunk = 256<<10, 64<<10
	p.warmup, p.recoverReps = 30*time.Millisecond, 2
	p.period = 4 * time.Millisecond
	p.sleep, p.bbEvery, p.scrubEvery = 200*time.Microsecond, 5*time.Millisecond, 20*time.Millisecond
	return p
}

const toySeconds = 0.12

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from spec.go")

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON renders the contract file from the tables in spec.go, so the
// committed BENCHMARK.json and the program cannot drift apart.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "./perf"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to marshal
	}
	return append(out, '\n')
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Fatal("BENCHMARK.json is out of date: regenerate with `go test -C bench ./perf -run TestSpec -update`")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is not a valid benchmark name", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric %q is declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or a why of %d characters", w.Name, len(w.Why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the contract's 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestEveryWorkloadToy drives each workload through the untraced and the
// traced form and checks the result line the driver reads: every declared
// metric exactly once with its unit, nothing else, nothing failed.
func TestEveryWorkloadToy(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			o := options{workload: w.Name, seed: 42, seconds: toySeconds, trace: trace, out: t.TempDir()}
			rep, err := measure(w, o, toyParams(w.Name), false)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			// The timed phase ends on the clock; at toy size that must still be
			// a few whole slices, or the medians below are of nothing.
			if rep.Ops["saves"] < 2 || rep.Ops["recoveries"] < 2 {
				t.Errorf("%s trace=%d: op counts %v, want at least 2 saves and 2 recoveries", w.Name, trace, rep.Ops)
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: attempted %d, failed %d: %v", w.Name, trace, rep.Attempted, rep.Failed, rep.Failures)
			}
			specs := endToEnd
			if trace == 1 {
				specs = perLayer
				if _, err := os.Stat(filepath.Join(o.out, w.Name+".trace.json")); err != nil {
					t.Errorf("%s: span file: %v", w.Name, err)
				}
			}
			line := rep.line()
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics on the result line, %d declared", w.Name, trace, len(line.Metrics), len(specs))
			}
			for _, s := range specs {
				v, ok := line.Metrics[s.Name]
				if !ok || v.Unit != s.Unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q != %q", w.Name, trace, s.Name, v.Unit, s.Unit)
				}
				if trace == 0 && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, v.Value)
				}
			}
			// train_ssd's black-box flushes are background writes with no
			// parent save, and at toy size they are a large share.
			if trace == 1 && w.Name != "train_ssd" {
				if f := rep.PerLayer["bench.trace_attributed_frac"]; f < 0.9 {
					t.Errorf("%s: only %.2f of device span time was attributed to a save", w.Name, f)
				}
			}
		}
	}
}

// TestCorruptByteFailsTheRun flips one stored byte under each workload and
// expects the correctness check to report it.
func TestCorruptByteFailsTheRun(t *testing.T) {
	for _, w := range workloads {
		o := options{workload: w.Name, seed: 7, seconds: toySeconds, out: t.TempDir()}
		rep, err := measure(w, o, toyParams(w.Name), true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed == 0 || rep.line().Correct {
			t.Errorf("%s: a corrupted stored byte went unnoticed", w.Name)
		}
	}
}

// TestTracedDeviceConformance proves the tracing wrapper cannot change
// device semantics: it passes the storage layer's own conformance suite.
func TestTracedDeviceConformance(t *testing.T) {
	rc := &runCtx{tr: newTracer()}
	storagetest.Run(t, func(t *testing.T, size int64) storage.Backend {
		return rc.wrap(storage.NewRAM(size), 0)
	})
	if len(rc.tr.spans) == 0 {
		t.Fatal("the wrapper recorded no spans")
	}
}
