// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating the artefact from the calibrated simulator and reporting its
// headline numbers as metrics), plus real-engine microbenchmarks that
// exercise the actual checkpointing code path at MB scale — the laptop-sized
// counterpart of Figure 11's persist-latency and Figures 12/13's sensitivity
// sweeps.
//
// Regenerate everything:
//
//	go test -bench=. -benchmem
//	go test -bench=Figure8            # one artefact
//	go run ./cmd/pccheck-bench -all   # the same data as CSV files
package pccheck

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"pccheck/internal/baselines"
	"pccheck/internal/core"
	"pccheck/internal/device"
	"pccheck/internal/figures"
	"pccheck/internal/perfmodel"
	"pccheck/internal/pmem"
	"pccheck/internal/sim"
	"pccheck/internal/storage"
	"pccheck/internal/workload"
)

// reportCell parses one figure cell into a benchmark metric.
func reportCell(b *testing.B, fig figures.Figure, row int, col, metric string) {
	b.Helper()
	for i, c := range fig.Columns {
		if c == col {
			v, err := strconv.ParseFloat(fig.Rows[row][i], 64)
			if err != nil {
				b.Fatalf("%s[%d].%s: %v", fig.ID, row, col, err)
			}
			b.ReportMetric(v, metric)
			return
		}
	}
	b.Fatalf("%s has no column %s", fig.ID, col)
}

// BenchmarkFigure1 regenerates Figure 1 (BLOOM-7B slowdown of CheckFreq and
// Gemini vs checkpoint interval) and reports the f=10 slowdowns.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCell(b, fig, 1, "checkfreq_slowdown", "cf-slowdown@f10")
			reportCell(b, fig, 1, "gemini_slowdown", "gem-slowdown@f10")
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (BLOOM-7B goodput on the spot trace)
// and reports PCcheck's and CheckFreq's goodput at f=10.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCell(b, fig, 1, "pccheck", "pccheck-goodput@f10")
			reportCell(b, fig, 1, "checkfreq", "cf-goodput@f10")
			reportCell(b, fig, 1, "ideal", "ideal-goodput@f10")
		}
	}
}

// BenchmarkFigure8 regenerates every panel of Figure 8 (throughput vs
// checkpoint interval on SSD); sub-benchmarks report PCcheck's and
// CheckFreq's throughput at f=10.
func BenchmarkFigure8(b *testing.B) {
	for _, model := range figures.Figure8Models {
		b.Run(model, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig, err := figures.Figure8(model)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					reportCell(b, fig, 1, "pccheck_iters_per_sec", "pccheck-iters/s@f10")
					reportCell(b, fig, 1, "checkfreq_iters_per_sec", "cf-iters/s@f10")
				}
			}
		})
	}
}

// BenchmarkFigure9 regenerates every panel of Figure 9 (goodput on the spot
// trace).
func BenchmarkFigure9(b *testing.B) {
	for _, model := range figures.Figure8Models {
		b.Run(model, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig, err := figures.Figure9(model)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					reportCell(b, fig, 1, "pccheck_goodput", "pccheck-goodput@f10")
					reportCell(b, fig, 1, "checkfreq_goodput", "cf-goodput@f10")
				}
			}
		})
	}
}

// BenchmarkFigure10 regenerates Figure 10 (BERT on PMEM).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCell(b, fig, 1, "pccheck_iters_per_sec", "pccheck-iters/s@f10")
			reportCell(b, fig, 1, "checkfreq_iters_per_sec", "cf-iters/s@f10")
		}
	}
}

// BenchmarkFigure11 regenerates Figure 11 (time to persist one checkpoint vs
// size) and reports the 16 GB persist times.
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := len(fig.Rows) - 1
			reportCell(b, fig, last, "pccheck_s", "pccheck-s@16GB")
			reportCell(b, fig, last, "checkfreq_s", "cf-s@16GB")
			reportCell(b, fig, last, "gpm_s", "gpm-s@16GB")
			reportCell(b, fig, last, "gemini_s", "gemini-s@16GB")
		}
	}
}

// BenchmarkFigure12 regenerates Figure 12 (concurrent-checkpoint
// sensitivity, VGG-16) and reports N=1 vs N=4 slowdown at f=10.
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCell(b, fig, 1, "slowdown_N1", "slowdown-N1@f10")
			reportCell(b, fig, 1, "slowdown_N4", "slowdown-N4@f10")
		}
	}
}

// BenchmarkFigure13 regenerates Figure 13 (writer-thread sensitivity,
// OPT-350M at f=10).
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCell(b, fig, 0, "slowdown_N1", "slowdown-p1-N1")
			reportCell(b, fig, 2, "slowdown_N1", "slowdown-p3-N1")
		}
	}
}

// BenchmarkFigure14 regenerates Figure 14 (DRAM budget and pipelining,
// OPT-1.3B at f=15).
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := figures.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportCell(b, fig, 0, "p6", "iters/s@DRAM=m")
			reportCell(b, fig, 2, "p6", "iters/s@DRAM=2m")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (memory footprints).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table1(3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 (the model zoo).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- real-engine microbenchmarks ---------------------------------------------

// BenchmarkRealEngineSave measures the actual engine's end-to-end Save
// throughput on an in-memory device across the paper's configuration axes
// (N concurrent checkpoints × p writers). This is the real-code counterpart
// of Figures 12/13.
func BenchmarkRealEngineSave(b *testing.B) {
	const payloadBytes = 4 << 20
	payload := make([]byte, payloadBytes)
	for _, n := range []int{1, 2, 4} {
		for _, p := range []int{1, 3} {
			b.Run(fmt.Sprintf("N%d-p%d", n, p), func(b *testing.B) {
				dev := storage.NewRAM(core.DeviceBytes(n, payloadBytes))
				eng, err := core.New(dev, core.Config{
					Concurrent: n, SlotBytes: payloadBytes,
					Writers: p, ChunkBytes: 1 << 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(payloadBytes)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

// BenchmarkRealPersistLatency is the real-code Figure 11: one isolated
// checkpoint persisted by each mechanism onto a bandwidth-throttled file
// device (50 MB/s "SSD", 8 MB payload), reporting seconds per checkpoint.
func BenchmarkRealPersistLatency(b *testing.B) {
	const payloadBytes = 8 << 20
	payload := make([]byte, payloadBytes)
	newDev := func(b *testing.B) *storage.SSD {
		dev, err := storage.OpenSSD(b.TempDir()+"/dev", core.DeviceBytes(1, payloadBytes),
			storage.WithSSDThrottle(storage.NewThrottle(50<<20)))
		if err != nil {
			b.Fatal(err)
		}
		return dev
	}
	b.Run("pccheck", func(b *testing.B) {
		dev := newDev(b)
		defer dev.Close()
		eng, err := core.New(dev, core.Config{
			Concurrent: 1, SlotBytes: payloadBytes, Writers: 4, ChunkBytes: 1 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(payloadBytes)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkfreq", func(b *testing.B) {
		dev := newDev(b)
		defer dev.Close()
		cf, err := baselines.NewCheckFreq(dev, payloadBytes, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer cf.Close()
		b.SetBytes(payloadBytes)
		for i := 0; i < b.N; i++ {
			if _, err := cf.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
				b.Fatal(err)
			}
			if err := cf.WaitIdle(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gpm", func(b *testing.B) {
		dev := newDev(b)
		defer dev.Close()
		g, err := baselines.NewGPM(dev, payloadBytes)
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		b.SetBytes(payloadBytes)
		for i := 0; i < b.N; i++ {
			if _, err := g.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSaveLatencyDistribution runs concurrent saves with the flight
// recorder attached and reports the latency percentiles the histograms
// collected — the latency-distribution counterpart of the mean-throughput
// numbers above (Figure 11 reports means; operators alert on tails).
func BenchmarkSaveLatencyDistribution(b *testing.B) {
	const payloadBytes = 1 << 20
	payload := make([]byte, payloadBytes)
	rec := NewFlightRecorder(1 << 12)
	dev := storage.NewRAM(core.DeviceBytes(2, payloadBytes))
	eng, err := core.New(dev, core.Config{
		Concurrent: 2, SlotBytes: payloadBytes,
		Writers: 2, ChunkBytes: 256 << 10, Observer: rec,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(payloadBytes)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	snap := rec.Snapshot()
	save := snap.Phase(PhaseSave)
	b.ReportMetric(float64(save.P50.Microseconds())/1e3, "save-p50-ms")
	b.ReportMetric(float64(save.P99.Microseconds())/1e3, "save-p99-ms")
	b.ReportMetric(float64(snap.Phase(PhaseSlotWait).P99.Microseconds())/1e3, "slot-wait-p99-ms")
}

// BenchmarkObserverOverhead measures the same save path with observability
// off (nil observer — the zero-overhead claim) and on (flight recorder
// attached); the two sub-benchmarks should be within noise of each other.
func BenchmarkObserverOverhead(b *testing.B) {
	const payloadBytes = 1 << 20
	payload := make([]byte, payloadBytes)
	run := func(b *testing.B, obsv Observer) {
		dev := storage.NewRAM(core.DeviceBytes(2, payloadBytes))
		eng, err := core.New(dev, core.Config{
			Concurrent: 2, SlotBytes: payloadBytes,
			Writers: 2, ChunkBytes: 256 << 10, Observer: obsv,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(payloadBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, NewFlightRecorder(1<<12)) })
}

// BenchmarkRecovery measures the real cold-start recovery path: open a
// formatted device, locate the newest valid pointer record, validate the
// slot, and read the payload back.
func BenchmarkRecovery(b *testing.B) {
	const payloadBytes = 4 << 20
	dev := storage.NewRAM(core.DeviceBytes(2, payloadBytes))
	eng, err := core.New(dev, core.Config{Concurrent: 2, SlotBytes: payloadBytes, VerifyPayload: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.Checkpoint(context.Background(), core.BytesSource(make([]byte, payloadBytes))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(payloadBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Recover(dev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorSpeed measures the simulator itself: one full PCcheck
// BLOOM-7B run at f=10 (the cost of regenerating a single figure point).
func BenchmarkSimulatorSpeed(b *testing.B) {
	model, err := workload.ByName("BLOOM-7B")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(sim.Config{
			Algo: perfmodel.PCcheck, Model: model, Platform: workload.A100GCP,
			Interval: 10, Concurrent: 2, Writers: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benchmarks ------------------------------------------------------
//
// DESIGN.md calls out the design choices below; each ablation isolates one.

// BenchmarkAblationPMEMWritePath compares the two PMEM persist instruction
// sequences of §3.3 — non-temporal stores + sfence vs cached stores + clwb +
// sfence — on the emulated device with bandwidth calibrated to the paper's
// measurements (4.01 vs 2.46 GB/s, scaled 1000× down to keep the bench
// fast). PCcheck picks the nt-store path.
func BenchmarkAblationPMEMWritePath(b *testing.B) {
	const payloadBytes = 1 << 20
	payload := make([]byte, payloadBytes)
	cases := []struct {
		name string
		mode storage.PMEMMode
		bw   float64
	}{
		{"ntstore", storage.NTStore, 4.01e6}, // calibrated ratio, scaled
		{"clwb", storage.CLWB, 2.46e6},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			region := pmem.NewRegion(int(core.DeviceBytes(1, payloadBytes)))
			dev := storage.NewPMEM(region,
				storage.WithPMEMMode(tc.mode),
				storage.WithPMEMThrottle(storage.NewThrottle(tc.bw)))
			eng, err := core.New(dev, core.Config{Concurrent: 1, SlotBytes: payloadBytes, Writers: 2, ChunkBytes: 256 << 10})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(payloadBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPipelining compares whole-checkpoint staging against
// chunked pipelining (§4.1 "Pipelining and Using Chunks" / Figure 14's
// mechanism) in the real engine: the payload is pulled out of emulated
// accelerator memory over a paced interconnect — the D2H copy pipelining
// exists to overlap — and persisted to a throttled device. (An in-memory
// payload would not do: the engine persists it where it lies, and there is
// no copy to overlap.)
func BenchmarkAblationPipelining(b *testing.B) {
	const payloadBytes = 8 << 20
	gpu := device.New(device.Config{PCIeBytesPerSec: 200 << 20})
	buf, err := gpu.Alloc(payloadBytes)
	if err != nil {
		b.Fatal(err)
	}
	src, err := device.NewCheckpointSource(gpu, buf, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		chunkBytes int
	}{
		{"staged", payloadBytes},
		{"pipelined-8chunks", payloadBytes / 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dev, err := storage.OpenSSD(b.TempDir()+"/dev", core.DeviceBytes(1, payloadBytes),
				storage.WithSSDThrottle(storage.NewThrottle(100<<20)))
			if err != nil {
				b.Fatal(err)
			}
			defer dev.Close()
			eng, err := core.New(dev, core.Config{
				Concurrent: 1, SlotBytes: payloadBytes,
				Writers: 2, ChunkBytes: tc.chunkBytes,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(payloadBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Checkpoint(context.Background(), src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSaveRAM is the copy half of the ceiling: the same 64 MiB through
// the same engine (p=2, 4 MiB pieces, Verify on, un-throttled RAM), once as
// BytesSource — persisted from the caller's buffer — and once behind a
// funcSource, which the engine must stage through the chunk pool first. The
// difference is one memcpy of the payload per save.
func BenchmarkSaveRAM(b *testing.B) {
	const payloadBytes = 64 << 20
	payload := make([]byte, payloadBytes)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name string
		src  core.Source
	}{
		{"view", core.BytesSource(payload)},
		{"staged", funcSource{size: payloadBytes, read: func(p []byte, off int64) error {
			copy(p, payload[off:])
			return nil
		}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := core.Config{Concurrent: 1, SlotBytes: payloadBytes, Writers: 2, ChunkBytes: 4 << 20, VerifyPayload: true}
			eng, err := core.New(storage.NewRAM(core.DeviceBytesFor(cfg)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			b.SetBytes(payloadBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Checkpoint(context.Background(), tc.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVerify measures the cost of payload checksumming
// (Config.Verify): a CRC32 folded over each piece as the producer cuts it,
// in payload order, plus a check on read.
func BenchmarkAblationVerify(b *testing.B) {
	const payloadBytes = 4 << 20
	payload := make([]byte, payloadBytes)
	for _, verify := range []bool{false, true} {
		name := "off"
		if verify {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			dev := storage.NewRAM(core.DeviceBytes(1, payloadBytes))
			eng, err := core.New(dev, core.Config{
				Concurrent: 1, SlotBytes: payloadBytes,
				Writers: 2, ChunkBytes: 1 << 20, VerifyPayload: verify,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(payloadBytes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProtocolOverhead isolates the coordination protocol
// itself: 64-byte checkpoints make the counter/queue/CAS/pointer-record
// machinery dominate.
func BenchmarkAblationProtocolOverhead(b *testing.B) {
	payload := make([]byte, 64)
	dev := storage.NewRAM(core.DeviceBytes(4, 64))
	eng, err := core.New(dev, core.Config{Concurrent: 4, SlotBytes: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := eng.Checkpoint(context.Background(), core.BytesSource(payload)); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
