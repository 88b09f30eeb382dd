package main

import (
	"fmt"
	"hash/crc32"
	"time"

	"pccheck/internal/chunkpool"
	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// Stand-alone timings of public layer functions at the workload's sizes.
// They run on the traced pass only, after the timed phase, and each compares
// against a reference taken right next to it.

const probeReps = 5

// probeEngine times the warm read path, one scrub sweep and one black-box
// flush on the live engine.
func probeEngine(rc *runCtx, m map[string]float64, eng *core.Checkpointer, sink, want []byte) {
	dst := make([]byte, len(want))
	var fr, scrub, flush []float64
	for i := 0; i < probeReps; i++ {
		ref := refPass(sink, want)
		t := time.Now()
		if _, _, err := eng.ReadLatest(dst); err == nil {
			fr = append(fr, ratio(float64(ref), float64(time.Since(t))))
		}
		t = time.Now()
		if _, _, err := eng.ScrubNow(); err == nil {
			scrub = append(scrub, ms(time.Since(t)))
		}
		t = time.Now()
		if seq, err := eng.FlushBlackBox(); err == nil && seq > 0 {
			flush = append(flush, ms(time.Since(t)))
		}
	}
	m["core.read_latest_frac_ideal"] = median(fr)
	m["core.scrub_sweep_ms"] = median(scrub)
	m["obs.blackbox.flush_ms"] = median(flush)
}

// probeLayers times chunkpool, the recorder's Emit, storage.RAM writes and
// the two halves of the reference pass.
func probeLayers(m map[string]float64, p params) {
	const ops = 200000
	if pool, err := chunkpool.New(4, 64); err == nil {
		t := time.Now()
		for i := 0; i < ops; i++ {
			c, _ := pool.Acquire(bg)
			pool.Release(c)
		}
		m["chunkpool.acquire_release_ns"] = float64(time.Since(t)) / ops
	}
	rec := obs.NewRecorder(0)
	ev := obs.Event{Phase: obs.PhaseCopy, Dur: 1000, Slot: 0, Writer: -1, Rank: -1}
	t := time.Now()
	for i := 0; i < ops; i++ {
		ev.TS = int64(i)
		rec.Emit(ev)
	}
	m["obs.emit_ns"] = float64(time.Since(t)) / ops

	src := touch(make([]byte, p.payload))
	dst := touch(make([]byte, p.payload))
	ram := storage.NewRAM(int64(p.payload))
	var write, cp, crc []float64
	for i := 0; i < probeReps; i++ {
		t := time.Now()
		copy(dst, src)
		c := time.Since(t)
		t = time.Now()
		refSink.Add(crc32.ChecksumIEEE(dst))
		crc = append(crc, gbps(float64(p.payload), time.Since(t)))
		cp = append(cp, gbps(float64(p.payload), c))
		write = append(write, ratio(float64(c), float64(writeChunks(ram, src, p.chunk))))
	}
	m["storage.ram.write_frac_ideal"] = median(write)
	m["ref.memcpy_gbps"] = median(cp)
	m["ref.crc32_gbps"] = median(crc)
}

// writeChunks writes src to dev chunk by chunk, as the engine's writers do.
func writeChunks(dev storage.Device, src []byte, chunk int) time.Duration {
	t := time.Now()
	for off := 0; off < len(src); off += chunk {
		end := off + chunk
		if end > len(src) {
			end = len(src)
		}
		if err := dev.WriteAt(src[off:end], int64(off)); err != nil {
			return 0
		}
	}
	return time.Since(t)
}

// probeTieredFrontWrite is what the tier journal costs a front-tier write:
// the same chunked writes into a bare storage.RAM over a storage.Tiered
// with a RAM tier below it.
func probeTieredFrontWrite(p params) float64 {
	src := touch(make([]byte, p.payload))
	bare := storage.NewRAM(int64(p.payload))
	td, err := storage.NewTiered([]storage.Device{storage.NewRAM(int64(p.payload)), storage.NewRAM(int64(p.payload))})
	if err != nil {
		return 0
	}
	defer td.Close()
	var fr []float64
	for i := 0; i < probeReps; i++ {
		ref := writeChunks(bare, src, p.chunk)
		fr = append(fr, ratio(float64(ref), float64(writeChunks(td, src, p.chunk))))
		td.WaitDrained(tieredDrainLimit)
	}
	return median(fr)
}

// probeRecorderOverhead alternates blocks of saves with a flight recorder
// attached and with a nil observer on the same device, and returns how much
// slower the recorder's blocks were.
func probeRecorderOverhead(rc *runCtx, dev storage.Device, cfg core.Config, buf []byte) float64 {
	const blocks, perBlock = 6, 8
	var with, without []float64
	for b := 0; b < 2*blocks; b++ {
		c := cfg
		if b%2 == 1 {
			c.Observer = obs.NewRecorder(0)
		}
		eng, err := core.Open(dev, c)
		if err != nil {
			return 0
		}
		var sum time.Duration
		for i := 0; i < perBlock; i++ {
			_, d, err := rc.checkpoint(eng, buf, -1)
			if err != nil {
				eng.Close()
				return 0
			}
			sum += d
		}
		eng.Close()
		if b%2 == 1 {
			with = append(with, float64(sum))
		} else {
			without = append(without, float64(sum))
		}
	}
	return ratio(median(with), median(without)) - 1
}

// throttleGuard measures how late storage.Throttle's sleeps wake on this
// machine, as a share of the model time of one chunk: each late wake-up
// pushes the pacer's timeline back, so lateness adds up exactly as it does in
// the engine's writer lanes. It is the median over the intervals between
// consecutive Acquire returns, so one stalled wake-up does not decide it.
// ISSUE 13 drew the line at 2 %; a sleep here ends a steady 0.2–0.45 ms late
// (see defaultParams), which the probe reads as 1.4–2.1 % of tiered_paced's
// 13 ms chunk slot and 2.0–2.3 % of train_ssd's 21 ms one, so the line that
// separates a bad run from a normal one here is 4 %.
const (
	unstableOvershoot = 0.04
	overshootAcquires = 32
)

func (ps *pass) throttleGuard(bytesPerSec float64, chunk int) {
	th := storage.NewThrottle(bytesPerSec)
	model := float64(chunk) / bytesPerSec * float64(time.Second)
	intervals := make([]float64, overshootAcquires)
	th.Acquire(chunk)
	last := time.Now()
	for i := range intervals {
		th.Acquire(chunk)
		now := time.Now()
		intervals[i], last = float64(now.Sub(last)), now
	}
	f := median(intervals)/model - 1
	ps.metrics["storage.throttle.overshoot_frac"] = f
	if f > unstableOvershoot {
		ps.notes = append(ps.notes, fmt.Sprintf("throttle-overshoot: storage.throttle.overshoot_frac %.3f > %g", f, unstableOvershoot))
	}
}
