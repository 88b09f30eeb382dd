package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/storage"
)

// tiered_paced is an open loop: one save falls due every period whether or
// not the previous one finished, and every latency counts from the due
// time. Closed-loop saves at this size overflow the tier journal into
// full-image resyncs and were bimodal; paced at half of tier 1's bandwidth
// the journal stays incremental.
const (
	tieredPolls      = 4  // Status() polls per period; it allocates, so the count is fixed
	tieredSlice      = 10 // periods per slice
	tieredDrainLimit = 10 * time.Second
)

type pacedSave struct {
	due, end time.Time
	counter  uint64
	err      error
}

type durableObs struct {
	counter uint64
	at      time.Time
}

func runTieredPaced(rc *runCtx) (*pass, error) {
	ps := newPass()
	p := rc.p
	cfg := core.Config{Concurrent: 2, SlotBytes: int64(p.payload), Writers: 2, ChunkBytes: p.chunk, VerifyPayload: true}
	size := core.DeviceBytesFor(cfg)

	tf := time.Now()
	r := newRNG(rc.seed)
	payload := make([]byte, p.payload)
	r.fill(payload)
	sink := touch(make([]byte, p.payload))
	image := touch(make([]byte, size))
	maxSaves := int(rc.seconds/p.period.Seconds()) + int(p.warmup/p.period) + 2*tieredSlice + 64
	saves := make([]pacedSave, maxSaves)
	seen := make([]durableObs, 0, maxSaves*tieredPolls)
	pending := make([]float64, 0, maxSaves*tieredPolls)
	late := make([]float64, 0, maxSaves)
	refs := make([]time.Duration, maxSaves) // reference pass taken in period k's idle gap
	prefault(16 * p.payload)
	ps.metrics["bench.fixture_s"] = time.Since(tf).Seconds()
	ps.throttleGuard(p.tier1BW, p.chunk)

	t0 := time.Now()
	tier0 := rc.wrap(storage.NewRAMFromBytes(image), 0)
	path := filepath.Join(rc.scratch, "tier1.dev")
	ssd, err := storage.OpenSSD(path, size, storage.WithSSDThrottle(storage.NewThrottle(p.tier1BW)))
	if err != nil {
		return nil, err
	}
	td, err := storage.NewTiered([]storage.Device{tier0, rc.wrap(ssd, 1)})
	if err != nil {
		ssd.Close()
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			td.Close()
		}
	}()

	// The generator launches at due times, polls tier status a fixed number
	// of times per period, and takes a reference pass in the idle gap at the
	// end of each period. It makes the Checkpoint call itself: a save is a
	// tenth of a period, and handing it to a parked goroutine put a
	// cross-vCPU wake-up (0.1–1 ms here, different from run to run) into
	// every latency. A save that overran its period would make the next
	// launch late, and that lateness counts, as in any open loop.
	var eng *core.Checkpointer
	next := 0 // next save index
	generate := func(periods int, measure bool) {
		start := time.Now().Add(p.period / tieredPolls)
		for tick := 0; tick < periods*tieredPolls; tick++ {
			due := start.Add(time.Duration(tick) * p.period / tieredPolls)
			if tick%tieredPolls != 0 {
				sleepUntil(due)
			} else {
				spinUntil(due)
				k := next
				next++
				s := &saves[k]
				s.due = due
				if measure {
					late = append(late, ms(time.Since(due)))
				}
				stamp(payload, 0, uint64(k))
				s.counter, _, s.err = rc.checkpoint(eng, payload, int64(k))
				s.end = time.Now()
				if measure {
					refs[k] = refPass(sink, payload)
				}
			}
			st := td.Status()
			if n := len(seen); n == 0 || seen[n-1].counter != st[1].DurableCounter {
				seen = append(seen, durableObs{st[1].DurableCounter, st[1].DurableAt})
			}
			if measure {
				pending = append(pending, float64(st[1].PendingOps))
			}
		}
	}
	// One save at a time means the payload buffer still holds the newest
	// acknowledged save when the run ends.
	newest := func() (counter uint64, want []byte) {
		for k := 0; k < next; k++ {
			if saves[k].counter > counter {
				counter = saves[k].counter
			}
		}
		return counter, payload
	}

	reopen := cfg
	var rec *obs.Recorder
	if rc.tr != nil {
		rec = obs.NewRecorder(0)
		reopen.Observer = rec
	}
	eng, err = bootEngine(rc, ps, t0, td, cfg, reopen, func(e *core.Checkpointer, until time.Time) (uint64, []byte, error) {
		eng = e
		generate(int(time.Until(until)/p.period)-1, false)
		for k := 0; k < next; k++ {
			if saves[k].err != nil {
				return 0, nil, saves[k].err
			}
		}
		td.WaitDrained(tieredDrainLimit)
		counter, want := newest()
		return counter, want, nil
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Timed phase.
	first := next
	periods := int(rc.saveBudget() / p.period / tieredSlice * tieredSlice)
	gc0 := gcSnapshot()
	runtime.GC()
	before := td.Status()[1]
	var mem memDelta
	timedFrom := rc.tr.now()
	mem.begin()
	generate(periods, true)
	mem.end()
	timedTo := rc.tr.now()
	drained := td.WaitDrained(tieredDrainLimit)
	after := td.Status()[1]
	seen = append(seen, durableObs{after.DurableCounter, after.DurableAt})
	st := eng.Stats()
	n := next - first
	ps.attempted += n
	ps.ops["saves"], ps.ops["slices"] = n, n/tieredSlice
	if !drained {
		ps.attempted++
		ps.failf("tier 1 did not drain within %v", tieredDrainLimit)
	}

	// Save latency from due time per slice against the slice's reference
	// passes; tier-1 lag from due time to the drainer's own DurableAt.
	model := time.Duration(float64(p.payload) / p.tier1BW * float64(time.Second))
	var sliceFrac, sliceRefMS, ackMS, lagMS []float64
	var ackSum time.Duration
	for lo := first; lo+tieredSlice <= next; lo += tieredSlice {
		var ack, ref []float64
		for k := lo; k < lo+tieredSlice; k++ {
			s := &saves[k]
			if s.err != nil {
				ps.failf("save %d: %v", k, s.err)
				continue
			}
			ack = append(ack, ms(s.end.Sub(s.due)))
			ackSum += s.end.Sub(s.due)
			if refs[k] > 0 {
				ref = append(ref, ms(refs[k]))
			}
			for _, o := range seen {
				if o.counter >= s.counter {
					lagMS = append(lagMS, ms(o.at.Sub(s.due)))
					break
				}
			}
		}
		ackMS = append(ackMS, ack...)
		sliceFrac = append(sliceFrac, ratio(median(ref), median(ack)))
		sliceRefMS = append(sliceRefMS, median(ref))
	}
	if len(lagMS) != n {
		ps.failf("tier-1 durability observed for %d of %d saves", len(lagMS), n)
	}

	// Orderly close drains once more and closes both levels; recovery then
	// reads the tier-1 file alone.
	counter, want := newest()
	if rc.tr != nil {
		probeEngine(rc, ps.metrics, eng, sink, want)
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	closed = true
	if err := td.Close(); err != nil {
		return nil, fmt.Errorf("tiered close: %w", err)
	}
	lower, err := storage.ReopenSSD(path)
	if err != nil {
		return nil, err
	}
	defer lower.Close()
	if rc.corrupt {
		buf := make([]byte, size)
		if err := lower.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		if !corruptStored(buf, want) {
			return nil, fmt.Errorf("corrupt hook: stored copy of the newest save not found")
		}
		if err := lower.WriteAt(buf, 0); err != nil {
			return nil, err
		}
	}
	tier1 := rc.wrap(lower, 1)
	cold := recoverReps(rc, ps, p.recoverReps, tier1, want, counter)
	ps.ops["recoveries"] = len(cold.refMS)

	m := ps.metrics
	payloadBytes := float64(n) * float64(p.payload)
	drainedBytes := float64(after.DrainedBytes - before.DrainedBytes)
	m["save_frac_ideal"] = median(sliceFrac)
	m["durable_p50_frac_ideal"] = ratio(ms(model), quantile(lagMS, 0.50))
	m["durable_p90_frac_ideal"] = ratio(ms(model), quantile(lagMS, 0.90))
	cold.into(m)
	m["persisted_bytes_per_payload_byte"] = ratio(float64(st.BytesPersisted)+drainedBytes, float64(st.BytesWritten))
	m["alloc_bytes_per_payload_byte"] = ratio(float64(mem.bytes), payloadBytes)
	m["allocs_per_save"] = ratio(float64(mem.mallocs), float64(n))
	ps.driftNote(sliceRefMS)

	m["tier1.lag_p50_ms"] = quantile(lagMS, 0.50)
	m["tier1.lag_p90_ms"] = quantile(lagMS, 0.90)
	m["save_gbps_raw"] = gbps(payloadBytes, ackSum)
	m["save_p50_ms_raw"] = quantile(ackMS, 0.50)
	m["save_p90_ms_raw"] = quantile(ackMS, 0.90)
	m["ref.ideal_gbps"] = gbps(float64(p.payload), time.Duration(median(sliceRefMS)*1e6))
	m["bench.generator_late_p95_ms"] = quantile(late, 0.95)
	m["storage.tiered.resyncs"] = float64(after.Resyncs - before.Resyncs)
	m["storage.tiered.pending_ops_p95"] = quantile(pending, 0.95)
	engineCounters(m, st)
	gc0.into(m)
	if rc.tr != nil {
		phaseMetrics(m, rec)
		layerMetrics(m, rc.tr.spans, cfg.SlotBytes, cfg.Concurrent+1, timedFrom, timedTo)
		m["storage.tiered.drain_gbps"] = gbps(drainedBytes, tier1BusyUnion(rc.tr.spans, timedFrom, timedTo))
		probeLayers(m, p)
		m["storage.tiered.front_write_frac_ideal"] = probeTieredFrontWrite(p)
	}
	return ps, nil
}
