package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/storage"
	"pccheck/internal/workload"
)

var bg = context.Background()

// The two RAM workloads are closed loops on an un-throttled storage.RAM:
// clients save back to back, and every slice interleaves a few reference
// passes with a fixed count of saves so that memory-bandwidth drift on a
// shared VM hits both and cancels in the ratio.
type ramShape struct {
	clients int
	rounds  int // a slice is this many rounds of refs reference passes, then saves saves, per client
	refs    int
	saves   int
	delta   bool
}

func runFullRAM(rc *runCtx) (*pass, error) {
	return runRAM(rc, ramShape{clients: 2, rounds: 8, refs: 1, saves: 2})
}

// One delta_ram slice is exactly one keyframe cycle: the engine re-attached
// at the end of set-up starts with a keyframe, then K=8 deltas.
func runDeltaRAM(rc *runCtx) (*pass, error) {
	return runRAM(rc, ramShape{clients: 1, rounds: 9, refs: 1, saves: 1, delta: true})
}

type saveRec struct {
	counter uint64
	index   uint64
	slice   int
	dur     time.Duration
}

// ramClient is one closed-loop client: a long-lived goroutine fed phases
// over a channel, so a timed phase spawns nothing and allocates nothing.
type ramClient struct {
	id   uint32
	buf  []byte // the payload it saves
	sink []byte // where its reference passes land
	rng  rng
	next uint64 // next save index
	jobs chan func(*ramClient)
	done chan struct{}

	saveBusy, refBusy time.Duration // this slice
	recs              []saveRec
	err               error
}

func (c *ramClient) loop() {
	for job := range c.jobs {
		job(c)
		c.done <- struct{}{}
	}
}

func runAll(cs []*ramClient, job func(*ramClient)) {
	for _, c := range cs {
		c.jobs <- job
	}
	for _, c := range cs {
		<-c.done
	}
}

func runRAM(rc *runCtx, sh ramShape) (*pass, error) {
	if err := guardClients(sh.clients); err != nil {
		return nil, err
	}
	ps := newPass()
	p := rc.p
	cfg := core.Config{Concurrent: 2, SlotBytes: int64(p.payload), Writers: 2, ChunkBytes: p.chunk, VerifyPayload: true}
	if sh.delta {
		cfg.DeltaKeyframe = 8
	}
	pattern, err := workload.SparseByName("lora-adapters")
	if err != nil {
		return nil, err
	}

	// Fixtures: everything the harness owns, pre-touched, before the clock
	// of setup_s starts.
	tf := time.Now()
	seed := newRNG(rc.seed)
	clients := make([]*ramClient, sh.clients)
	for i := range clients {
		c := &ramClient{id: uint32(i), buf: make([]byte, p.payload), sink: touch(make([]byte, p.payload)),
			rng: newRNG(seed.next()), jobs: make(chan func(*ramClient)), done: make(chan struct{}),
			recs: make([]saveRec, 0, 1<<14)}
		c.rng.fill(c.buf)
		clients[i] = c
		go c.loop()
	}
	defer func() {
		for _, c := range clients {
			close(c.jobs)
		}
	}()
	image := touch(make([]byte, core.DeviceBytesFor(cfg)))
	if sh.delta {
		prefault(16 * p.payload) // a chain recovery alone holds ten payloads
	} else {
		prefault(8 * p.payload)
	}
	ps.metrics["bench.fixture_s"] = time.Since(tf).Seconds()

	// Set-up: first program call to first timed op.
	warmGroup := 1
	if sh.delta {
		warmGroup = sh.rounds * sh.saves
	}
	t0 := time.Now()
	dev := rc.wrap(storage.NewRAMFromBytes(image), 0)
	reopen := cfg
	var flight *obs.Recorder
	if rc.tr != nil {
		flight = obs.NewRecorder(0)
		reopen.Observer = flight
	}
	eng, err := bootEngine(rc, ps, t0, dev, cfg, reopen, warmClosedLoop(rc, clients[0].buf, warmGroup))
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Timed slices.
	slice := 0
	refJob := func(c *ramClient) {
		for i := 0; i < sh.refs; i++ {
			c.refBusy += refPass(c.sink, c.buf)
		}
	}
	saveJob := func(c *ramClient) {
		for i := 0; i < sh.saves && c.err == nil; i++ {
			if sh.delta {
				mutate(c.buf, pattern, &c.rng)
			}
			stamp(c.buf, c.id, c.next)
			counter, d, err := rc.checkpoint(eng, c.buf, int64(c.id)<<40|int64(c.next))
			if err != nil {
				c.err = err
				return
			}
			c.saveBusy += d
			c.recs = append(c.recs, saveRec{counter, c.next, slice, d})
			c.next++
		}
	}
	newest := func() (counter uint64, want []byte) {
		for _, c := range clients {
			if n := len(c.recs); n > 0 && c.recs[n-1].counter > counter {
				counter, want = c.recs[n-1].counter, c.buf
			}
		}
		return counter, want
	}

	var (
		mem        memDelta
		sliceFrac  []float64 // ideal/measured per slice
		sliceRefMS []float64 // mean reference pass per slice
		rec        recovered
		saveWall   time.Duration
	)
	gc0 := gcSnapshot()
	timedFrom := rc.tr.now()
	start := time.Now()
	budget := rc.saveBudget()
	if sh.delta {
		budget = time.Duration(rc.seconds * float64(time.Second)) // its recoveries run inside the slices
	}
	for ; time.Since(start) < budget; slice++ {
		runtime.GC()
		for round := 0; round < sh.rounds; round++ {
			runAll(clients, refJob)
			mem.begin()
			runAll(clients, saveJob)
			mem.end()
		}
		var refBusy, saveBusy time.Duration
		for _, c := range clients {
			if c.err != nil {
				ps.attempted++
				ps.failf("save: %v", c.err)
				return ps, nil
			}
			refBusy += c.refBusy
			saveBusy += c.saveBusy
			c.refBusy, c.saveBusy = 0, 0
		}
		saveWall += saveBusy / time.Duration(sh.clients)
		perRef := float64(refBusy) / float64(sh.rounds*sh.refs*sh.clients)
		perSave := float64(saveBusy) / float64(sh.rounds*sh.saves*sh.clients)
		sliceFrac = append(sliceFrac, perRef/perSave)
		sliceRefMS = append(sliceRefMS, perRef/1e6)
		if sh.delta {
			counter, want := newest()
			rec.merge(recoverReps(rc, ps, p.recoverReps, dev, want, counter))
		}
	}
	timedTo := rc.tr.now()
	st := eng.Stats()
	saves := sh.rounds * sh.saves * sh.clients * slice
	ps.attempted += saves
	ps.ops["slices"], ps.ops["saves"] = slice, saves

	counter, want := newest()
	if !sh.delta {
		rec = recoverReps(rc, ps, p.recoverReps, dev, want, counter)
	}
	ps.ops["recoveries"] = len(rec.refMS)
	if rc.corrupt {
		if !corruptStored(image, want) {
			return nil, fmt.Errorf("corrupt hook: stored copy of the newest save not found")
		}
		recoverReps(rc, ps, 1, dev, want, counter)
	}

	// Per-save latencies, each divided by its own slice's reference pass.
	var slow, latMS, deltaMS, keyMS []float64
	for _, c := range clients {
		for _, r := range c.recs {
			slow = append(slow, ms(r.dur)/sliceRefMS[r.slice])
			latMS = append(latMS, ms(r.dur))
			if sh.delta && r.index%uint64(sh.rounds*sh.saves) != 0 {
				deltaMS = append(deltaMS, ms(r.dur))
			} else if sh.delta {
				keyMS = append(keyMS, ms(r.dur))
			}
		}
	}
	m := ps.metrics
	payloadBytes := float64(saves) * float64(p.payload)
	m["save_frac_ideal"] = median(sliceFrac)
	m["durable_p50_frac_ideal"] = ratio(1, quantile(slow, 0.50))
	m["durable_p90_frac_ideal"] = ratio(1, quantile(slow, 0.90))
	rec.into(m)
	m["persisted_bytes_per_payload_byte"] = ratio(float64(st.BytesPersisted), float64(st.BytesWritten))
	m["alloc_bytes_per_payload_byte"] = ratio(float64(mem.bytes), payloadBytes)
	m["allocs_per_save"] = ratio(float64(mem.mallocs), float64(saves))
	ps.driftNote(sliceRefMS)

	m["save_gbps_raw"] = gbps(payloadBytes, saveWall)
	m["save_p50_ms_raw"] = quantile(latMS, 0.50)
	m["save_p90_ms_raw"] = quantile(latMS, 0.90)
	m["ref.ideal_gbps"] = gbps(float64(p.payload), time.Duration(median(sliceRefMS)*1e6))
	m["core.delta_saves_frac"] = ratio(float64(st.DeltaSaves), float64(st.Checkpoints))
	m["core.delta_save_ms_p50"] = median(deltaMS)
	m["core.keyframe_save_ms_p50"] = median(keyMS)
	engineCounters(m, st)
	gc0.into(m)
	if rc.tr != nil {
		phaseMetrics(m, flight)
		layerMetrics(m, rc.tr.spans, cfg.SlotBytes, eng.TotalSlots(), timedFrom, timedTo)
		probeEngine(rc, m, eng, clients[0].sink, want)
		probeLayers(m, p)
		if !sh.delta {
			eng.Close()
			m["obs.recorder_overhead_frac"] = probeRecorderOverhead(rc, dev, cfg, clients[0].buf)
		}
	}
	return ps, nil
}

// engineCounters turns the engine's own cumulative counters into per-save
// rows.
func engineCounters(m map[string]float64, st core.StatsSnapshot) {
	done := float64(st.Checkpoints + st.Obsolete)
	m["core.slot_waits_per_save"] = ratio(float64(st.SlotWaits), done)
	m["core.cas_retries_per_save"] = ratio(float64(st.CASRetries), done)
	m["core.obsolete_frac"] = ratio(float64(st.Obsolete), done)
}

// gcStats brackets a timed phase with the runtime's collector counters.
type gcStats struct{ cycles, pauseNS uint64 }

func gcSnapshot() gcStats {
	var s runtime.MemStats
	runtime.ReadMemStats(&s)
	return gcStats{uint64(s.NumGC), s.PauseTotalNs}
}

func (g gcStats) into(m map[string]float64) {
	now := gcSnapshot()
	m["proc.gc_cycles"] = float64(now.cycles - g.cycles)
	m["proc.gc_pause_ms"] = float64(now.pauseNS-g.pauseNS) / 1e6
	m["proc.peak_rss_mb"] = peakRSSMB()
}
