package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/obs"
	"pccheck/internal/obs/blackbox"
	"pccheck/internal/storage"
	"pccheck/internal/workload"
)

// train_ssd is the paper's regime with everything a production user turns
// on. One save alone is paced by its p writer lanes (payload / (p·lane) ≈
// 222 ms at the default sizes), longer than the checkpoint interval of
// every·(sleep+mutation), so two saves must overlap, and two overlapping
// saves exactly fill the device cap.
const (
	trainConcurrent = 2
	trainWriters    = 3
	trainEvery      = 16 // iterations per checkpoint
)

type trainSave struct {
	buf     int // snapshot ring slot
	index   uint64
	iter    int
	launch  time.Time
	dur     time.Duration
	counter uint64
	err     error
}

func runTrainSSD(rc *runCtx) (*pass, error) {
	ps := newPass()
	p := rc.p
	pattern, err := workload.SparseByName("embedding-hotset")
	if err != nil {
		return nil, err
	}
	observers := func() (*obs.Ledger, *obs.Recorder) {
		rec := obs.NewRecorder(0)
		return obs.NewLedger(obs.LedgerConfig{}, rec), rec
	}
	led, _ := observers()
	cfg := core.Config{
		Concurrent: trainConcurrent, SlotBytes: int64(p.payload), Writers: trainWriters, ChunkBytes: p.chunk,
		VerifyPayload: true, PerWriterBW: p.writerBW, Observer: led,
		BlackBox: blackbox.Config{Bytes: 1 << 20, FlushEvery: p.bbEvery},
		Scrub:    core.ScrubConfig{Interval: p.scrubEvery},
	}
	size := core.DeviceBytesFor(cfg)
	lane := float64(trainWriters) * p.writerBW
	if lane > p.devBW {
		lane = p.devBW
	}
	model := time.Duration(float64(p.payload) / lane * float64(time.Second))

	tf := time.Now()
	r := newRNG(rc.seed)
	state := make([]byte, p.payload)
	r.fill(state)
	ring := make([][]byte, trainConcurrent+1)
	for i := range ring {
		ring[i] = touch(make([]byte, p.payload))
	}
	sink := touch(make([]byte, p.payload))
	maxIters := int(rc.seconds/p.sleep.Seconds()) + 4*trainEvery
	compute := make([]float64, 0, maxIters)
	overshoot := make([]float64, 0, maxIters)
	stale := make([]float64, 0, maxIters)
	stalls := make([]float64, 0, maxIters/trainEvery+1)
	saves := make([]trainSave, maxIters/trainEvery+1)
	prefault(8 * p.payload)
	ps.metrics["bench.fixture_s"] = time.Since(tf).Seconds()
	ps.throttleGuard(p.writerBW, p.chunk)

	t0 := time.Now()
	path := filepath.Join(rc.scratch, "train.dev")
	ssd, err := storage.OpenSSD(path, size, storage.WithSSDThrottle(storage.NewThrottle(p.devBW)))
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			ssd.Close()
		}
	}()
	dev := rc.wrap(ssd, 0)
	reopen := cfg
	led, rec := observers()
	reopen.Observer = led
	eng, err := bootEngine(rc, ps, t0, dev, cfg, reopen, warmClosedLoop(rc, ring[0], 1))
	if err != nil {
		return nil, err
	}
	defer eng.Close()

	// Savers are long-lived; the trainer hands them snapshot buffers.
	jobs := make(chan int, len(saves))
	free := make(chan int, len(ring))
	for i := range ring {
		free <- i
	}
	inflight := make(chan struct{}, trainConcurrent)
	saverDone := make(chan struct{})
	var ackedIter atomic.Int64
	for i := 0; i < trainConcurrent; i++ {
		go func() {
			for k := range jobs {
				s := &saves[k]
				s.counter, _, s.err = rc.checkpoint(eng, ring[s.buf], int64(s.index))
				s.dur = time.Since(s.launch)
				for {
					cur := ackedIter.Load()
					if int64(s.iter) <= cur || ackedIter.CompareAndSwap(cur, int64(s.iter)) {
						break
					}
				}
				free <- s.buf
				<-inflight
			}
			saverDone <- struct{}{}
		}()
	}

	// The trainer: sleep as compute, mutate, and every trainEvery iterations
	// snapshot into a free ring buffer, wait for a save slot, launch.
	gc0 := gcSnapshot()
	runtime.GC()
	var mem memDelta
	var slotStall time.Duration
	nSaves := 0
	timedFrom := rc.tr.now()
	mem.begin()
	start := time.Now()
	// Scrub sweeps allocate a payload each and fire on a ticker started at
	// re-attach, so the window ends half-way between two sweeps: the number
	// of sweeps inside it is then the same on every run.
	budget := rc.saveBudget()
	if se := p.scrubEvery; budget > se {
		budget = (budget-se/2)/se*se + se/2
	}
	iters := 0
	for {
		iters++
		c0 := time.Now()
		time.Sleep(p.sleep)
		c1 := time.Now()
		mutate(state, pattern, &r)
		c2 := time.Now()
		overshoot = append(overshoot, ms(c1.Sub(c0)-p.sleep))
		if iters%trainEvery != 0 {
			compute = append(compute, ms(c2.Sub(c0)))
			stale = append(stale, float64(int64(iters)-ackedIter.Load()))
			if time.Since(start) >= budget {
				break
			}
			continue
		}
		b := <-free
		copy(ring[b], state)
		stamp(ring[b], 0, uint64(nSaves))
		w0 := time.Now()
		inflight <- struct{}{}
		launch := time.Now()
		slotStall += launch.Sub(w0)
		saves[nSaves] = trainSave{buf: b, index: uint64(nSaves), iter: iters, launch: launch}
		jobs <- nSaves
		nSaves++
		stalls = append(stalls, ms(launch.Sub(c2)))
		stale = append(stale, float64(int64(iters)-ackedIter.Load()))
		if time.Since(start) >= budget {
			break
		}
	}
	wall := time.Since(start)
	close(jobs)
	for i := 0; i < trainConcurrent; i++ {
		<-saverDone
	}
	mem.end()
	timedTo := rc.tr.now()
	st := eng.Stats()
	ps.attempted += nSaves
	ps.ops["iterations"], ps.ops["saves"] = iters, nSaves

	var latMS []float64
	var latSum time.Duration
	var counter uint64
	var want []byte
	for k := 0; k < nSaves; k++ {
		s := &saves[k]
		if s.err != nil {
			ps.failf("save %d: %v", k, s.err)
			continue
		}
		latMS = append(latMS, ms(s.dur))
		latSum += s.dur
		if s.counter > counter {
			counter, want = s.counter, ring[s.buf]
		}
	}

	m := ps.metrics
	if rc.tr != nil {
		probeEngine(rc, m, eng, sink, want)
		if fl := eng.BlackBox(); fl != nil {
			m["obs.blackbox.flushes"] = float64(fl.LastSeq())
		}
	}
	// Cold recovery: after an orderly close, from the file, un-throttled.
	if err := eng.Close(); err != nil {
		return nil, err
	}
	closed = true
	if err := ssd.Close(); err != nil {
		return nil, fmt.Errorf("device close: %w", err)
	}
	file, err := storage.ReopenSSD(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	if rc.corrupt {
		buf := make([]byte, size)
		if err := file.ReadAt(buf, 0); err != nil {
			return nil, err
		}
		if !corruptStored(buf, want) {
			return nil, fmt.Errorf("corrupt hook: stored copy of the newest save not found")
		}
		if err := file.WriteAt(buf, 0); err != nil {
			return nil, err
		}
	}
	cold := recoverReps(rc, ps, p.recoverReps, rc.wrap(file, 0), want, counter)
	ps.ops["recoveries"] = len(cold.refMS)

	// Training progress: what an iteration costs with no checkpoint step,
	// over what iterations cost on average. Both halves carry the same
	// sleep overshoot and mutation speed, so machine drift cancels.
	// The window ends on the clock, so the checkpoints it demanded are a
	// fraction: counting whole saves would quantise the per-save rows by 1 %.
	demanded := float64(iters) / trainEvery
	payloadBytes := demanded * float64(p.payload)
	m["save_frac_ideal"] = ratio(median(compute), ms(wall)/float64(iters))
	m["durable_p50_frac_ideal"] = ratio(ms(model), quantile(latMS, 0.50))
	m["durable_p90_frac_ideal"] = ratio(ms(model), quantile(latMS, 0.90))
	cold.into(m)
	m["persisted_bytes_per_payload_byte"] = ratio(float64(st.BytesPersisted), float64(st.BytesWritten))
	m["alloc_bytes_per_payload_byte"] = ratio(float64(mem.bytes), payloadBytes)
	m["allocs_per_save"] = ratio(float64(mem.mallocs), demanded)

	m["train.iters_per_s"] = ratio(float64(iters), wall.Seconds())
	m["train.staleness_p50_iters"] = quantile(stale, 0.50)
	m["train.tick_stall_p50_ms"] = quantile(stalls, 0.50)
	m["train.slot_stall_frac"] = ratio(float64(slotStall), float64(wall))
	m["bench.sleep_overshoot_p50_ms"] = quantile(overshoot, 0.50)
	m["save_gbps_raw"] = gbps(float64(len(latMS)*p.payload), latSum)
	m["ref.ideal_gbps"] = gbps(float64(p.payload), time.Duration(median(cold.refMS)*1e6))
	m["save_p50_ms_raw"] = quantile(latMS, 0.50)
	m["save_p90_ms_raw"] = quantile(latMS, 0.90)
	engineCounters(m, st)
	gc0.into(m)
	if rc.tr != nil {
		phaseMetrics(m, rec)
		layerMetrics(m, rc.tr.spans, cfg.SlotBytes, cfg.Concurrent+1, timedFrom, timedTo)
		probeLayers(m, p)
	}
	return ps, nil
}
