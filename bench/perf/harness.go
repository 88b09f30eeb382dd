package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pccheck/internal/core"
	"pccheck/internal/storage"
	"pccheck/internal/workload"
)

// params sizes one workload. The defaults are the benchmark; perf_test.go
// shrinks them to toy size.
type params struct {
	payload     int           // checkpoint bytes
	chunk       int           // engine staging chunk
	warmup      time.Duration // fixed warm-up inside setup_s
	recoverReps int           // cold recoveries (per slice on delta_ram)

	period  time.Duration // tiered_paced: one save due per period
	tier1BW float64       // tiered_paced: tier-1 device model, bytes/s

	sleep      time.Duration // train_ssd: per-iteration compute
	devBW      float64       // train_ssd: device cap, bytes/s
	writerBW   float64       // train_ssd: per-writer lane, bytes/s
	bbEvery    time.Duration // train_ssd: black-box flush cadence
	scrubEvery time.Duration // train_ssd: scrub cadence
}

// defaultParams are ISSUE 13's sizes. The slice shape (saves and reference
// reps per slice) is fixed in each workload's file; only the number of
// slices follows the time budget. The warm-up is 1.5 s, not ISSUE 13's 3 s:
// setup_s must carry the largest bound (25 %), and on a 1.5 s constant that
// bound is 0.4 s of work moved into New/Open, close to the sensitivity the
// issue asked for (0.35 s), where on 3 s it would be 0.8 s.
func defaultParams(workload string) params {
	p := params{warmup: 1500 * time.Millisecond}
	switch workload {
	case "full_ram":
		p.payload, p.chunk, p.recoverReps = 64<<20, 4<<20, 30
	case "delta_ram":
		p.payload, p.chunk, p.recoverReps = 64<<20, 4<<20, 2
	case "tiered_paced":
		p.payload, p.chunk, p.recoverReps = 16<<20, 4<<20, 20
		// 4 MiB every 13 ms, 322.6 MB/s. A sleeping Go process wakes through
		// epoll_wait, whose timeout is whole milliseconds: a chunk slot of
		// 13.107 ms (320 MB/s) ended on time or 1.07 ms late depending on
		// whether the kernel's 13 ms wake-up came after or before the odd
		// 0.107 ms, and tier-1 lag read 63 or 67 ms from run to run. A
		// whole-millisecond slot ends a steady 0.2 ms late.
		p.period, p.tier1BW = 100*time.Millisecond, float64(4<<20)/0.013
	case "train_ssd":
		p.payload, p.chunk, p.recoverReps = 32<<20, 1<<20, 20
		p.sleep, p.devBW, p.writerBW = 10*time.Millisecond, 288<<20, 48<<20
		p.bbEvery, p.scrubEvery = 250*time.Millisecond, 2*time.Second
	}
	return p
}

// runCtx is one pass (untraced or traced) of one workload.
type runCtx struct {
	seed    uint64
	seconds float64
	p       params
	tr      *tracer // nil on the untraced pass
	scratch string  // directory for device files; removed by the caller
	corrupt bool    // test hook: flip one stored byte before the final recovery
}

// saveBudget is the share of the run's seconds spent saving; the rest is
// left for the recovery reps that follow.
func (rc *runCtx) saveBudget() time.Duration {
	return time.Duration(0.92 * rc.seconds * float64(time.Second))
}

// pass is what one pass produced.
type pass struct {
	metrics   map[string]float64
	attempted int
	failed    int
	ops       map[string]int
	notes     []string // reasons the pass is marked unstable
	fail      []string // first few failure descriptions
}

func newPass() *pass {
	return &pass{metrics: map[string]float64{}, ops: map[string]int{}}
}

func (ps *pass) failf(format string, a ...any) {
	ps.failed++
	if len(ps.fail) < 8 {
		ps.fail = append(ps.fail, fmt.Sprintf(format, a...))
	}
}

// ---------------------------------------------------------------------------
// Seeded inputs

// rng is xorshift64*: allocation-free and fast enough that mutating a few
// MiB per iteration stays small next to a save.
type rng uint64

func newRNG(seed uint64) rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	r := rng(seed)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, r.next())
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(r.next())
	}
}

// mutate applies one iteration of a workload.SparsePattern to state: Ranges
// regions covering DirtyFraction of the bytes, every byte in them changed.
// Same shape as SparsePattern.Mutate, without its per-call slice, so the
// harness allocates nothing inside a timed phase.
func mutate(state []byte, p workload.SparsePattern, r *rng) {
	per := int(float64(len(state))*p.DirtyFraction) / p.Ranges
	if per < 1 {
		per = 1
	}
	for i := 0; i < p.Ranges; i++ {
		b := state[r.intn(len(state)-per+1):][:per]
		for len(b) >= 8 {
			// OR-ing 0x01 into every byte of the mask guarantees each byte flips.
			v := binary.LittleEndian.Uint64(b) ^ (r.next() | 0x0101010101010101)
			binary.LittleEndian.PutUint64(b, v)
			b = b[8:]
		}
		for j := range b {
			b[j] ^= byte(1 + r.intn(255))
		}
	}
}

// touch faults every page of b in, so first-touch cost lands in fixture_s.
func touch(b []byte) []byte {
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	return b
}

// prefault grows the Go heap by n bytes of touched memory and frees them
// again, so what the engine allocates later (chunk pool, staging copies,
// recovered payloads) lands on resident pages. A first touch costs this VM
// 3–10 µs a page, host permitting: left inside the run it made delta_ram's
// first warm-up cycle take 4.4 s instead of 1.3 s and setup_s read 4.7–7.9 s.
func prefault(n int) {
	touch(make([]byte, n))
	runtime.GC()
}

// Every payload starts with a stamp naming the save it belongs to, so a
// recovered payload says which acknowledged save it is and the harness can
// byte-compare it against exactly that save's bytes.
const (
	stampBytes = 24
	stampMagic = 0x50435342 // "PCSB"
)

func stamp(buf []byte, client uint32, index uint64) {
	binary.LittleEndian.PutUint32(buf[0:], stampMagic)
	binary.LittleEndian.PutUint32(buf[4:], client)
	binary.LittleEndian.PutUint64(buf[8:], index)
	binary.LittleEndian.PutUint32(buf[16:], crc32.ChecksumIEEE(buf[:16]))
	binary.LittleEndian.PutUint32(buf[20:], 0)
}

func readStamp(buf []byte) (client uint32, index uint64, ok bool) {
	if len(buf) < stampBytes || binary.LittleEndian.Uint32(buf) != stampMagic ||
		binary.LittleEndian.Uint32(buf[16:]) != crc32.ChecksumIEEE(buf[:16]) {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint32(buf[4:]), binary.LittleEndian.Uint64(buf[8:]), true
}

// verify checks a recovered payload against the bytes of the newest
// acknowledged save: right save (stamp), right length, identical bytes.
func (ps *pass) verify(what string, got []byte, gotCounter, wantCounter uint64, want []byte) {
	ps.attempted++
	_, idx, ok := readStamp(got)
	_, wantIdx, _ := readStamp(want)
	switch {
	case gotCounter != wantCounter:
		ps.failf("%s: recovered counter %d, newest acknowledged is %d", what, gotCounter, wantCounter)
	case !ok || idx != wantIdx:
		ps.failf("%s: recovered stamp %d (ok=%v), want save %d", what, idx, ok, wantIdx)
	case !bytes.Equal(got, want):
		ps.failf("%s: recovered %d bytes differ from acknowledged save %d", what, len(got), wantIdx)
	}
}

// ---------------------------------------------------------------------------
// The ideal reference

// refSink keeps the compiler from dropping the reference CRC; atomic because
// full_ram's clients take their reference passes side by side.
var refSink atomic.Uint32

// refPass is the "ideal single pass" every memory-bound timing is divided
// by: move the payload once and checksum it once.
func refPass(dst, src []byte) time.Duration {
	t0 := time.Now()
	copy(dst, src)
	refSink.Add(crc32.ChecksumIEEE(dst[:len(src)]))
	return time.Since(t0)
}

// refRead is the ideal single pass of a recovery: a fresh buffer, the
// payload's bytes read off the device once, checksummed once. It reads
// through the same Device the recovery does, so whatever the medium charges
// per byte (a RAM copy, a tmpfs pread) is on both sides of the ratio, and so
// is what the allocator charges for a payload-sized buffer.
func refRead(dev storage.Device, off int64, n int) (time.Duration, error) {
	t0 := time.Now()
	buf := make([]byte, n)
	if err := dev.ReadAt(buf, off); err != nil {
		return 0, err
	}
	refSink.Add(crc32.ChecksumIEEE(buf))
	return time.Since(t0), nil
}

// ---------------------------------------------------------------------------
// Statistics

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is nearest-rank on a copy; q in [0,1]. Empty input reads 0.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gbps is decimal gigabytes per second.
func gbps(bytes float64, d time.Duration) float64 {
	return ratio(bytes, d.Seconds()) / 1e9
}

// driftNote marks a pass unstable when the in-run reference itself moved by
// more than 15 % between the first and last quarter of the slices: ratios
// still cancel it slice by slice, but the machine was not steady.
func (ps *pass) driftNote(refMS []float64) {
	if q := len(refMS) / 4; q > 0 {
		a, b := median(refMS[:q]), median(refMS[len(refMS)-q:])
		if d := ratio(a-b, b); d > 0.15 || d < -0.15 {
			ps.notes = append(ps.notes, fmt.Sprintf("ref-drift: ref.ideal_gbps moved %.0f%% between first and last quarter of the slices", 100*d))
		}
	}
}

// memDelta accumulates heap allocation over timed save phases only.
type memDelta struct {
	bytes, mallocs uint64
	a, b           runtime.MemStats
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.a) }
func (m *memDelta) end() {
	runtime.ReadMemStats(&m.b)
	m.bytes += m.b.TotalAlloc - m.a.TotalAlloc
	m.mallocs += m.b.Mallocs - m.a.Mallocs
}

// sleepUntil sleeps to an absolute deadline.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// spinUntil sleeps to just short of t and yields the rest of the way, so an
// open-loop launch lands on its due time to within microseconds. time.Sleep
// alone wakes 0.3–1 ms late on this VM: 3–8 % of a 13 ms save, and different
// from run to run.
func spinUntil(t time.Time) {
	sleepUntil(t.Add(-1500 * time.Microsecond))
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// ---------------------------------------------------------------------------
// Engine set-up shared by the workloads

// bootEngine is the program half of setup_s: format, warm up for a fixed
// time, re-attach, recover once. warm runs saves until told to stop and
// returns the newest acknowledged (counter, bytes). reopenCfg is the config
// for the engine that serves the timed phase (fresh observers, so their
// histograms cover only what is measured).
func bootEngine(rc *runCtx, ps *pass, t0 time.Time, dev storage.Device, cfg, reopenCfg core.Config,
	warm func(eng *core.Checkpointer, until time.Time) (uint64, []byte, error)) (*core.Checkpointer, error) {
	tc := time.Now()
	eng, err := core.New(dev, cfg)
	if err != nil {
		return nil, fmt.Errorf("core.New: %w", err)
	}
	ps.metrics["core.create_ms"] = ms(time.Since(tc))
	// Warm-up ends on the clock, not on a save boundary: saves stop early
	// enough to finish, and the remainder is slept, so set-up sits on a
	// constant and its run-to-run noise is the program's own. The clock
	// starts after core.New, so work moved into New is not absorbed.
	warmEnd := time.Now().Add(rc.p.warmup)
	counter, want, err := warm(eng, warmEnd)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	sleepUntil(warmEnd)
	// Collect the warm-up's garbage so the recovery below reuses its spans:
	// first-touch page faults cost this VM's host 3 µs a page, and a delta
	// chain recovery that faulted 576 MiB in made setup_s swing 4.7–7.2 s.
	runtime.GC()
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("close after warm-up: %w", err)
	}
	to := time.Now()
	if eng, err = core.Open(dev, reopenCfg); err != nil {
		return nil, fmt.Errorf("core.Open: %w", err)
	}
	ps.metrics["core.open_ms"] = ms(time.Since(to))
	if got, gotCounter, err := core.Recover(dev); err != nil {
		ps.attempted++
		ps.failf("warm recovery: %v", err)
	} else {
		ps.verify("warm recovery", got, gotCounter, counter, want)
	}
	ps.metrics["setup_s"] = time.Since(t0).Seconds()
	return eng, nil
}

// warmClosedLoop saves buf back to back, in groups of group saves, until
// another group would overrun the deadline. delta_ram warms up in whole
// keyframe cycles, so the chain that set-up then re-attaches to and recovers
// is always full length; stopping mid-cycle made setup_s swing by 20 %.
func warmClosedLoop(rc *runCtx, buf []byte, group int) func(*core.Checkpointer, time.Time) (uint64, []byte, error) {
	return func(eng *core.Checkpointer, until time.Time) (counter uint64, want []byte, err error) {
		var last time.Duration
		for i := uint64(0); i == 0 || time.Until(until) > 2*last; {
			t := time.Now()
			for g := 0; g < group; g, i = g+1, i+1 {
				stamp(buf, 0, 1<<40+i)
				if counter, err = eng.Checkpoint(bg, rc.source(buf, -1)); err != nil {
					return 0, nil, err
				}
			}
			last = time.Since(t)
		}
		return counter, buf, nil
	}
}

// recovered sums up a batch of cold recoveries.
type recovered struct {
	fracs []float64     // ideal/measured, one per pair of reps
	refMS []float64     // the reference pass next to each rep
	total time.Duration // time inside core.Recover
	alloc uint64        // heap bytes allocated inside core.Recover
	bytes float64       // payload bytes returned
}

func (r *recovered) merge(o recovered) {
	r.fracs, r.refMS = append(r.fracs, o.fracs...), append(r.refMS, o.refMS...)
	r.total, r.alloc, r.bytes = r.total+o.total, r.alloc+o.alloc, r.bytes+o.bytes
}

func (r recovered) into(m map[string]float64) {
	m["recover_frac_ideal"] = median(r.fracs)
	m["recover_gbps_raw"] = gbps(r.bytes, r.total)
	m["core.recover_alloc_bytes_per_payload_byte"] = ratio(float64(r.alloc), r.bytes)
}

// recoverReps times cold core.Recover calls, each next to its own reference
// pass, and byte-compares every result.
func recoverReps(rc *runCtx, ps *pass, reps int, dev storage.Device, want []byte, wantCounter uint64) (out recovered) {
	var m memDelta
	var first float64                          // the even rep of the current pair
	refOff := layoutFor(int64(len(want))).base // slot 0: written many times over by the warm-up
	for i := 0; i < reps; i++ {
		// After the collection both the reference and the recovery find the
		// previous rep's buffers free, so the allocator charges both the same
		// (zeroing a reused span, or faulting a new one in — 3x apart on this
		// VM). Whichever goes first tends to draw the colder span, so they
		// take turns, and the run keeps the geometric mean of each pair of
		// reps, in which that bias cancels.
		runtime.GC()
		var ref time.Duration
		var refErr error
		if i%2 == 0 {
			ref, refErr = refRead(dev, refOff, len(want))
		}
		m.begin()
		t0 := rc.tr.now()
		t := time.Now()
		got, counter, err := core.Recover(dev)
		d := time.Since(t)
		rc.tr.add(span{Kind: spanRecover, Start: t0, End: rc.tr.now(), Save: -1, N: int64(len(got))})
		m.end()
		if i%2 == 1 {
			ref, refErr = refRead(dev, refOff, len(want))
		}
		switch {
		case err != nil:
			ps.attempted++
			ps.failf("cold recovery: %v", err)
			continue
		case refErr != nil:
			ps.attempted++
			ps.failf("reference read: %v", refErr)
			continue
		}
		ps.verify("cold recovery", got, counter, wantCounter, want)
		if f := ratio(float64(ref), float64(d)); i%2 == 0 {
			first = f
		} else if first > 0 {
			out.fracs = append(out.fracs, math.Sqrt(first*f))
			first = 0
		}
		out.refMS = append(out.refMS, ms(ref))
		out.total += d
		out.bytes += float64(len(got))
	}
	out.alloc = m.bytes
	return out
}

// corruptStored flips one payload byte of the stored copy of want, found by
// its stamp; the byte right after the stamp is stored whether the save went
// down whole or as a delta record. It is the self-test's proof that the
// correctness check bites.
func corruptStored(image, want []byte) bool {
	i := bytes.LastIndex(image, want[:stampBytes])
	if i < 0 {
		return false
	}
	image[i+stampBytes] ^= 0x40
	return true
}

// ---------------------------------------------------------------------------
// Environment and guards

type envInfo struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	ScratchDir   string `json:"scratch_dir"`
	ScratchTmpfs bool   `json:"scratch_tmpfs"`
}

func readEnv(scratch string) envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), ScratchDir: scratch, ScratchTmpfs: onTmpfs(scratch),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

// onTmpfs reports whether dir sits on a tmpfs mount, from /proc/mounts
// (longest mount-point prefix wins). Unknown reads false.
func onTmpfs(dir string) bool {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return false
	}
	best, fs := "", ""
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs == "tmpfs"
}

// newScratch makes the directory the throttled device files live in: tmpfs
// when there is one, so the storage.Throttle model and not the VM's disk
// sets the time; the output directory where nothing outside the checkout is
// writable. The caller removes it.
func newScratch(out string) (string, error) {
	for _, base := range []string{"/dev/shm", os.TempDir(), out} {
		if dir, err := os.MkdirTemp(base, "pccheck-bench-"); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no writable scratch directory under /dev/shm, %s or %s", os.TempDir(), out)
}

// guardClients refuses a timed phase that needs more runnable client
// goroutines than the machine has CPUs: the ratios would then measure the
// scheduler.
func guardClients(clients int) error {
	if n := runtime.NumCPU(); clients > n {
		return fmt.Errorf("workload needs %d client goroutines but the machine has %d CPUs", clients, n)
	}
	return nil
}

// peakRSSMB reads the process high-water mark from /proc (0 elsewhere).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
