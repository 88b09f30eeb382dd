package main

// metricSpec names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
	run  func(*runCtx) (*pass, error)
}

// runSeconds is how long one run's timed phase lasts under the driver. With
// fixtures, the set-up and its 1.5 s warm-up, and the recovery reps, a whole
// run takes 30–36 s, which keeps the driver's 92 runs plus two builds inside
// its 3420 s cap with a tenth to spare.
const runSeconds = 28

var workloads = []workloadSpec{
	{"full_ram", "ceiling row: 64 MiB full-mode saves on un-throttled RAM, 2 closed-loop clients; core copy/CRC/pipeline, chunkpool and storage.RAM do all the work, so pipeline and alloc changes show here", runFullRAM},
	{"delta_ram", "same device and size in delta mode (K=8, 5% dirty, content-hash): serialised saves, per-save staging copy, keyframe+8-delta chain recovery; a full_ram gain paid for by the delta path shows here", runDeltaRAM},
	{"tiered_paced", "16 MiB saves every 100 ms (open loop) into RAM in front of a 323 MB/s SSD model: storage.Tiered journal copy and drainer do the work; tier-1 durability lag and recovery from tier 1 alone", runTieredPaced},
	{"train_ssd", "paper regime: trainer loop over a throttled SSD model where one save outlasts the checkpoint interval (N=2 must overlap), ledger+recorder+black box+scrub on; bypass workload for core CPU savings", runTrainSSD},
}

// endToEnd is what a user of the engine sees. Every workload reports every
// row; README.md gives each row's definition per workload, and the widest
// interquartile spread any workload showed over the committed same-code
// sessions (results/*.json) next to its bound. The timing ratios spread up
// to 19.5 % and sit at the driver's cap of 0.25; setup_s carries the largest
// bound, as the driver asks; the count rows keep about twice their widest
// spread and are no lower than ISSUE 13's figures.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"save_frac_ideal", "ratio", "higher", 0.25},
	{"durable_p50_frac_ideal", "ratio", "higher", 0.25},
	{"durable_p90_frac_ideal", "ratio", "higher", 0.25},
	{"recover_frac_ideal", "ratio", "higher", 0.25},
	{"persisted_bytes_per_payload_byte", "ratio", "lower", 0.02},
	{"alloc_bytes_per_payload_byte", "ratio", "lower", 0.05},
	{"allocs_per_save", "count", "lower", 0.06},
}

// perLayer comes from the traced pass only. A row that does not exist on a
// workload (tier 1 on full_ram, the black box outside train_ssd) reads 0.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{Name: "core.save_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.save_self_ms", Unit: "ms", Better: "lower"},
		{Name: "core.source_copy_ms", Unit: "ms", Better: "lower"},
		{Name: "core.source_reads_per_save", Unit: "count", Better: "lower"},
		{Name: "core.producer_gap_ms", Unit: "ms", Better: "lower"},
		{Name: "core.create_ms", Unit: "ms", Better: "lower"},
		{Name: "core.open_ms", Unit: "ms", Better: "lower"},
		{Name: "core.read_latest_frac_ideal", Unit: "ratio", Better: "higher"},
		{Name: "core.recover_alloc_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
		{Name: "core.delta_saves_frac", Unit: "ratio", Better: "higher"},
		{Name: "core.delta_save_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.keyframe_save_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.slot_waits_per_save", Unit: "count", Better: "lower"},
		{Name: "core.cas_retries_per_save", Unit: "count", Better: "lower"},
		{Name: "core.obsolete_frac", Unit: "ratio", Better: "lower"},
		{Name: "core.scrub_sweep_ms", Unit: "ms", Better: "lower"},
	}
	for _, ph := range tracedPhases {
		m = append(m, metricSpec{Name: "core.phase." + ph.name + "_p50_ms", Unit: "ms", Better: "lower"})
	}
	m = append(m, metricSpec{Name: "chunkpool.acquire_release_ns", Unit: "ns", Better: "lower"})
	for _, t := range []string{"tier0", "tier1"} {
		for _, s := range []metricSpec{
			{Name: "write_calls_per_save", Unit: "count", Better: "lower"},
			{Name: "write_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
			{Name: "write_busy_ms_per_save", Unit: "ms", Better: "lower"},
			{Name: "sync_calls_per_save", Unit: "count", Better: "lower"},
			{Name: "sync_busy_ms_per_save", Unit: "ms", Better: "lower"},
			{Name: "persist_calls_per_save", Unit: "count", Better: "lower"},
			{Name: "persist_busy_ms_per_save", Unit: "ms", Better: "lower"},
			{Name: "read_bytes_per_recovered_byte", Unit: "ratio", Better: "lower"},
			{Name: "max_inflight_writes", Unit: "count", Better: "lower"},
		} {
			s.Name = "storage." + t + "." + s.Name
			m = append(m, s)
		}
	}
	return append(m, []metricSpec{
		{Name: "storage.ram.write_frac_ideal", Unit: "ratio", Better: "higher"},
		{Name: "storage.tiered.front_write_frac_ideal", Unit: "ratio", Better: "higher"},
		{Name: "storage.tiered.drain_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "storage.tiered.resyncs", Unit: "count", Better: "lower"},
		{Name: "storage.tiered.pending_ops_p95", Unit: "count", Better: "lower"},
		{Name: "storage.throttle.overshoot_frac", Unit: "ratio", Better: "lower"},
		{Name: "obs.emit_ns", Unit: "ns", Better: "lower"},
		{Name: "obs.recorder_overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "obs.dropped_events", Unit: "count", Better: "lower"},
		{Name: "obs.blackbox.flush_ms", Unit: "ms", Better: "lower"},
		{Name: "obs.blackbox.flushes", Unit: "count", Better: "higher"},
		{Name: "train.tick_stall_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "train.slot_stall_frac", Unit: "ratio", Better: "lower"},
		{Name: "train.iters_per_s", Unit: "1/s", Better: "higher"},
		{Name: "train.staleness_p50_iters", Unit: "count", Better: "lower"},
		{Name: "tier1.lag_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "tier1.lag_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "save_gbps_raw", Unit: "GB/s", Better: "higher"},
		{Name: "recover_gbps_raw", Unit: "GB/s", Better: "higher"},
		{Name: "save_p50_ms_raw", Unit: "ms", Better: "lower"},
		{Name: "save_p90_ms_raw", Unit: "ms", Better: "lower"},
		{Name: "bench.generator_late_p95_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.sleep_overshoot_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.fixture_s", Unit: "s", Better: "lower"},
		{Name: "bench.tracing_overhead_frac", Unit: "ratio", Better: "lower"},
		{Name: "bench.trace_attributed_frac", Unit: "ratio", Better: "higher"},
		{Name: "bench.failed_ops_frac", Unit: "ratio", Better: "lower"},
		{Name: "ref.ideal_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "ref.memcpy_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "ref.crc32_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
		{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	}...)
}()
