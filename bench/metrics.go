package main

// metricDef names one reported metric and its unit. BENCHMARK.json at the
// repository root declares the same lists (bench_test.go holds them
// equal); later issues cite metrics as workload/name.
type metricDef struct {
	name, unit string
}

// workloads lists the benchmark's workloads in the order -selfcheck runs
// them.
var workloads = []string{"detect_replay", "serve_volatile", "serve_durable", "fleet_durable"}

// endToEnd is what a user of the system sees. The driver requires every
// workload to report every one of them from an untraced run, never as 0,
// which is why the three the issue defines for one workload only
// (detect.delay_ms, detect.false_alarm_pct, store.recover_ms) are per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the ledger of a traced run. Two kinds share the list: the
// cost of one direct call into a layer's exported function, measured the
// same way in every workload (mat, core, detect.step/decide, trace,
// store.wal_append .. snapshot_bytes, fleet.submit/quantum), and what this
// workload spent in a layer, which is 0 when the workload bypasses it.
var perLayer = []metricDef{
	{"mat.chol_solve_ns", "ns"},
	{"mat.mul_ns", "ns"},
	{"core.nuise_step_us", "us"},
	{"core.engine_step_us", "us"},
	{"core.engine_allocs_per_step", "count"},
	{"core.engine_bytes_per_step", "B"},
	{"detect.step_us", "us"},
	{"detect.decide_us", "us"},
	{"detect.delay_ms", "ms"},
	{"detect.false_alarm_pct", "%"},
	{"detect.missed", "count"},
	{"detect.sensor_fpr_pct", "%"},
	{"detect.actuator_fpr_pct", "%"},
	{"sim.gen_s_per_trial", "s"},
	{"trace.encode_ns_per_frame", "ns"},
	{"trace.decode_ns_per_frame", "ns"},
	{"trace.bytes_per_frame", "B"},
	{"store.wal_append_us", "us"},
	{"store.fsync_us", "us"},
	{"store.commit_wait_ms", "ms"},
	{"store.snapshot_us", "us"},
	{"store.snapshot_bytes", "B"},
	{"store.bytes_per_frame", "B"},
	{"store.fsyncs_per_kframe", "count"},
	{"store.recover_ms", "ms"},
	{"store.recover_frames_per_s", "1/s"},
	{"store.persistence_overhead_pct", "%"},
	{"fleet.submit_us", "us"},
	{"fleet.quantum_us", "us"},
	{"fleet.queue_wait_ms", "ms"},
	{"fleet.step_ms", "ms"},
	{"fleet.rejects", "count"},
	{"fleet.workers", "count"},
	{"http.healthz_rtt_ms", "ms"},
	{"http.stream_open_ms", "ms"},
	{"http.decode_ms", "ms"},
	{"http.reply_ms", "ms"},
	{"client.cpu_ms_per_kframe", "ms"},
	{"proc.cpu_ms_per_kframe", "ms"},
	{"proc.gc_cycles", "count"},
	{"proc.heap_mb", "MB"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"bench.wall_frames_per_s", "1/s"},
	{"bench.wall_latency_p50_ms", "ms"},
	{"bench.wall_latency_p95_ms", "ms"},
	{"bench.latency_tail_ms", "ms"},
	{"bench.frames_per_s_mean", "1/s"},
	{"bench.segment_iqr_pct", "%"},
	{"bench.machine_speed", "ratio"},
}
