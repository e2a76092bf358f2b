package main

// metricDef is one row of BENCHMARK.json. bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a client of sommelierd observes, measured with
// tracing off. Failures are not a metric here because the contract
// wants metrics that are never 0: they travel as attempted/failed on
// the result line and as bench.fail_ratio per layer.
//
// The timing bounds are the widest the contract allows. On the 2-vCPU
// microVM this was written on, the same code and seed drift by 15-25%
// for minutes at a time (hot_point 3100-3860 qps, stream_export p50
// 4.3-5.4 ms), while runs inside a quiet spell agree within 2-3%; a bound
// has to cover the spread between runs. README.md has the measurements.
var endToEnd = []metricDef{
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"ttfb_p50_ms", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics are named layer.metric after this repo's packages.
// README.md says where each comes from: client timing, the stats block of
// each response, /stats deltas across the window, or the traced pass.
var perLayer = []metricDef{
	{"server.overhead_us_p50", "us", "lower", 0},
	{"server.admission_wait_us_p99", "us", "lower", 0},
	{"server.shed_count", "count", "lower", 0},
	{"server.error_count", "count", "lower", 0},
	{"server.wire_bytes_per_row.json", "B/row", "lower", 0},
	{"server.wire_bytes_per_row.ndjson", "B/row", "lower", 0},
	{"server.wire_bytes_per_row.somw", "B/row", "lower", 0},
	{"server.handle_self_us_per_krow.json", "us/krow", "lower", 0},
	{"server.handle_self_us_per_krow.ndjson", "us/krow", "lower", 0},
	{"server.handle_self_us_per_krow.somw", "us/krow", "lower", 0},
	{"engine.compile_us_p50", "us", "lower", 0},
	{"engine.compile_cold_us_p50", "us", "lower", 0},
	{"engine.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"engine.open_ms", "ms", "lower", 0},
	{"engine.warm_open_ms", "ms", "lower", 0},
	{"engine.close_ms", "ms", "lower", 0},
	{"sqlparse.parse_us_p50", "us", "lower", 0},
	{"plan.build_us_p50", "us", "lower", 0},
	{"opt.optimize_us_p50", "us", "lower", 0},
	{"dmd.windows_computed", "count", "lower", 0},
	{"dmd.derivation_ms_total", "ms", "lower", 0},
	{"exec.stage1_us_p50", "us", "lower", 0},
	{"exec.load_us_p50", "us", "lower", 0},
	{"exec.stage2_us_p50", "us", "lower", 0},
	{"exec.stage2_us_p50.avg_range", "us", "lower", 0},
	{"exec.stage2_us_p50.groupby_station", "us", "lower", 0},
	{"exec.stage2_us_p50.join_t5", "us", "lower", 0},
	{"exec.stage2_us_p50.topk", "us", "lower", 0},
	{"exec.stage2_ns_per_row", "ns/row", "lower", 0},
	{"exec.chunks_selected_per_query", "count", "lower", 0},
	{"exec.chunks_loaded_per_query", "count", "lower", 0},
	{"exec.chunks_promoted_per_query", "count", "higher", 0},
	{"exec.rows_loaded_per_query", "count", "lower", 0},
	{"exec.archive_fetches", "count", "lower", 0},
	{"cache.ram_hit_ratio", "ratio", "higher", 0},
	{"cache.evictions", "count", "lower", 0},
	{"cache.bytes_used_mb", "MB", "lower", 0},
	{"cache.disk_hit_ratio", "ratio", "higher", 0},
	{"cache.disk_spills", "count", "lower", 0},
	{"cache.disk_promotes", "count", "higher", 0},
	{"cache.disk_bytes_per_user_byte", "B/B", "lower", 0},
	{"cache.disk_corrupt_blocks", "count", "lower", 0},
	{"cache.disk_spill_us_per_chunk", "us/chunk", "lower", 0},
	{"cache.disk_promote_us_per_chunk", "us/chunk", "lower", 0},
	{"storage.seg_encode_us_per_chunk", "us/chunk", "lower", 0},
	{"storage.seg_decode_us_per_chunk", "us/chunk", "lower", 0},
	{"storage.seg_bytes_per_row", "B/row", "lower", 0},
	{"storage.pool_outstanding_end", "count", "lower", 0},
	{"registrar.register_metadata_ms", "ms", "lower", 0},
	{"registrar.load_chunk_us_per_chunk", "us/chunk", "lower", 0},
	{"registrar.chunk_to_relation_us_per_chunk", "us/chunk", "lower", 0},
	{"mseed.read_chunk_us_per_chunk", "us/chunk", "lower", 0},
	{"mseed.archive_bytes_per_row", "B/row", "lower", 0},
	{"bench.inproc_p50_ms", "ms", "lower", 0},
	{"bench.p99_ms", "ms", "lower", 0},
	{"bench.fail_ratio", "ratio", "lower", 0},
	{"bench.samples", "count", "higher", 0},
	{"bench.gen_s", "s", "lower", 0},
	{"bench.build_s", "s", "lower", 0},
	{"bench.loadavg_before", "count", "lower", 0},
}
