package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions (a test holds the two together).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
}

// shareLayers are the doram/internal packages whose CPU-profile share is
// reported as "<layer>.cpu_share".
var shareLayers = []string{
	"mc", "dram", "cpu", "core", "bob", "delegator", "addrmap", "trace",
	"oram", "backend", "cluster", "simsvc",
}

// perLayer are the metrics a traced run prints, on every workload; a
// metric of a layer the workload does not reach reads 0.
var perLayer = func() []metricDef {
	var m []metricDef
	for _, l := range shareLayers {
		m = append(m, metricDef{l + ".cpu_share", "frac", "lower"})
	}
	return append(m, []metricDef{
		{"runtime.sched_share", "frac", "lower"},
		{"runtime.gc_share", "frac", "lower"},
		{"other.cpu_share", "frac", "lower"},
		{"prof.samples", "count", "higher"},

		{"mc.row_hit_rate", "frac", "higher"},
		{"mc.read_q_mean", "count", "lower"},
		{"dram.bus_util", "frac", "higher"},
		{"sim.host_ns_per_kcycle", "ns", "lower"},
		{"sim.kcycles_per_op", "count", "lower"},
		{"delegator.dummy_frac", "frac", "lower"},
		{"oram.accesses_per_op", "count", "higher"},
		{"sim.alloc_kb_per_op", "KB", "lower"},

		{"cluster.dispatch_ms_p50", "ms", "lower"},
		{"cluster.poll_wait_ms_p50", "ms", "lower"},
		{"cluster.fetch_ms_p50", "ms", "lower"},
		{"cluster.cache_hit_frac", "frac", "higher"},
		{"simsvc.queue_wait_ms_p50", "ms", "lower"},
		{"simsvc.run_ms_p50", "ms", "lower"},
		{"simsvc.coalesced_frac", "frac", "lower"},
		{"http.submit_ms_p50", "ms", "lower"},
		{"http.poll_ms_p50", "ms", "lower"},
		{"http.result_ms_p50", "ms", "lower"},
		{"http.polls_per_op", "count", "lower"},
		{"http.c2w_ms_p50", "ms", "lower"},
		{"http.c2w_calls_per_op", "count", "lower"},
		{"gen.late_ms_p99", "ms", "lower"},

		{"backend.seal_us_per_op", "us", "lower"},
		{"backend.open_us_per_op", "us", "lower"},
		{"backend.storage_us_per_op", "us", "lower"},
		{"backend.posmap_us_per_op", "us", "lower"},
		{"backend.evict_us_per_op", "us", "lower"},
		{"oram.client_self_us_per_op", "us", "lower"},
		{"oram.stash_high_water", "count", "lower"},
		{"oram.read_p50_us", "us", "lower"},
		{"oram.write_p50_us", "us", "lower"},
		{"oram.alloc_kb_per_op", "KB", "lower"},

		{"trace_overhead_frac", "frac", "lower"},
	}...)
}()
