package main

// metricSpec names one metric. BENCHMARK.json lists the same names, units
// and directions; the package test holds the two together.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndSpecs are what a user of the simulator or the service sees;
// every workload reports all five from an untraced run.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"cpu_s_per_op", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerSpecs are reported by traced runs only and never gated. A metric
// that does not apply to a workload (CPU shares of the matchserve child,
// client spans of an in-process campaign) is reported as 0.
var perLayerSpecs = []metricSpec{
	// Probes: fixed work timed around a layer's public calls.
	{"simnet.sched_ns_per_event", "ns", "lower"},
	{"simnet.handoff_ns_per_switch", "ns", "lower"},
	{"mpi.p2p_us_per_msg", "us", "lower"},
	{"mpi.allreduce64_us", "us", "lower"},
	{"fti.ckpt_l1_ms_per_mb", "ms/MB", "lower"},
	{"fti.ckpt_l2_ms_per_mb", "ms/MB", "lower"},
	{"fti.ckpt_l3_ms_per_mb", "ms/MB", "lower"},
	{"fti.ckpt_l4_ms_per_mb", "ms/MB", "lower"},
	{"fti.recover_ms_per_mb", "ms/MB", "lower"},
	{"rs.encode_mb_per_s", "MB/s", "higher"},
	{"rs.reconstruct_mb_per_s", "MB/s", "higher"},
	{"enc.f64_mb_per_s", "MB/s", "higher"},
	{"store.get_mem_us", "us", "lower"},
	{"store.get_disk_us", "us", "lower"},
	{"store.get_miss_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"core.cellkey_us", "us", "lower"},
	{"core.request_hash_us", "us", "lower"},
	{"core.warm_cell_us", "us", "lower"},
	{"core.render_us_per_cell", "us", "lower"},
	{"core.pool_speedup", "ratio", "higher"},
	{"apps.hpccg_cell_ms", "ms", "lower"},
	{"apps.minivite_cell_ms", "ms", "lower"},
	{"apps.comd_cell_ms", "ms", "lower"},
	{"apps.amg_cell_ms", "ms", "lower"},
	{"apps.lulesh_cell_ms", "ms", "lower"},
	{"apps.minife_cell_ms", "ms", "lower"},
	{"obs.metered_overhead_pct", "%", "lower"},
	{"trace.recorder_overhead_pct", "%", "lower"},
	{"host.calib_ms_p50", "ms", "lower"},

	// Counts per op, exact: the simulator's own counters and the store's.
	{"simnet.events_per_op", "count", "lower"},
	{"mpi.msgs_per_op", "count", "lower"},
	{"mpi.bytes_per_op", "B", "lower"},
	{"mpi.collectives_per_op", "count", "lower"},
	{"fti.ckpts_per_op", "count", "lower"},
	{"fti.ckpt_bytes_per_op", "B", "lower"},
	{"fti.restores_per_op", "count", "lower"},
	{"designs.recoveries_per_op", "count", "lower"},
	{"store.hits_per_op", "count", "higher"},
	{"store.misses_per_op", "count", "lower"},
	{"store.puts_per_op", "count", "lower"},
	{"core.virt_s_per_op", "s", "lower"},
	{"simnet.host_ns_per_event", "ns", "lower"},
	{"core.virt_s_per_host_s", "ratio", "higher"},

	// CPU shares of a campaign workload's traced rounds.
	{"share.apps", "share", "lower"},
	{"share.simnet", "share", "lower"},
	{"share.mpi", "share", "lower"},
	{"share.fti", "share", "lower"},
	{"share.rs", "share", "lower"},
	{"share.enc", "share", "lower"},
	{"share.storage", "share", "lower"},
	{"share.designs", "share", "lower"},
	{"share.core", "share", "lower"},
	{"share.store", "share", "lower"},
	{"share.observers", "share", "lower"},
	{"share.go_sched", "share", "lower"},
	{"share.go_mem", "share", "lower"},
	{"share.go_map", "share", "lower"},
	{"share.other", "share", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"go.gc_cycles_per_op", "count", "lower"},

	// Client-side spans of a serve workload's traced rounds.
	{"matchserve.post_ms_p50", "ms", "lower"},
	{"matchserve.watch_ms_p50", "ms", "lower"},
	{"matchserve.results_ms_p50", "ms", "lower"},
	{"matchserve.op_ms_p99", "ms", "lower"},
	{"matchserve.cold_submit_ms", "ms", "lower"},
	{"matchserve.metrics_scrape_ms", "ms", "lower"},
	{"matchserve.rss_kb_per_campaign", "KB", "lower"},

	// Traced rounds against the untraced rounds of the same run.
	{"trace.overhead_pct", "%", "lower"},
}
