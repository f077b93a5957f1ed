package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports: what a tenant or an
// operator of the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tick_p50_ms", "ms"},
	{"tick_tail_ms", "ms"},
	{"verdicts_per_s", "1/s"},
	{"register_p50_us", "us"},
	{"register_tail_us", "us"},
	{"read_p50_us", "us"},
	{"read_tail_us", "us"},
	{"j_per_tick", "J"},
	{"mem_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the metrics a traced run reports, grouped by the package
// or command they measure. METRICS.md maps each to the end-to-end metric
// and workload it should move.
var perLayer = []metricDef{
	{"admit.quote_p50_us", "us"},
	{"admit.quote_tail_us", "us"},
	{"admit.admitted", "count"},
	{"admit.deferred", "count"},
	{"admit.shed", "count"},

	{"service.fanout_ms", "ms"},
	{"service.due_per_class", "ratio"},
	{"service.shared_frac", "frac"},
	{"service.allocs_per_tick", "count"},
	{"service.unregister_us", "us"},
	{"service.tick_self_ms", "ms"},
	{"service.coord_ms", "ms"},
	{"service.shard_skew", "ratio"},

	{"fleet.plan_ms", "ms"},
	{"fleet.first_plan_ms", "ms"},
	{"fleet.reuse_frac", "frac"},
	{"fleet.incremental_frac", "frac"},
	{"fleet.modelled_saving", "frac"},

	{"engine.execute_ms", "ms"},
	{"engine.compile_us", "us"},
	{"engine.predicates_per_verdict", "count"},
	{"engine.plan_cache_hit_frac", "frac"},

	{"acquisition.acquire_ms", "ms"},
	{"acquisition.cache_hit_frac", "frac"},
	{"acquisition.items_per_tick", "count"},
	{"acquisition.relay_hits_per_tick", "count"},
	{"acquisition.dup_spend_per_tick", "J"},

	{"shard.sharing_lost_pct", "%"},
	{"shard.load_skew", "ratio"},
	{"shard.repartitions", "count"},

	{"adapt.trips", "count"},
	{"adapt.replans_forced", "count"},

	{"obs.trace_overhead_pct", "%"},

	{"paotrserve.tick_edge_ms", "ms"},
	{"paotrserve.tick_body_kb", "KB"},
	{"paotrserve.non2xx", "count"},

	{"bench.gen_lag_ms", "ms"},
	{"bench.phase_cover", "frac"},
	{"bench.traced_ticks", "count"},
	{"bench.untraced_ticks", "count"},
}
