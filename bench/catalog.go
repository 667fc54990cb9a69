package main

// The metric catalog: every name the benchmark reports, fixed so that
// later changes can name their claims against it. BENCHMARK.json lists
// the same names (a self-test keeps the two in step); the README says
// which end-to-end metric each per-layer metric should move.

// e2eMetric is one end-to-end metric. Its regression bound lives in
// BENCHMARK.json, the one place the driver and `compare` both read.
type e2eMetric struct {
	name   string
	unit   string
	higher bool // higher is better
}

var endToEndCatalog = []e2eMetric{
	{"setup_s", "s", false},
	{"op_p50_ms", "ms", false},
	{"op_p95_ms", "ms", false},
	{"ops_per_s", "1/s", true},
	{"failed_share", "share", false},
	{"cpu_ms_per_op", "ms", false},
	{"alloc_kb_per_op", "KiB", false},
	{"peak_rss_mb", "MiB", false},
}

var endToEndOrder = func() []string {
	var out []string
	for _, m := range endToEndCatalog {
		out = append(out, m.name)
	}
	return out
}()

// failedShareBound is failed_share's bound, absolute rather than a share
// of the old value (which is 0). BENCHMARK.json cannot carry a metric
// that is always 0, so this one bound is fixed here; the driver sees the
// same information as the attempted and failed counts of every run.
const failedShareBound = 0.001

// setupFloorS: set-up differences below this many seconds are ignored by
// `compare`; on a corpus this size set-up is tens of milliseconds and a
// fifth of that is scheduler noise.
const setupFloorS = 0.2

// layerMetric is one per-layer metric and the workloads it is measured on.
type layerMetric struct {
	name   string
	unit   string
	higher bool
	on     []string
}

var (
	onServed  = []string{"probe", "scan"}
	onQueried = []string{"probe", "scan", "rules"}
	onAll     = []string{"probe", "scan", "rules", "ingest"}
	onProbe   = []string{"probe"}
	onScan    = []string{"scan"}
	onRules   = []string{"rules"}
	onIngest  = []string{"ingest"}
)

var layerCatalog = []layerMetric{
	{"trace_ops", "count", true, onAll},
	{"trace_overhead_share", "share", false, onAll},
	{"trace_replay_overrun_share", "share", false, onAll},

	{"server.roundtrip_ms", "ms", false, onServed},
	{"server.self_ms", "ms", false, onServed},
	{"server.resp_kb_per_op", "KiB", false, onServed},
	{"server.req_probe_edb_ms", "ms", false, onProbe},
	{"server.req_probe_idb_ms", "ms", false, onProbe},
	{"server.req_member_ms", "ms", false, onProbe},
	{"server.req_scan_ms", "ms", false, onScan},
	{"server.req_selfjoin_ms", "ms", false, onScan},
	{"server.script_post_ms", "ms", false, onIngest},
	{"server.sse_lag_ms", "ms", false, onIngest},
	{"server.admitted", "count", true, onServed},
	{"server.rejected", "count", false, onServed},
	{"server.queue_wait_ms", "ms", false, onServed},

	{"core.query_ms", "ms", false, onQueried},
	{"core.self_ms", "ms", false, onQueried},
	{"core.plan_cache_hit_share", "share", true, onQueried},
	{"core.retire_ms", "ms", false, onIngest},
	{"core.sub_recompute_share", "share", false, onIngest},
	{"core.sub_flushes_per_op", "count", false, onIngest},
	{"core.sub_deltas_per_op", "count", false, onIngest},
	{"core.hop_drift", "ratio", false, onIngest},

	{"parser.parse_us", "us", false, onQueried},
	{"parser.script_parse_us", "us", false, onIngest},

	{"datalog.compile_us", "us", false, onQueried},
	{"datalog.eval_ms", "ms", false, onQueried},
	{"datalog.derived_per_op", "count", false, onQueried},
	{"datalog.firings_per_op", "count", false, onQueried},
	{"datalog.rounds_per_op", "count", false, onQueried},
	{"datalog.examined_per_row", "count", false, onServed},
	{"datalog.tmpl_covers_ms", "ms", false, onRules},
	{"datalog.tmpl_reach_ms", "ms", false, onRules},
	{"datalog.tmpl_trio_ms", "ms", false, onRules},
	{"datalog.tmpl_handoff_ms", "ms", false, onRules},
	{"datalog.tmpl_solo_ms", "ms", false, onRules},
	{"datalog.tmpl_follows_ms", "ms", false, onRules},
	{"datalog.intern_values", "count", false, onIngest},

	{"constraint.solver_steps_per_op", "count", false, onRules},
	{"constraint.memo_hit_share", "share", true, onRules},
	{"constraint.entail_us", "us", false, onRules},
	{"interval.union_us", "us", false, onRules},
	{"interval.contains_gen_us", "us", false, onRules},

	{"store.scan_us", "us", false, onProbe},
	{"store.member_us", "us", false, onProbe},
	{"store.fullscan_ms", "ms", false, onScan},
	{"store.put_us", "us", false, onIngest},
	{"store.addfact_us", "us", false, onIngest},
	{"store.delfact_us", "us", false, onIngest},
	{"store.stall_max_ms", "ms", false, onIngest},
	{"store.flushes", "count", false, onIngest},
	{"store.compactions", "count", false, onIngest},
	{"store.tombstones_end", "count", false, onIngest},
	{"store.cache_hit_share", "share", true, onIngest},
	{"store.disk_bytes_per_fact", "B", false, onIngest},
	{"store.close_ms", "ms", false, onIngest},
	{"store.reopen_ms", "ms", false, onIngest},
	{"store.cold_scan_ms", "ms", false, onIngest},
	{"store.warm_scan_ms", "ms", false, onIngest},
}
