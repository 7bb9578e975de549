package main

// metricSpec is one BENCHMARK.json metric entry.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics an untraced run puts in its result line, on
// every workload, each with the share by which it may worsen before a
// change counts as a regression: the ones every workload exercises and
// that hold steady from seed to seed. The table above the result line
// also prints batch_p99_ms, single_*, write_*, publish_*, writes_per_s,
// err_rel and failed_frac, which are workload-specific, zero, or swing
// with the seed's data (err_rel) or its drift repairs (read-write's
// batch_p99_ms).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"batch_p50_ms", "ms", "lower", 0.25},
	{"ranges_per_s", "ranges/s", "higher", 0.25},
	{"heap_mb", "MiB", "lower", 0.1},
}

// perLayer are the metrics a traced run emits. A layer a workload does
// not exercise reports 0 with n=0 in the table (e.g. cluster.* on a
// single node, wal.* without a WAL).
var perLayer = []metricSpec{
	{"serve.handler_us.p50", "us", "lower", 0},
	{"serve.handler_us.p99", "us", "lower", 0},
	{"serve.single_handler_us.p50", "us", "lower", 0},
	{"serve.transport_us.p50", "us", "lower", 0},
	{"serve.codec_us.p50", "us", "lower", 0},
	{"serve.handler_allocs", "allocs/request", "lower", 0},
	{"serve.resp_bytes_per_range", "B/range", "lower", 0},
	{"serve.query_batch_us.p50", "us", "lower", 0},
	{"serve.query_one_ns.p50", "ns", "lower", 0},
	{"serve.rebuild_ms.p50", "ms", "lower", 0},
	{"serve.rebuild_ms.p99", "ms", "lower", 0},
	{"serve.rebuilds_per_write", "rebuilds/write", "lower", 0},
	{"serve.ingest_handler_us.p50", "us", "lower", 0},
	{"plan.cache_hit_ratio", "ratio", "higher", 0},
	{"plan.probes_per_range", "probes/range", "lower", 0},
	{"plan.path.cache", "ratio", "higher", 0},
	{"plan.path.probe", "ratio", "higher", 0},
	{"plan.path.escalate", "ratio", "lower", 0},
	{"plan.path.exact", "ratio", "lower", 0},
	{"plan.query_ns.p50", "ns", "lower", 0},
	{"method.estimate_ns.p50", "ns", "lower", 0},
	{"method.bound_ns.p50", "ns", "lower", 0},
	{"method.error_model_ms.coarse", "ms", "lower", 0},
	{"method.error_model_ms.fine", "ms", "lower", 0},
	{"method.error_model_ms.seg", "ms", "lower", 0},
	{"method.error_model_ms.avg", "ms", "lower", 0},
	{"method.error_model_ms.wave", "ms", "lower", 0},
	{"prefix.table_ms.p50", "ms", "lower", 0},
	{"prefix.sum_ns.p50", "ns", "lower", 0},
	{"ingest.maintain_ms.p50", "ms", "lower", 0},
	{"ingest.maintain_ms.p99", "ms", "lower", 0},
	{"ingest.absorbed", "ratio", "higher", 0},
	{"ingest.reoptimized", "ratio", "lower", 0},
	{"ingest.repaired", "ratio", "lower", 0},
	{"ingest.escalated", "ratio", "lower", 0},
	{"ingest.avoided_ratio", "ratio", "higher", 0},
	{"segment.rebuilt_per_publish", "segments/publish", "lower", 0},
	{"segment.reused_per_publish", "segments/publish", "higher", 0},
	{"build.rebuild_ms.wave", "ms", "lower", 0},
	{"engine.build_ms.coarse", "ms", "lower", 0},
	{"engine.build_ms.fine", "ms", "lower", 0},
	{"engine.build_ms.seg", "ms", "lower", 0},
	{"engine.build_ms.avg", "ms", "lower", 0},
	{"engine.build_ms.wave", "ms", "lower", 0},
	{"wal.append_us.p50", "us", "lower", 0},
	{"wal.append_us.p99", "us", "lower", 0},
	{"wal.bytes_per_write", "B/mutation", "lower", 0},
	{"wal.checkpoints", "count", "lower", 0},
	{"wal.checkpoint_ms.p50", "ms", "lower", 0},
	{"wal.open_ms", "ms", "lower", 0},
	{"cluster.handler_us.p50", "us", "lower", 0},
	{"cluster.handler_us.p99", "us", "lower", 0},
	{"cluster.subrequests_per_request", "subreq/request", "lower", 0},
	{"cluster.node_us.p50", "us", "lower", 0},
	{"cluster.slowest_node_us.p50", "us", "lower", 0},
	{"cluster.slowest_node_us.p99", "us", "lower", 0},
	{"cluster.router_self_us.p50", "us", "lower", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"cluster.degraded", "count", "lower", 0},
	{"go.alloc_mb_per_publish", "MiB/publish", "lower", 0},
	{"go.alloc_kb_per_request", "KiB/request", "lower", 0},
	{"go.gc_cpu_frac", "ratio", "lower", 0},
	{"load.late_ms.p99", "ms", "lower", 0},
	{"check.exact_mismatches", "count", "lower", 0},
	{"check.bound_violations", "count", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}
