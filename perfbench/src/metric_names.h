#ifndef PERFBENCH_METRIC_NAMES_H_
#define PERFBENCH_METRIC_NAMES_H_

/// The benchmark's metric names and units — the same lists, in the same
/// order, as "end_to_end" and "per_layer" in BENCHMARK.json (run.py checks
/// that the two agree before it reports a run). Per-operation metrics
/// divide by the workload's operation: a decision line (decide-hard) or an
/// evaluated query (eval-file).
namespace perfbench {

struct MetricName {
  const char* name;
  const char* unit;
};

inline constexpr MetricName kE2eMetrics[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_share", "ratio"},
    {"definitive_share", "ratio"},
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"oneshot_s", "s"},
};

inline constexpr MetricName kLayerMetrics[] = {
    {"semacyc.enumerate_ms", "ms/op"},
    {"semacyc.subsets_ms", "ms/op"},
    {"semacyc.enum_visits", "count/op"},
    {"semacyc.visits_per_s", "1/s"},
    {"semacyc.candidates_tested", "count/op"},
    {"semacyc.candidates_per_kvisit", "ratio"},
    {"core.hom_pushes", "count/op"},
    {"core.hom_wipeout_ratio", "ratio"},
    {"core.hom_repair_fail_ratio", "ratio"},
    {"acyclic.classifier_pushes", "count/op"},
    {"semacyc.oracle_memo_hit_ratio", "ratio"},
    {"semacyc.oracle_prefiltered", "count/op"},
    {"semacyc.prepare_us", "us/op"},
    {"semacyc.core_ms", "ms/op"},
    {"chase.chase_ms", "ms/op"},
    {"semacyc.oracle_ms", "ms/op"},
    {"semacyc.compaction_ms", "ms/op"},
    {"semacyc.images_ms", "ms/op"},
    {"semacyc.decide_ms", "ms/op"},
    {"core.query_parse_us", "us/op"},
    {"serve.render_us", "us/op"},
    {"semacyc.decision_cache_hit_ratio", "ratio"},
    {"data.load_ms", "ms/file"},
    {"data.load_mtuples_per_s", "Mtuple/s"},
    {"data.bytes_per_tuple", "B/tuple"},
    {"data.compile_us", "us/op"},
    {"data.execute_ms", "ms/op"},
    {"data.rows_scanned", "count/op"},
    {"data.semijoin_probes", "count/op"},
    {"data.dp_rows", "count/op"},
    {"serve.eval_render_ms", "ms/op"},
    {"semacyc.eval_decide_ms", "ms/file"},
    {"eval.eval_ms", "ms/op"},
    {"core.self_ms", "ms/op"},
    {"semacyc.self_ms", "ms/op"},
    {"chase.self_ms", "ms/op"},
    {"data.self_ms", "ms/op"},
    {"eval.self_ms", "ms/op"},
    {"serve.self_ms", "ms/op"},
    {"trace.spans", "count/op"},
    {"trace.overhead_pct", "%"},
};

}  // namespace perfbench

#endif  // PERFBENCH_METRIC_NAMES_H_
