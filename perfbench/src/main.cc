// perfbench — the repository's end-to-end benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--pool FILE] [--work-dir DIR]
//   perfbench --make-pool <seed>
//
// Workloads: decide-hard, eval-file. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced run
// makes an untraced pass first and reports the difference as
// trace.overhead_pct; its spans go to <work-dir>/trace-<workload>-<seed>.jsonl.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "metric_names.h"

namespace perfbench {
namespace {

RunResult RunWorkload(const std::string& workload, const RunContext& ctx,
                      Tracer* trace) {
  if (workload == "decide-hard") return RunDecideHard(ctx, trace);
  return RunEvalFile(ctx, trace);
}

void PrintResult(const RunResult& r, const MetricSet& metrics) {
  bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : metrics.items()) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// Keeps exactly the listed metrics, in list order; false (with the name)
/// when one is missing.
template <size_t N>
bool Select(const MetricSet& from, const MetricName (&names)[N],
            MetricSet* out, std::string* missing) {
  for (const MetricName& m : names) {
    if (!from.Has(m.name)) {
      *missing = m.name;
      return false;
    }
    out->Set(m.name, from.Get(m.name), m.unit);
  }
  return true;
}

int Main(int argc, char** argv) {
  std::string workload;
  RunContext ctx;
  ctx.pool_path = "perfbench/pool.tsv";
  ctx.work_dir = ".bench_build/work";
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--make-pool" && has_value) {
      return MakePool(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      ctx.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      ctx.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--pool" && has_value) {
      ctx.pool_path = argv[++i];
    } else if (arg == "--work-dir" && has_value) {
      ctx.work_dir = argv[++i];
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (workload != "decide-hard" && workload != "eval-file") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (ctx.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(ctx.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", ctx.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  // A traced run measures twice, untraced then traced, each for half of
  // --seconds, so it takes as long as an end-to-end run.
  if (trace != 0) ctx.seconds /= 2;
  Tracer off(false);
  RunResult result = RunWorkload(workload, ctx, &off);
  MetricSet metrics;
  std::string missing;
  if (trace == 0) {
    result.e2e.Set("peak_rss_mb",
                   result.peak_rss_mb > 0 ? result.peak_rss_mb : PeakRssMb(),
                   "MB");
    result.e2e.Set("ok_share",
                   result.attempted == 0
                       ? 0.0
                       : 1.0 - static_cast<double>(result.failed) /
                                   static_cast<double>(result.attempted),
                   "ratio");
    if (!Select(result.e2e, kE2eMetrics, &metrics, &missing)) {
      std::fprintf(stderr, "internal: e2e metric %s not measured\n",
                   missing.c_str());
      return 1;
    }
  } else {
    Tracer on(true);
    RunResult traced = RunWorkload(workload, ctx, &on);
    double base = result.e2e.Get("ops_per_s");
    double with = traced.e2e.Get("ops_per_s");
    traced.layer.Set("trace.overhead_pct",
                     with > 0 ? (base / with - 1.0) * 100.0 : 0.0, "%");
    FillMissingLayerMetrics(&traced.layer);
    if (!Select(traced.layer, kLayerMetrics, &metrics, &missing)) {
      std::fprintf(stderr, "internal: layer metric %s not measured\n",
                   missing.c_str());
      return 1;
    }
    std::string path = ctx.work_dir + "/trace-" + workload + "-" +
                       std::to_string(ctx.seed) + ".jsonl";
    if (!on.Write(path)) {
      std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "spans: %zu written to %s\n", on.size(),
                 path.c_str());
    traced.attempted += result.attempted;
    traced.failed += result.failed;
    traced.errors.insert(traced.errors.end(), result.errors.begin(),
                         result.errors.end());
    result = std::move(traced);
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::fflush(stderr);
  PrintResult(result, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
