#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/obs.h"

/// Shared plumbing of the end-to-end benchmark: run context, result and
/// metric accumulation, quantiles, and the in-memory span tracer used by
/// traced runs (`--trace 1`).
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Linear-interpolation quantile (q in [0,1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Peak resident set size of this process since the last ResetPeakRss, in
/// MiB (VmHWM; getrusage's lifetime peak where /proc is unavailable).
double PeakRssMb();
/// Restarts the peak-RSS window, so input generation and output checks do
/// not count toward the measured path's peak. No-op where unsupported.
void ResetPeakRss();

/// Order-independent 64-bit hash of a set of strings (sum of FNV-1a).
uint64_t Fnv1a(const std::string& s);

/// One span: a timed call into a layer. Spans with `derived` set were not
/// timed by the benchmark: their duration is a phase-histogram delta the
/// engine itself keeps (Engine::Metrics), attached under the call that ran
/// it so self times still add up.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
  bool derived = false;
};

/// Spans kept in memory for the whole run and written when it ends. With
/// tracing off every call is a no-op returning -1.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }
  int Open(const char* name, const char* layer, int parent, uint64_t request);
  void Close(int id);
  /// A span over an interval the caller timed itself.
  int Record(const char* name, const char* layer, int parent,
             uint64_t request, Clock::time_point start,
             Clock::time_point end);
  /// A child of `parent` with a known duration (see Span::derived).
  void Derived(const char* name, const char* layer, int parent,
               uint64_t request, int64_t duration_ns);
  /// Self time per layer: each span's duration minus its children's.
  std::map<std::string, double> SelfMsByLayer() const;
  size_t size() const { return spans_.size(); }
  /// Writes one JSON object per span; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Named metric values in insertion order (the last output line's
/// "metrics" object).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Outcome of one workload pass. Every checked operation counts toward
/// `attempted`; each failed check counts toward `failed` and keeps its
/// message (printed to stderr).
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  MetricSet e2e;
  MetricSet layer;
  /// Largest PeakRssMb() noted at the end of a measured section.
  double peak_rss_mb = 0;

  void NotePeakRss() { peak_rss_mb = std::max(peak_rss_mb, PeakRssMb()); }

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

struct RunContext {
  uint64_t seed = 1;
  double seconds = 10;
  /// Directory (inside the checkout) for generated inputs and traces.
  std::string work_dir;
  /// Committed verdict list of the decide-hard pool.
  std::string pool_path;
};

/// Engine::Metrics() deltas: the per-layer counts and phase times the
/// program keeps for itself.
struct EngineDelta {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> phase_ns;
  uint64_t decisions = 0;
  uint64_t decisions_cached = 0;

  static EngineDelta Of(const semacyc::obs::MetricsSnapshot& s);
  EngineDelta Minus(const EngineDelta& before) const;
  void Add(const EngineDelta& other);
  uint64_t Counter(const std::string& name) const;
  double PhaseMs(const std::string& name) const;
};

/// Attaches the engine's own phase times under `parent` as derived spans
/// (layer per phase as documented in perfbench/README.md).
void AttachPhases(Tracer* tracer, int parent, uint64_t request,
                  const EngineDelta& d);

/// Fills the per-layer metrics every workload reports from its engine
/// deltas (`ops` = operations the pass completed).
void SetEngineLayerMetrics(const EngineDelta& d, double ops, MetricSet* out);

/// Sets every per-layer metric not yet set to 0 (the layer did no work on
/// this workload), so each traced run reports the full list.
void FillMissingLayerMetrics(MetricSet* out);
/// Records the tracer's per-layer self times (ms per operation).
void SetSelfTimes(const Tracer& tracer, double ops, MetricSet* out);

/// Workload entry points. `trace` selects the traced pass.
RunResult RunDecideHard(const RunContext& ctx, Tracer* trace);
RunResult RunEvalFile(const RunContext& ctx, Tracer* trace);

/// Regenerates the decide-hard pool (`--make-pool`): prints the verdict
/// list to stdout.
int MakePool(uint64_t pool_seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
