#ifndef SEMACYC_CORE_OBS_H_
#define SEMACYC_CORE_OBS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// semacyc::obs — decision tracing and engine metrics
/// (docs/OBSERVABILITY.md).
///
/// Two independent layers share one taxonomy of pipeline phases:
///
///  * DecisionTrace / TraceSink: one structured trace per Decide — nested
///    phase spans with wall times and counters, built only when a sink is
///    attached (SemAcOptions::trace_sink). A null sink costs one inlined
///    pointer check per phase; no span objects, labels or string work
///    happen on that path.
///  * MetricsRegistry: process-lifetime atomic counters and fixed-bucket
///    latency histograms keyed by strategy and phase, owned by Engine and
///    snapshotted via Engine::Metrics(). Always on — the per-decision cost
///    is a handful of steady_clock reads and relaxed atomic adds, gated
///    ≤2% by bench_obs_overhead.
///
/// This header depends on std only (no query/term types): traces carry
/// pre-rendered strings, so obs sits below every other layer.
namespace semacyc::obs {

/// The span/phase taxonomy of the decision pipeline. Phases are both
/// trace span kinds and metrics histogram keys; docs/OBSERVABILITY.md
/// holds the glossary.
enum class Phase : uint8_t {
  kDecision = 0,   // root span of one Engine::Decide
  kSchemaAnalyze,  // Σ classification + schema facts (Engine construction)
  kPrepare,        // PreparedQuery analysis (classification, bound)
  kCore,           // core computation + core-acyclicity strategy
  kChase,          // chase(q, Σ) build (per decision or UCQ disjunct)
  kRewrite,        // UCQ rewriting build (inside oracle construction)
  kOracle,         // containment-oracle construction (per decision)
  kCompaction,     // Lemma 9 chase compaction attempt
  kImages,         // strategy attempt: homomorphic images of q
  kSubsets,        // strategy attempt: acyclic chase sub-instances
  kEnumerate,      // strategy attempt: exhaustive canonical enumeration
  kHomCheck,       // per-candidate chase-homomorphism session (counters
                   // only: times would put a clock in the hot loop)
  kEval,           // Prop 24 evaluation: Yannakakis over the witness
                   // (Engine::Eval, both columnar and row paths)
};
inline constexpr size_t kNumPhases = 13;
const char* ToString(Phase p);

/// Process-lifetime counters aggregated by MetricsRegistry (trace spans
/// carry their own ad-hoc named counters; these are the registry keys).
enum class Counter : uint8_t {
  kCandidatesTested = 0,  // witness candidates handed to the oracle
  kEnumVisits,            // DFS nodes visited (the budgets' unit)
  kClassifierPushes,      // IncrementalClassifier edge pushes
  kClassifierPops,
  kHomPushes,             // IncrementalHomomorphism atom pushes
  kHomDomainWipeouts,     // pushes refuted by forward checking
  kHomExtends,            // pushes absorbed by witness extension
  kHomRepairs,            // pushes that ran the repair search
  kHomRepairFails,
  kHomDeadPrefix,         // pushes onto an already-failed prefix
  kOraclePrefiltered,     // instant NOs from the reachability prefilter
  kTracesEmitted,         // DecisionTraces handed to a sink
  kEvalRowsScanned,       // rows examined by columnar match-atom filters
  kEvalSemijoinProbes,    // semi-join probes during evaluation (both paths)
  kEvalDpRows,            // tuples materialized by the answer-assembly DP
  kParallelUnits,         // search units claimed by parallel Decide workers
  kParallelSteals,        // unit claims that jumped another worker's run
  kParallelReplays,       // worker sessions replayed to a stolen prefix
  kParallelWastedVisits,  // speculative visits beyond the official prefix
  kParallelCommitWaits,   // finished units stalled behind an earlier unit
};
inline constexpr size_t kNumCounters = 20;
const char* ToString(Counter c);

/// One named counter on a trace span. `name` must be a string literal (or
/// otherwise outlive the trace) — spans are built on the decision path and
/// must not copy strings per counter.
struct SpanCounter {
  const char* name;
  int64_t value;
};

/// One phase span of a decision trace. Spans form a tree by parent index
/// into DecisionTrace::spans (preorder; parent < own index; -1 = root).
/// Times are nanoseconds relative to the trace's start.
struct Span {
  Phase phase = Phase::kDecision;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<SpanCounter> counters;
};

/// One structured trace per Engine::Decide: the answer path plus the span
/// tree. `spans[0]` is always the kDecision root; a decision served from
/// the decision cache has only that root and `cached = true`.
struct DecisionTrace {
  std::string query;     // the decided query, rendered
  std::string answer;    // "yes" / "no" / "unknown"
  std::string strategy;  // pipeline stage that produced the answer
  bool cached = false;   // served from the decision cache
  int64_t total_ns = 0;  // == spans[0] duration
  std::vector<Span> spans;

  /// Renders the trace as one JSON object (schema in docs/CLI.md).
  std::string ToJson() const;
};

/// Builder of one DecisionTrace. Constructed only when a sink is attached;
/// the engine passes `nullptr` otherwise and every instrumentation site
/// guards on that (the zero-cost-when-off design). Spans open/close in
/// stack discipline, mirroring the pipeline's scopes.
class DecisionTracer {
 public:
  DecisionTracer();

  /// Opens a child of the innermost open span; returns its index.
  size_t OpenSpan(Phase phase);
  void CloseSpan(size_t index);
  void AddCounter(size_t index, const char* name, int64_t value);
  /// Opens and immediately closes a counter-only child span (kHomCheck).
  void CounterSpan(Phase phase, std::vector<SpanCounter> counters);

  /// Closes the root span and moves the finished trace out. The tracer is
  /// spent afterwards.
  DecisionTrace Finish(std::string query, const char* answer,
                       const char* strategy, bool cached);

  int64_t ElapsedNs() const;

 private:
  std::chrono::steady_clock::time_point start_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Consumer of finished decision traces. Consume() is called once per
/// Decide, after the decision completes, possibly concurrently from
/// DecideBatch workers — implementations must synchronize.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Consume(const DecisionTrace& trace) = 0;
};

/// Serializes each trace as one `{"trace": {...}}` JSON line to a stdio
/// stream (not owned; flushed per trace). Mutex-guarded, so one sink can
/// serve a whole DecideBatch.
class JsonLinesSink final : public TraceSink {
 public:
  explicit JsonLinesSink(std::FILE* out) : out_(out) {}
  void Consume(const DecisionTrace& trace) override;

 private:
  std::FILE* out_;
  std::mutex mu_;
};

/// Keeps every trace in memory (tests and in-process introspection).
class CollectingSink final : public TraceSink {
 public:
  void Consume(const DecisionTrace& trace) override;
  std::vector<DecisionTrace> Take();
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<DecisionTrace> traces_;
};

/// Fixed-bucket latency histogram, lock-free. Bucket `i` counts durations
/// whose microsecond value has bit-width `i`: bucket 0 is < 1µs, bucket i
/// covers [2^(i-1), 2^i) µs, and the last bucket absorbs everything from
/// ~67s up. 28 buckets — fixed at compile time so snapshots and JSON stay
/// schema-stable.
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 28;

  void Record(int64_t ns) {
    uint64_t us = ns <= 0 ? 0 : static_cast<uint64_t>(ns) / 1000;
    size_t b = 0;
    while (us != 0 && b + 1 < kBuckets) {
      us >>= 1;
      ++b;
    }
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(ns <= 0 ? 0 : static_cast<uint64_t>(ns),
                      std::memory_order_relaxed);
    // Racy max is fine: a lost update can only under-report transiently.
    uint64_t cur = max_ns_.load(std::memory_order_relaxed);
    uint64_t v = ns <= 0 ? 0 : static_cast<uint64_t>(ns);
    while (v > cur &&
           !max_ns_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t max_ns = 0;
    std::array<uint64_t, kBuckets> buckets{};
  };
  Snapshot Snap() const;

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

/// Point-in-time snapshot of a MetricsRegistry — plain values, rendered
/// as JSON by `semacyc_cli --metrics` and the `semacycd` stats endpoint.
struct MetricsSnapshot {
  struct StrategyRow {
    std::string name;
    uint64_t decisions = 0;
    LatencyHistogram::Snapshot latency;  // uncached decisions only
  };
  struct PhaseRow {
    std::string name;
    LatencyHistogram::Snapshot latency;
  };

  uint64_t decisions_total = 0;
  uint64_t decisions_cached = 0;
  std::vector<std::pair<std::string, uint64_t>> answers;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<StrategyRow> strategies;
  std::vector<PhaseRow> phases;

  /// The value of one counter (`counters` and `phases` are in enum order).
  uint64_t Count(Counter c) const {
    return counters[static_cast<size_t>(c)].second;
  }

  /// Renders the snapshot as one JSON object (schema in docs/CLI.md).
  std::string ToJson() const;
};

/// Process-lifetime metrics of one Engine: atomic counters plus latency
/// histograms keyed by strategy (decision latency) and phase. All methods
/// are thread-safe and wait-free; Snapshot() reads relaxed atomics, so a
/// snapshot taken concurrently with decisions is per-counter consistent
/// (sums across counters may be mid-decision). Strategy and answer names
/// are caller-provided so this layer stays below the decider's enums.
class MetricsRegistry {
 public:
  MetricsRegistry(std::vector<std::string> strategy_names,
                  std::vector<std::string> answer_names);

  void RecordDecision(size_t strategy, size_t answer, int64_t ns,
                      bool cached);
  void RecordPhase(Phase phase, int64_t ns) {
    phase_latency_[static_cast<size_t>(phase)].Record(ns);
  }
  void Add(Counter counter, uint64_t delta) {
    if (delta != 0) {
      counters_[static_cast<size_t>(counter)].fetch_add(
          delta, std::memory_order_relaxed);
    }
  }
  /// One counter's current value (a relaxed read, like Snapshot()).
  uint64_t Count(Counter counter) const {
    return counters_[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const;

 private:
  std::vector<std::string> strategy_names_;
  std::vector<std::string> answer_names_;
  std::atomic<uint64_t> decisions_total_{0};
  std::atomic<uint64_t> decisions_cached_{0};
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> strategy_decisions_;
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> answer_decisions_;
  std::array<std::atomic<uint64_t>, kNumCounters> counters_{};
  std::vector<std::unique_ptr<LatencyHistogram>> strategy_latency_;
  std::array<LatencyHistogram, kNumPhases> phase_latency_;
};

/// RAII timer over one pipeline phase: always records the latency into
/// the registry's phase histogram; opens/closes a trace span only when a
/// tracer is attached. The null checks inline at every call site — with
/// tracing off a phase costs two steady_clock reads and one relaxed
/// histogram add.
class PhaseTimer {
 public:
  PhaseTimer(MetricsRegistry* metrics, DecisionTracer* tracer, Phase phase)
      : metrics_(metrics),
        tracer_(tracer),
        phase_(phase),
        start_(std::chrono::steady_clock::now()) {
    if (tracer_ != nullptr) span_ = tracer_->OpenSpan(phase);
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() { Stop(); }

  /// Attaches a named counter to the trace span (no-op without a tracer).
  void Counter(const char* name, int64_t value) {
    if (tracer_ != nullptr) tracer_->AddCounter(span_, name, value);
  }

  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    if (metrics_ != nullptr) metrics_->RecordPhase(phase_, ns);
    if (tracer_ != nullptr) tracer_->CloseSpan(span_);
  }

 private:
  MetricsRegistry* metrics_;
  DecisionTracer* tracer_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
  size_t span_ = 0;
  bool stopped_ = false;
};

/// Escapes a string for embedding in JSON output — the one escaper shared
/// by the trace and metrics serializers, the serve protocol (CLI batch
/// lines and semacycd) and the bench JSON reports.
std::string JsonEscape(const std::string& s);

}  // namespace semacyc::obs

#endif  // SEMACYC_CORE_OBS_H_
