#ifndef SEMACYC_SEMACYC_ENGINE_H_
#define SEMACYC_SEMACYC_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/fingerprint_cache.h"
#include "core/obs.h"
#include "data/columnar.h"
#include "data/semijoin_program.h"
#include "eval/yannakakis.h"
#include "semacyc/approximation.h"
#include "semacyc/decider.h"
#include "semacyc/ucq_semac.h"

namespace semacyc {

/// Outcome status for Engine entrypoints whose free-function ancestors
/// returned bare std::optional / silent flags: the code says *why* there is
/// no payload, not just that there is none.
struct Status {
  enum class Code {
    kOk,
    /// The input is outside the operation's supported fragment (e.g.
    /// approximation of a query with constants, §8.2 footnote).
    kUnsupported,
    /// The operation ran but could not produce the payload within its
    /// budgets / with a definitive answer (e.g. no acyclic reformulation
    /// found for Eval).
    kNotFound,
    /// The operation was aborted cooperatively (SemAcOptions::deadline_ms
    /// elapsed or a CancelToken fired) before it finished. The engine
    /// stays fully reusable. A retry without a deadline is exact only when
    /// the small-query bound is justified and Σ's chase terminates;
    /// otherwise it may still end unknown.
    kDeadlineExceeded,
  };

  Code code = Code::kOk;
  std::string message;

  bool ok() const { return code == Code::kOk; }
  static Status Ok() { return {}; }
  static Status Unsupported(std::string message) {
    return {Code::kUnsupported, std::move(message)};
  }
  static Status NotFound(std::string message) {
    return {Code::kNotFound, std::move(message)};
  }
  static Status DeadlineExceeded(std::string message) {
    return {Code::kDeadlineExceeded, std::move(message)};
  }
};

/// A query analyzed once against an Engine's schema: hypergraph
/// classification (with certificates), canonical fingerprint (the shared
/// cache key) and the paper's small-query bound. Cheap to copy; valid for
/// any Engine over the same schema, but the bound is schema-dependent —
/// prepare per engine.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  const ConjunctiveQuery& query() const { return q_; }
  uint64_t fingerprint() const { return fp_; }
  /// Classification of the body hypergraph (kVariables connecting).
  const acyclic::Classification& classification() const { return cls_; }
  acyclic::AcyclicityClass acyclicity_class() const { return cls_.cls; }
  bool MeetsTarget(acyclic::AcyclicityClass target) const {
    return acyclic::AtLeast(cls_.cls, target);
  }
  /// The paper's small-query bound for (q, Σ) and whether it is backed by
  /// one of the small-query theorems (see SmallQueryBound).
  size_t small_query_bound() const { return bound_; }
  bool bound_justified() const { return bound_justified_; }

 private:
  friend class Engine;
  ConjunctiveQuery q_;
  uint64_t fp_ = 0;
  acyclic::Classification cls_;
  size_t bound_ = 0;
  bool bound_justified_ = false;
  /// Why q is unsafe (a head variable missing from the body), or empty.
  /// Such a query gets no exact answer: Decide reports kUnknown (never
  /// cached), Approximate and Eval Status::kUnsupported.
  std::string unsafe_;
};

/// Result of Engine::Approximate — ApproximationResult plus an explicit
/// status (the free function returns std::nullopt for unsupported inputs).
struct ApproximateOutcome {
  Status status;
  ApproximationResult result;  // meaningful when status.ok()
};

/// Switches for Engine::Eval. The default is the production path: compile
/// the witness into a SemiJoinProgram and run it over the columnar data
/// plane. The row path survives as the differential baseline — both paths
/// produce identical answer sets (pinned by tests/columnar_eval_test).
struct EvalOptions {
  enum class Path {
    kColumnar,  // SemiJoinProgram over a ColumnarInstance (default)
    kRow,       // legacy tuple-at-a-time EvaluateAcyclic
  };
  Path path = Path::kColumnar;
  /// Polled throughout the decision and at every op boundary of the
  /// evaluation (not owned; may be null). A fired token yields
  /// Status::kDeadlineExceeded with the engine immediately reusable.
  CancelToken* cancel = nullptr;
};

/// Result of Engine::Eval — the Prop 24 FPT pipeline with an explicit
/// status instead of a silent `reformulated = false`.
struct EvalOutcome {
  Status status;
  bool reformulated = false;
  /// True when the answers came from the columnar data plane.
  bool columnar = false;
  ConjunctiveQuery witness;
  YannakakisResult evaluation;  // meaningful when reformulated
  /// Columnar execution cost accounting (zeros on the row path).
  data::ExecStats exec_stats;
};

/// Session-oriented entrypoint for the realistic workload — many queries
/// against one fixed Σ. An Engine analyzes the schema once and keeps two
/// things alive across calls:
///
///   * Σ with its SchemaFacts (termination and boundedness facts, the
///     predicate-reachability graph);
///   * a decision cache serving repeat (or isomorphic) queries instantly.
///
/// The cache is a FingerprintCache: unbounded by default, one LRU under
/// the constructor's decision_cache_bytes budget, introspectable
/// through Stats() and droppable through TrimCaches(). Eviction never
/// changes answers — an evicted decision is simply recomputed on the next
/// miss. Everything else is per decision: chase(q, Σ) and the compiled
/// containment oracle (with its UCQ rewriting, when one is built) are
/// built once by the decision that needs them, and a repeat query is
/// answered by the decision cache before either is needed.
///
/// The free functions (DecideSemanticAcyclicity, AcyclicApproximation,
/// DecideUcqSemanticAcyclicity, FptEvaluate) are one-shot wrappers over a
/// transient Engine, so both paths run identical code.
///
/// Thread safety: all public methods are const and safe to call
/// concurrently on a shared Engine. The decision cache takes one mutex
/// for lookups and inserts only; each decision owns its chase and oracle,
/// whose containment checks take no lock. Racing computations of the same
/// decision keep the first inserted result, so every caller observes the
/// same answer. DecideBatch with threads > 1 is exactly concurrent Decide
/// over the batch.
class Engine {
 public:
  /// `options` are the decision-pipeline options (budgets, target class,
  /// strategies). `decision_cache_bytes` is the decision cache's byte
  /// budget (0 = unbounded, the default); set it on long-running or
  /// multi-tenant engines to turn on LRU eviction.
  explicit Engine(DependencySet sigma, SemAcOptions options = {},
                  size_t decision_cache_bytes = 0);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const DependencySet& sigma() const { return sigma_; }
  const SemAcOptions& options() const { return options_; }

  /// Analyzes q against this schema (safety, classification with
  /// certificates, fingerprint, small-query bound). Prepared state is
  /// immutable and copyable; prepare once, decide many times.
  PreparedQuery Prepare(const ConjunctiveQuery& q) const;

  /// Decides whether q is semantically acyclic under the schema (same
  /// pipeline and guarantees as DecideSemanticAcyclicity, off prepared and
  /// cached state). `cancel` (not owned; may be null) is polled throughout
  /// the pipeline — RequestCancel() from any thread aborts the decision at
  /// its next poll point. SemAcOptions::deadline_ms (when set) is folded
  /// into the token, or into a local one when `cancel` is null, so the
  /// effective deadline is the tighter of the two. An aborted decision
  /// reports Strategy::kDeadlineExceeded / answer kUnknown with the
  /// evidence gathered so far, is never cached, and the engine (sessions
  /// unwound, the decision cache untouched) is immediately reusable.
  SemAcResult Decide(const PreparedQuery& q,
                     CancelToken* cancel = nullptr) const;
  /// Convenience: Prepare + Decide.
  SemAcResult Decide(const ConjunctiveQuery& q,
                     CancelToken* cancel = nullptr) const;

  /// Deadlines for one DecideBatch call, on top of (and tightened by)
  /// SemAcOptions::deadline_ms. Zero = none.
  struct BatchDeadlines {
    /// Wall-clock budget for the whole batch: when it elapses, in-flight
    /// decisions abort at their next poll point and not-yet-started ones
    /// abort immediately — completed results are returned as-is, the rest
    /// report Strategy::kDeadlineExceeded (the per-query status).
    int64_t batch_ms = 0;
    /// Per-query wall-clock budget, applied to each decision separately.
    int64_t per_query_ms = 0;
  };

  /// Decides a batch. With threads > 1 the batch is worked by that many
  /// concurrent callers of Decide (answers are positionally aligned with
  /// the input either way).
  std::vector<SemAcResult> DecideBatch(const std::vector<PreparedQuery>& batch,
                                       size_t threads = 1) const;
  /// Batch decision under deadlines: every query gets its own token
  /// chained under one batch-level token, so a batch deadline cancels
  /// stragglers while per-query deadlines bound each decision.
  std::vector<SemAcResult> DecideBatch(const std::vector<PreparedQuery>& batch,
                                       size_t threads,
                                       const BatchDeadlines& deadlines) const;

  /// §8.2 acyclic approximation off prepared state: the decision's
  /// witness when q is semantically acyclic, otherwise the trivial
  /// fallback. Runs Decide, so deadline_ms applies.
  ApproximateOutcome Approximate(const PreparedQuery& q) const;

  /// §8.1 UCQ semantic acyclicity; each disjunct is chased at most once:
  /// the redundancy pass builds the chase and hands it directly to the
  /// kept disjunct's decision. SemAcOptions::deadline_ms bounds the whole
  /// UCQ decision (redundancy pass and every disjunct's decision under
  /// one token); an aborted run reports kUnknown, exact = false.
  UcqSemAcResult DecideUcq(const UnionQuery& Q) const;

  /// Prop 24 FPT evaluation: reformulate (cached), then Yannakakis over a
  /// view-based join tree of the witness. The default path compiles the
  /// witness into a SemiJoinProgram and runs it over a columnar encoding
  /// of the database (EvalOptions::Path::kColumnar); pass Path::kRow for
  /// the legacy tuple-at-a-time evaluator. Answer sets are identical.
  EvalOutcome Eval(const PreparedQuery& q, const Instance& database) const;
  EvalOutcome Eval(const PreparedQuery& q, const Instance& database,
                   const EvalOptions& opts) const;
  /// Same, over a pre-encoded columnar database (always the columnar
  /// path; `opts.path` is ignored). Encode once with
  /// data::ColumnarInstance::FromInstance/FromFile, evaluate many times.
  EvalOutcome Eval(const PreparedQuery& q,
                   const data::ColumnarInstance& database,
                   const EvalOptions& opts = {}) const;

  /// Decision-cache introspection: entries, bytes, hit/miss/insert/
  /// eviction counters and the configured budget. Safe concurrently with
  /// decisions.
  CacheStats Stats() const;

  /// Process-lifetime decision metrics (core/obs.h): per-strategy and
  /// per-answer decision counts, per-strategy and per-phase latency
  /// histograms, hot-path counters (the oracles' prefilter count included).
  /// Always maintained (no sink needed); safe concurrently with
  /// decisions. Rendered by MetricsSnapshot::ToJson for `semacyc_cli
  /// --metrics` and the `semacycd` stats endpoint.
  obs::MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

  /// Explicit pressure relief: drops every resident decision-cache entry.
  /// Counters survive; the drops count as evictions. In-flight decisions
  /// keep the shared_ptrs they already hold, so trimming is safe
  /// concurrently with Decide.
  void TrimCaches() const;

 private:
  /// The token a call runs under: `cancel` itself, or `local` when
  /// `cancel` is null and deadline_ms is set; null when neither applies.
  /// deadline_ms is folded into the returned token (SetDeadlineInMs only
  /// ever tightens, so an external token's earlier deadline survives).
  CancelToken* WithDeadline(CancelToken* cancel, CancelToken* local) const;
  /// The cached-decision layer plus the abort protocol: runs
  /// DecideUncached under the decision cache and never caches an aborted
  /// result (including one surfaced from an injected std::bad_alloc), so
  /// a later re-decide sees the same cache state as an engine that never
  /// started. `prechased` is passed through to DecideUncached.
  SemAcResult DecideWithToken(
      const PreparedQuery& q, CancelToken* cancel,
      const QueryChaseResult* prechased = nullptr) const;
  /// `tracer` is non-null exactly when options_.trace_sink is set; every
  /// instrumentation site guards on it (null = counters only). `cancel`
  /// (may be null) is polled at every phase boundary and threaded into
  /// every unbounded loop beneath. `prechased` (may be null) is a finished
  /// chase(q, Σ) under options_.chase, used instead of building one (no
  /// CHASE span then); DecideUcq hands in its redundancy pass's chase.
  SemAcResult DecideUncached(const PreparedQuery& q,
                             obs::DecisionTracer* tracer, CancelToken* cancel,
                             const QueryChaseResult* prechased) const;

  /// Shared Eval prologue: decide under `cancel` (deadline already folded
  /// in by WithDeadline), extract the witness into `out` and build its
  /// join-tree view. Returns false with out->status set on any non-Ok
  /// outcome.
  bool EvalPrologue(const PreparedQuery& q, CancelToken* cancel,
                    EvalOutcome* out, std::optional<JoinTreeView>* tree) const;

  DependencySet sigma_;
  /// Σ analyzed once (in the constructor), shared by every decision: the
  /// facts consumed by oracles and the small-query bound.
  SchemaFacts facts_;
  SemAcOptions options_;

  mutable FingerprintCache<SemAcResult> decisions_;

  /// Lifetime metrics (atomic counters + latency histograms); last member
  /// so the cache it describes is constructed first. Each decision's
  /// oracle holds a pointer to it and counts its prefilter rejections
  /// into it.
  mutable obs::MetricsRegistry metrics_;
};

}  // namespace semacyc

#endif  // SEMACYC_SEMACYC_ENGINE_H_
