#ifndef SEMACYC_SEMACYC_DECIDER_H_
#define SEMACYC_SEMACYC_DECIDER_H_

#include <optional>
#include <string>

#include "semacyc/witness_search.h"

namespace semacyc::obs {
class TraceSink;
}  // namespace semacyc::obs

namespace semacyc {

/// Answer of the semantic-acyclicity decision procedure.
enum class SemAcAnswer { kYes, kNo, kUnknown };
const char* ToString(SemAcAnswer a);

/// The pipeline stage that produced an answer (DESIGN.md §3). Replaces the
/// former stringly-typed SemAcResult::strategy; ToString renders the
/// historical names ("already-acyclic", "core", ...).
enum class Strategy {
  kNone,             // no decision was produced (default-constructed result)
  kAlreadyAcyclic,   // q itself meets the target class
  kCore,             // the core of q meets it (also the Σ = ∅ NO argument)
  kFailingChase,     // chase(q, Σ) failed: q is empty under Σ
  kChaseCompaction,  // the chase was acyclic; Lemma 9 compaction
  kImages,           // homomorphic image of q inside the chase
  kSubsets,          // acyclic sub-instance of the chase
  kExhaustive,       // bounded canonical enumeration (YES or definitive NO)
  kBudgetExhausted,  // every strategy ran out: kUnknown
  /// The decision was aborted cooperatively — deadline_ms elapsed, an
  /// external CancelToken fired, or an injected fault hit — before the
  /// pipeline finished. kUnknown with partial evidence (candidates_tested
  /// so far); never cached, and the engine stays fully reusable.
  kDeadlineExceeded,
};
const char* ToString(Strategy s);

/// Configuration of the decision pipeline (see DESIGN.md §3).
struct SemAcOptions {
  /// Chase termination budgets (defaults in chase/tgd_chase.h); raise
  /// when saturation matters more than latency.
  ChaseOptions chase;
  /// UCQ-rewriting budgets (defaults in rewrite/ucq_rewriter.h); raise
  /// on rewritable schemas whose rewriting is cut short.
  RewriteOptions rewrite;
  /// Which stratum of the acyclicity hierarchy witnesses must reach:
  /// kAlpha is the paper's notion; kBeta/kGamma/kBerge demand strictly
  /// tighter witnesses (semantic β-/γ-acyclicity). For targets above
  /// kAlpha a kNo is only emitted on the constraint-free core argument —
  /// the small-query theorems are proven for α-acyclic witnesses only.
  acyclic::AcyclicityClass target_class = acyclic::AcyclicityClass::kAlpha;
  /// Budgets per strategy. Units: image_homs caps the number of
  /// homomorphisms of q into the chase that the images strategy
  /// considers (default 5000); subset_budget and exhaustive_budget cap
  /// DFS node visits of the subsets resp. exhaustive enumerations
  /// (defaults 200k / 300k). Raise for exactness on hard instances,
  /// lower for latency; a hit budget downgrades NO to UNKNOWN, never
  /// flips an answer.
  size_t image_homs = 5000;
  size_t subset_budget = 200000;
  size_t exhaustive_budget = 300000;
  /// Worker threads for the subsets/exhaustive witness searches of ONE
  /// decision (core/worksteal.h). Every thread count runs the same ordered
  /// search space under the deterministic commit protocol — 1 (the
  /// default) runs it on the calling thread — so answers, strategies,
  /// budgets and witnesses are bitwise identical across thread counts:
  /// threads buy latency, never a different result.
  size_t decide_threads = 1;
  /// Cap applied on top of the theoretical small-query bound when
  /// enumerating witnesses exhaustively (the theoretical bound for NR/S is
  /// the exponential 2·f_C(q,Σ); enumeration beyond ~8 atoms is hopeless).
  size_t witness_atoms_cap = 8;
  /// Per-strategy switches, all default true; disable individual
  /// strategies only to isolate one in tests/benches (a disabled
  /// strategy can cost exactness, never correctness).
  bool enable_images = true;
  bool enable_subsets = true;
  bool enable_exhaustive = true;
  /// Wall-clock deadline per decision in milliseconds (0 = none, the
  /// default). When it elapses, the pipeline aborts at the next poll
  /// point and the result reports Strategy::kDeadlineExceeded with
  /// answer kUnknown — graceful degradation, never an exception or a
  /// torn result. Distinct from the step budgets above: those bound
  /// *work* (deterministic, reproducible), this bounds *time*. Engine::
  /// Approximate and Eval honor it too (Status::Code::kDeadlineExceeded);
  /// Engine::DecideUcq applies it once to the whole UCQ decision.
  int64_t deadline_ms = 0;
  /// Structured decision tracing (core/obs.h): when non-null, every
  /// decision emits one DecisionTrace (nested phase spans + counters) to
  /// this sink. Null (the default) costs one inlined pointer check per
  /// phase — counters and answers are bit-identical either way (pinned by
  /// obs_test's parity sweep). Not owned; must outlive the decisions.
  obs::TraceSink* trace_sink = nullptr;
};

/// Result of the decision procedure, with a machine-checkable witness.
/// The engine renames witness variables with WithParseableVariables, so
/// ToString() of a witness reads back through ParseQuery.
struct SemAcResult {
  SemAcAnswer answer = SemAcAnswer::kUnknown;
  /// When kYes: an acyclic CQ q' with q ≡Σ q'.
  std::optional<ConjunctiveQuery> witness;
  /// The tightest acyclicity class of the witness body (at least
  /// target_class). Only meaningful when `witness` is set.
  acyclic::AcyclicityClass witness_class = acyclic::AcyclicityClass::kCyclic;
  /// The strategy that produced the answer.
  Strategy strategy = Strategy::kNone;
  /// The small-query bound used (2·|q| for APC classes, 2·f_C(q,Σ) for
  /// UCQ-rewritable classes), before the cap.
  size_t small_query_bound = 0;
  /// Whether `small_query_bound` is backed by one of the paper's theorems
  /// (Props 8/15/22) — when false the bound is the 2·|q| heuristic and a
  /// finished exhaustive search still cannot claim an exact NO. This is
  /// the out-param of SmallQueryBound, surfaced so `exact` is
  /// self-explanatory.
  bool bound_justified = false;
  /// The witness-size bound actually enumerated.
  size_t bound_used = 0;
  /// Whether a kNo answer (or the absence of a witness) is definitive.
  bool exact = false;
  size_t candidates_tested = 0;

  /// Approximate heap footprint (cache byte accounting).
  size_t ApproxBytes() const {
    return sizeof(SemAcResult) +
           (witness.has_value() ? witness->ApproxBytes() : 0);
  }
};

/// Decides whether q is semantically acyclic under Σ.
///
/// The pipeline (DESIGN.md §3): trivial acyclicity, core acyclicity
/// (complete for Σ = ∅), chase-acyclicity with Lemma 9 compaction,
/// homomorphic-image search, acyclic-subset-of-chase search, and finally
/// bounded exhaustive witness enumeration. kYes answers always carry a
/// verified witness; kNo answers are emitted only when the run was exact
/// (saturated chase or complete rewriting, exhaustive search finished
/// within budget and within the theoretical bound).
SemAcResult DecideSemanticAcyclicity(const ConjunctiveQuery& q,
                                     const DependencySet& sigma,
                                     const SemAcOptions& options = {});

/// `witness` with every variable whose name ParseQuery rejects (the
/// engine's pooled "s$3", "h$0", "w$1", "v$17") renamed to x0, x1, ... in
/// first-occurrence order (head, then body), skipping every name the
/// witness already uses; parseable variables keep their names. A pure
/// function of the witness, so equal witnesses stay bitwise equal (the
/// 1-vs-N-thread parity contract). The engine applies it to every YES
/// witness it returns; `$` names stay reserved for the engine's pools.
ConjunctiveQuery WithParseableVariables(const ConjunctiveQuery& witness);

/// The paper's small-query bound for (q, Σ): 2·|q| when Σ is guarded or a
/// set of egds (acyclicity-preserving chase classes, Props 8/22), and
/// 2·f_C(q,Σ) for UCQ-rewritable classes (Prop 15). For sets outside the
/// studied classes, falls back to 2·|q| (heuristic, flagged non-exact).
/// `facts` is SchemaFacts::Compute(sigma), computed once per schema.
size_t SmallQueryBound(const ConjunctiveQuery& q, const DependencySet& sigma,
                       const SchemaFacts& facts,
                       bool* theoretically_justified = nullptr);

}  // namespace semacyc

#endif  // SEMACYC_SEMACYC_DECIDER_H_
