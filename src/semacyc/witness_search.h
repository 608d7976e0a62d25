#ifndef SEMACYC_SEMACYC_WITNESS_SEARCH_H_
#define SEMACYC_SEMACYC_WITNESS_SEARCH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "acyclic/classify.h"
#include "chase/query_chase.h"
#include "core/homomorphism.h"
#include "core/incremental_hom.h"
#include "core/obs.h"
#include "core/worksteal.h"
#include "rewrite/ucq_rewriter.h"

namespace semacyc {

/// Σ-only facts shared by every per-query containment oracle and by the
/// small-query-bound computation for a fixed schema — the analyze-once
/// payload of a semacyc::Engine. An Engine computes them once and hands
/// them to every oracle it builds; the free-function entrypoints wrap a
/// transient Engine, so they recompute them per call.
struct SchemaFacts {
  /// Chase-based containment answers are exact: Σ is egd-only, or a
  /// weakly acyclic tgd-only set (chase termination is guaranteed).
  bool chase_exact = false;
  /// Σ lies in a class whose UCQ rewriting is worth building when the
  /// chase may diverge (linear / non-recursive / sticky).
  bool rewritable = false;
  /// Small-query-bound facts (Props 8/15/22): guarded tgds, NR-or-sticky
  /// tgds (bound via PaperRewriteHeightBound), bounded egd classes
  /// (K2 / unary FDs).
  bool guarded = false;
  bool nr_or_sticky = false;
  bool egds_bounded = false;
  /// Body←head predicate edges of Σ's tgds (the reachability prefilter
  /// walks them backwards from q's predicates) and the set of tgd head
  /// predicates (the chase-free degeneration tests against it).
  std::unordered_map<uint32_t, std::vector<uint32_t>> reverse_pred_edges;
  std::unordered_set<uint32_t> tgd_head_preds;

  static SchemaFacts Compute(const DependencySet& sigma);
};

/// Oracle answering "candidate ⊆Σ q" for a fixed (q, Σ). When Σ is
/// tgd-only and the UCQ rewriting of q is complete, candidates are checked
/// against that rewriting, built once at construction and owned by the
/// oracle (exact, no chase of the candidate needed); otherwise the
/// candidate is chased (exact when that chase saturates).
///
/// The per-candidate work is cut two ways:
///  * for egd-free Σ, a predicate-reachability prefilter answers kNo
///    without chasing when some predicate of q is unreachable (at the
///    predicate level, an over-approximation of derivability) from the
///    candidate's predicates — no chase of the candidate, however long,
///    can then produce the atoms q needs, so the rejection is definitive;
///  * when Σ is egd-free and no tgd head predicate occurs in q, the chase
///    of the candidate can never add an atom the q-homomorphism could
///    use, so containment degenerates to the classical Chandra–Merlin
///    check against the candidate itself — exact and chase-free. It runs
///    the one homomorphism search (hom::HomSearch, core/homomorphism.h)
///    with q compiled at construction and the candidate's body atoms as
///    base lists.
/// Otherwise a candidate is decided by Lemma 1 on state compiled once per
/// oracle and pooled per thread: Σ's tgds and q's body are compiled at
/// construction; a check writes the candidate's frozen body into a pooled
/// Instance, its variables frozen to a per-thread block of nulls reused
/// across checks (minted in first-occurrence order once, so within one
/// check they are ascending and older than the chase's nulls, as
/// Freeze's would be), chases it there with the compiled tgds, and runs
/// one hom::SearchInstance of the compiled q with the head slots
/// pre-bound to the frozen head. The verdict is Lemma1Verdict's, so it
/// equals ContainedUnder(candidate, q, Σ) on every call.
/// Answers are not memoized: the witness strategies drop repeated
/// canonical candidates before they reach the oracle, and the Engine's
/// decision cache absorbs repeated queries.
/// tests/reference_check_test.cc re-derives every answer this oracle
/// certifies with the plain chase (ContainedUnder), sharing none of it.
///
/// ContainedInQ is safe to call from concurrent threads without a lock:
/// every path reads only state frozen at construction, and the pooled
/// per-check state is thread_local.
class ContainmentOracle {
 public:
  /// `facts` carries the Σ-only analysis (consumed during construction,
  /// not stored); `metrics` (not owned, must outlive the oracle) receives
  /// the prefilter count — the owning Engine's registry, so its total is
  /// exact under concurrency.
  ContainmentOracle(const ConjunctiveQuery& q, const DependencySet& sigma,
                    const ChaseOptions& chase_options,
                    const RewriteOptions& rewrite_options,
                    const SchemaFacts& facts, obs::MetricsRegistry* metrics);

  /// candidate ⊆Σ q, for a candidate of q's arity handed over as a view
  /// (the witness searches' path). `cancel` (nullptr = not cancellable)
  /// is polled per check and threaded into the candidate's chase; once
  /// the token has triggered the answer is kUnknown (it may rest on a
  /// truncated chase or hom search).
  Tri ContainedInQ(QueryView candidate, CancelToken* cancel = nullptr) const;
  /// The same check on a built query.
  Tri ContainedInQ(const ConjunctiveQuery& candidate,
                   CancelToken* cancel = nullptr) const;
  /// True when kNo answers are exact.
  bool exact() const { return exact_; }
  /// The oracle's own complete rewriting of q (null when the chase path
  /// is used) — its build_ns attributes REWRITE cost inside oracle
  /// construction.
  const RewriteResult* rewriting() const { return rewriting_.get(); }
 private:
  Tri DecideByChase(QueryView candidate, CancelToken* cancel) const;
  Tri DecideChaseFree(QueryView candidate) const;
  bool PassesPredicateFilter(QueryView candidate) const;
  /// Seeds `*binding` with q's head mapped position-wise onto `tuple`, as
  /// EvaluatesTo does; false when no homomorphism can do that.
  bool BindHead(const Term* tuple, std::vector<Term>* binding) const;

  const ConjunctiveQuery& q_;
  const DependencySet& sigma_;
  ChaseOptions chase_options_;
  CompiledTgds tgds_;
  std::unique_ptr<const RewriteResult> rewriting_;
  bool exact_ = false;
  obs::MetricsRegistry* metrics_;
  /// Predicate-reachability prefilter state: for each distinct predicate
  /// of q, the set of predicates from which it is reachable in Σ's
  /// body-to-head predicate graph (ANY-body over-approximation).
  bool prefilter_ = false;
  /// Σ cannot contribute atoms over q's predicates: decide classically.
  bool chase_free_ = false;
  /// q's body compiled once, for the Lemma 1 verdict and the chase-free
  /// check, with per head position its slot (hom::kGround for a constant
  /// or a variable the body lacks). Immutable after construction;
  /// per-check scratch is thread_local (witness_search.cc), so neither
  /// path — like the prefilter — needs a lock from concurrent workers.
  hom::CompiledTerms q_compiled_;
  std::vector<uint32_t> q_head_slots_;
  /// The chase-free check's atom order (hom::HomSearch over the
  /// candidate's body).
  std::vector<uint32_t> chase_free_order_;
  /// Each distinct predicate of q with the indices of its q atoms, so one
  /// pass over a candidate body fills every q atom's base list.
  std::vector<std::pair<Predicate, std::vector<uint32_t>>> q_atoms_of_;
  std::vector<std::unordered_set<uint32_t>> q_pred_sources_;
};

/// Outcome of one witness-search strategy.
struct WitnessSearchOutcome {
  Tri answer = Tri::kUnknown;
  std::optional<ConjunctiveQuery> witness;
  /// True when the strategy exhausted its whole search space (as opposed
  /// to stopping on a budget); needed for kNo claims.
  bool exhausted = false;
  size_t candidates_tested = 0;
  /// Observability counters, filled from the strategy's own bookkeeping
  /// at return (zero-cost: nothing new runs on the search path). `visits`
  /// is DFS nodes visited — the unit the budget is charged in.
  size_t visits = 0;
  size_t classifier_pushes = 0;
  size_t classifier_pops = 0;
  /// The classifier's α verdicts by route (IncrementalClassifier::
  /// alpha_gyo_runs / alpha_inherited), summed like the push counts.
  size_t alpha_gyo_runs = 0;
  size_t alpha_inherited = 0;
  /// Incremental chase-homomorphism session totals (exhaustive strategy
  /// only; all-zero otherwise). Like the classifier counters they sum
  /// over workers — real work performed, scheduling-dependent at
  /// threads > 1, and deliberately outside the parity contract.
  IncrementalHomomorphism::Stats hom;
  /// Containment-oracle calls and lock acquisitions on the shared
  /// NO-set, summed over workers of the subsets/exhaustive strategies:
  /// like `hom`, scheduling-dependent at threads > 1 and outside the
  /// parity contract. `oracle_check_ns` estimates the time inside those
  /// calls from every 16th call of each worker, timed and scaled by 16.
  size_t oracle_calls = 0;
  uint64_t oracle_check_ns = 0;
  size_t shared_set_locks = 0;
  /// Work-stealing bookkeeping of the subsets/exhaustive strategies (at
  /// every thread count; all-zero for images).
  WorkStealStats parallel;
};

/// Each strategy has exactly one search body and one per-candidate
/// pipeline: push/pop acyclicity classification along the DFS path (with
/// hereditary subtree pruning for β/γ/Berge targets), an incrementally
/// maintained chase homomorphism (exhaustive), and candidate dedup on a
/// 128-bit key kept along the path (IncrementalCandidateKey; the images
/// strategy fingerprints each built candidate).
///
/// Every strategy takes a `target` acyclicity class: candidates are kept
/// only when their hypergraph lies in `target` or a stricter class. kAlpha
/// reproduces the paper's notion; kBeta/kGamma search for witnesses from
/// the stricter strata of the hierarchy (see acyclic/classify.h).
///
/// Every strategy also takes a `cancel` token (nullptr = not cancellable):
/// it is polled per DFS visit and threaded into every per-candidate oracle
/// check. A fired token truncates the search exactly like an exhausted
/// budget — the outcome reports exhausted = false (so no kNo claim can be
/// built on it) with the candidates tested so far as partial evidence. A
/// kYes found before the token fired stays valid: witnesses are verified
/// constructively.
///
/// The two budgeted strategies run on the work-stealing pool
/// (core/worksteal.h has the determinism argument; docs/ARCHITECTURE.md
/// the prose). The search space is pre-split into an ordered list of
/// subtree-root units whose concatenation is the DFS preorder (subsets:
/// per iterative-deepening limit and first chase atom; exhaustive: per
/// head pattern and first/second body atom). `threads` workers each own
/// a classifier and hom session replayed to the claimed unit's prefix and
/// share a NO-only concurrent fingerprint set; the ordered commit protocol
/// charges the budget in preorder, so answer, witness, exhausted, visits
/// and candidates_tested are bitwise-identical for every thread count.
/// With threads <= 1 the calling thread runs every unit in order and no
/// thread is spawned.
/// Any cancel a worker observes — the token's own, its deadline, or one
/// injected into a worker's oracle call — cancels `cancel` itself, so the
/// caller's next poll aborts the whole decision.

/// Strategy "images": every homomorphic image of q inside the chase whose
/// atom set meets `target` is a candidate (q ⊆Σ image by construction).
WitnessSearchOutcome FindWitnessInQueryImages(
    const ConjunctiveQuery& q, const QueryChaseResult& chase,
    const ContainmentOracle& oracle, size_t max_homs,
    acyclic::AcyclicityClass target = acyclic::AcyclicityClass::kAlpha,
    CancelToken* cancel = nullptr);

/// Strategy "subsets": `target`-acyclic sub-instances of the chase
/// mentioning all answer terms, up to `max_atoms` atoms, smallest first
/// (q ⊆Σ subset by construction); at most `budget` DFS visits.
WitnessSearchOutcome FindWitnessInChaseSubsets(
    const QueryChaseResult& chase, const ContainmentOracle& oracle,
    size_t max_atoms, size_t budget, size_t threads,
    acyclic::AcyclicityClass target = acyclic::AcyclicityClass::kAlpha,
    CancelToken* cancel = nullptr);

/// Strategy "exhaustive": canonical enumeration of `target`-acyclic CQs up
/// to `max_atoms` atoms over the predicates that can occur in chase(q,Σ),
/// pruned by requiring a homomorphism into the chase (this certifies
/// q ⊆Σ candidate); at most `budget` DFS visits. A kNo covers every
/// candidate the search tested when (a) the enumeration exhausted (no
/// budget hit), (b) the chase saturated, (c) the oracle is exact, (d)
/// `max_atoms` is at least the paper's small-query bound, and (e) target
/// == kAlpha (the small-query theorems are proven for α-acyclic witnesses
/// only); the caller checks (b)–(e). It is not complete: the dedup key
/// (IncrementalCandidateKey) is no isomorphism invariant, so two
/// non-isomorphic candidates can share it and only the first one met is
/// tested — T(a,b), T(b,a), T(c,d), T(d,e) and T(a,b), T(b,c), T(c,d),
/// T(d,e) do (CanonicalFingerprintTest.
/// ConflatesTwoNonIsomorphicAcyclicBodies). A kNo is definitive only if
/// no skipped candidate is a witness.
WitnessSearchOutcome ExhaustiveWitnessSearch(
    const ConjunctiveQuery& q, const DependencySet& sigma,
    const QueryChaseResult& chase, const ContainmentOracle& oracle,
    size_t max_atoms, size_t budget, size_t threads,
    acyclic::AcyclicityClass target = acyclic::AcyclicityClass::kAlpha,
    CancelToken* cancel = nullptr);

}  // namespace semacyc

#endif  // SEMACYC_SEMACYC_WITNESS_SEARCH_H_
