#ifndef SEMACYC_CHASE_QUERY_CHASE_H_
#define SEMACYC_CHASE_QUERY_CHASE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "chase/tgd_chase.h"
#include "core/fingerprint_cache.h"
#include "core/query.h"

namespace semacyc {

/// chase(q, Σ): the chase of the canonical database of q (§2). Variables
/// are frozen to fresh *nulls* — the paper's "special constants treated as
/// nulls" — so that egds may merge them.
struct QueryChaseResult {
  Instance instance;
  /// Images of the head terms after any egd merges.
  std::vector<Term> frozen_head;
  /// Final representative of each query variable.
  Substitution var_to_frozen;
  bool saturated = false;
  bool failed = false;
  size_t steps = 0;
  /// Wall time of the chase that built this result (observability; a
  /// cache-served result still reports the original build cost).
  int64_t build_ns = 0;

  /// Approximate heap footprint (cache byte accounting).
  size_t ApproxBytes() const;
};

QueryChaseResult ChaseQuery(const ConjunctiveQuery& q,
                            const DependencySet& sigma,
                            const ChaseOptions& options = {});

/// FingerprintCache matcher giving the chase memo isomorphism resolution:
/// the chase instance freezes variables to anonymous nulls and its
/// frozen_head is aligned with the head position-wise, so for a query q'
/// isomorphic to a cached q both transport verbatim — only var_to_frozen
/// is keyed by q's variables, and it is renamed through the witnessing
/// bijection σ (σ(q) = q', heads position-wise). The adapted result is
/// inserted under q' by the cache, so each α-renamed variant pays the
/// adaptation (one instance copy) once and exact-hits afterwards.
struct ChaseIsoMatch {
  static std::shared_ptr<const QueryChaseResult> Resolve(
      const ConjunctiveQuery& key,
      const std::shared_ptr<const QueryChaseResult>& value,
      const ConjunctiveQuery& probe);
};

/// Thread-safe memo of chase(q, Σ) for a *fixed* Σ and ChaseOptions — a
/// FingerprintCache keyed by the canonical fingerprint of q, resolved by
/// exact query equality with iso-resolution fallback (ChaseIsoMatch: an
/// α-renamed variant of a cached query is served the cached chase with
/// var_to_frozen renamed under the bijection). One lives inside each
/// semacyc::Engine: Decide/Approximate/DecideUcq runs against one schema
/// share the chase instead of re-deriving it per entrypoint and per repeat
/// call. Neither Σ nor the options participate in the key — use one cache
/// per (Σ, options).
class QueryChaseCache {
 public:
  QueryChaseCache() = default;
  explicit QueryChaseCache(const CacheConfig& config) : cache_(config) {}

  /// Returns the cached chase of q, or computes and inserts it. The chase
  /// runs outside the lock; a racing insert of the same query keeps the
  /// first entry, so every caller sees one result object. A chase
  /// truncated by options.cancel is never memoized and comes back as
  /// nullptr. `inserted` (optional) reports whether this call computed
  /// and stored a fresh entry — the abort-rollback hook.
  std::shared_ptr<const QueryChaseResult> GetOrCompute(
      const ConjunctiveQuery& q, const DependencySet& sigma,
      const ChaseOptions& options, bool* inserted = nullptr);

  /// Drops the entry stored under exactly q, if resident (abort rollback;
  /// see FingerprintCache::Erase).
  bool Erase(const ConjunctiveQuery& q) {
    return cache_.Erase(CanonicalFingerprint(q), q);
  }

  size_t hits() const { return cache_.hits(); }
  size_t misses() const { return cache_.misses(); }
  CacheStats Stats() const { return cache_.Stats(); }
  void Trim(size_t target_bytes) { cache_.Trim(target_bytes); }

 private:
  FingerprintCache<QueryChaseResult, ChaseIsoMatch> cache_;
};

/// Three-valued answers for chase-based decision procedures whose chase
/// may have been truncated.
enum class Tri { kYes, kNo, kUnknown };

const char* ToString(Tri t);

/// Lemma 1's verdict over an already-computed chase(q1, Σ): is c(x̄1) an
/// answer of some target (disjuncts of another arity are skipped)?
///
///  * kYes when the chase failed (q1 is empty on every model of Σ);
///  * kYes when a target maps into the chase — sound on a truncated
///    chase, since a homomorphism into a prefix extends to the full
///    result, and sound even after `cancel` fired;
///  * kUnknown once `cancel` has fired (the hom search may be truncated);
///  * kNo when the chase saturated (exact), kUnknown otherwise.
Tri Lemma1Verdict(const QueryChaseResult& chased,
                  const ConjunctiveQuery* targets, size_t num_targets,
                  CancelToken* cancel = nullptr);

/// q1 ⊆Σ q2 via Lemma 1: c(x̄) ∈ q2(chase(q1, Σ)), judged by
/// Lemma1Verdict (kYes always sound, kNo only on a saturated chase).
Tri ContainedUnder(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                   const DependencySet& sigma, const ChaseOptions& options = {});

/// q1 ≡Σ q2 (both containments).
Tri EquivalentUnder(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                    const DependencySet& sigma,
                    const ChaseOptions& options = {});

/// UCQ generalization used by §8.1: q ⊆Σ Q iff some disjunct of Q maps
/// into chase(q, Σ).
Tri ContainedUnder(const ConjunctiveQuery& q, const UnionQuery& Q,
                   const DependencySet& sigma, const ChaseOptions& options = {});

}  // namespace semacyc

#endif  // SEMACYC_CHASE_QUERY_CHASE_H_
