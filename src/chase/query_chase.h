#ifndef SEMACYC_CHASE_QUERY_CHASE_H_
#define SEMACYC_CHASE_QUERY_CHASE_H_

#include <vector>

#include "chase/tgd_chase.h"
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
};

QueryChaseResult ChaseQuery(const ConjunctiveQuery& q,
                            const DependencySet& sigma,
                            const ChaseOptions& options = {});

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
