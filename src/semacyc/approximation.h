#ifndef SEMACYC_SEMACYC_APPROXIMATION_H_
#define SEMACYC_SEMACYC_APPROXIMATION_H_

#include <optional>

#include "semacyc/decider.h"

namespace semacyc {

/// An acyclic approximation of q under Σ (§8.2): an acyclic CQ q' with
/// q' ⊆Σ q — the decision's witness when q is semantically acyclic,
/// otherwise the §8.2 fallback (TrivialAcyclicUnderApproximation).
struct ApproximationResult {
  ConjunctiveQuery approximation;
  /// True when the approximation is in fact equivalent to q under Σ
  /// (i.e., q was semantically acyclic and this is an exact reformulation).
  bool is_exact = false;
};

/// Computes an acyclic approximation of q under Σ. Always succeeds for
/// constant-free q: the paper's fallback witness (a single variable x with
/// one atom R(x,...,x) per predicate of q) is contained in q under every Σ.
std::optional<ApproximationResult> AcyclicApproximation(
    const ConjunctiveQuery& q, const DependencySet& sigma,
    const SemAcOptions& options = {});

/// The §8.2 fallback: one variable x, body {R(x,..,x) : R in q's body},
/// head (x,...,x). Contained in every constant-free q.
ConjunctiveQuery TrivialAcyclicUnderApproximation(const ConjunctiveQuery& q);

}  // namespace semacyc

#endif  // SEMACYC_SEMACYC_APPROXIMATION_H_
