#ifndef SEMACYC_CORE_HOMOMORPHISM_H_
#define SEMACYC_CORE_HOMOMORPHISM_H_

#include <functional>
#include <optional>
#include <vector>

#include "core/instance.h"
#include "core/interrupt.h"
#include "core/query.h"

namespace semacyc {

/// Options for the homomorphism search.
struct HomOptions {
  /// Pre-bound mappings (e.g. head variables to target constants).
  /// Default empty (unconstrained search). Terms bound here are used
  /// verbatim; they need not be "mappable" kinds. Set when answer
  /// positions are pinned — evaluation, containment, witness checks.
  Substitution fixed;
  /// Require the term mapping to be injective. Default false; set true
  /// only for isomorphism checks (core computation, iso resolution).
  bool injective = false;
  /// Stop after this many solutions (count, not bytes). Default 1 — the
  /// existence check. 0 means "no cap"; raise only when enumerating
  /// answers and beware of exponential counts.
  size_t max_solutions = 1;
  /// Cooperative cancellation token polled once per backtracking step
  /// (nullptr = not cancellable, the default). A fired token stops the
  /// search — "not found" with budget_exhausted set — so no caller may
  /// treat the result as exact.
  CancelToken* cancel = nullptr;
};

/// Result of a homomorphism search.
struct HomResult {
  bool found = false;
  /// True if the search was cut short by the cancel token (found may be
  /// false merely because the search stopped early).
  bool budget_exhausted = false;
  std::vector<Substitution> solutions;
};

/// Searches for homomorphisms h from `from` into `to`: Ri(h(v̄i)) ∈ to for
/// each atom, h identity on constants (§2). Backtracking with
/// most-constrained-first atom ordering, candidates narrowed through the
/// instance's (predicate, position, term) index.
HomResult FindHomomorphisms(const std::vector<Atom>& from, const Instance& to,
                            const HomOptions& options = {});

/// First homomorphism, if any.
std::optional<Substitution> FindHomomorphism(const std::vector<Atom>& from,
                                             const Instance& to,
                                             const Substitution& fixed = {});

/// True iff a homomorphism exists.
bool HasHomomorphism(const std::vector<Atom>& from, const Instance& to,
                     const Substitution& fixed = {});

/// Evaluates q over the instance: the set of tuples h(x̄) over all
/// homomorphisms h from q into `instance` (§2). Deduplicated.
std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& q,
                                             const Instance& instance,
                                             size_t max_answers = 0);

/// Decision version: t̄ ∈ q(I)? `cancel` (nullptr = not cancellable) is
/// polled during the search; a cancelled check returns false without
/// having decided — the caller must treat the answer as unknown when the
/// token has triggered.
bool EvaluatesTo(const ConjunctiveQuery& q, const Instance& instance,
                 const std::vector<Term>& tuple,
                 CancelToken* cancel = nullptr);

/// True iff the Boolean evaluation of q over `instance` is nonempty.
bool EvaluatesTrue(const ConjunctiveQuery& q, const Instance& instance);

/// Homomorphic equivalence of instances (nulls mappable, constants fixed):
/// used for chase(q,Σ) ≡ chase(q',Σ) checks (proof of Theorem 7).
bool HomomorphicallyEquivalent(const Instance& a, const Instance& b);

}  // namespace semacyc

#endif  // SEMACYC_CORE_HOMOMORPHISM_H_
