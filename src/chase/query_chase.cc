#include "chase/query_chase.h"

#include <cassert>

#include "core/homomorphism.h"

namespace semacyc {

const char* ToString(Tri t) {
  switch (t) {
    case Tri::kYes:
      return "yes";
    case Tri::kNo:
      return "no";
    case Tri::kUnknown:
      return "unknown";
  }
  return "?";
}

QueryChaseResult ChaseQuery(const ConjunctiveQuery& q,
                            const DependencySet& sigma,
                            const ChaseOptions& options) {
  FrozenQuery frozen = Freeze(q, TermKind::kNull);
  ChaseResult chase = Chase(std::move(frozen.instance), sigma, options);
  QueryChaseResult result;
  result.instance = std::move(chase.instance);
  result.saturated = chase.saturated;
  result.failed = chase.failed;
  result.steps = chase.steps;
  result.var_to_frozen = std::move(frozen.var_to_frozen);
  for (auto& [var, frozen_term] : result.var_to_frozen) {
    frozen_term = chase.Resolve(frozen_term);
  }
  result.frozen_head = std::move(frozen.frozen_head);
  for (Term& t : result.frozen_head) t = chase.Resolve(t);
  return result;
}

Tri Lemma1Verdict(const QueryChaseResult& chased,
                  const ConjunctiveQuery* targets, size_t num_targets,
                  CancelToken* cancel) {
  if (chased.failed) return Tri::kYes;  // q1 is empty on every model of Σ
  for (size_t i = 0; i < num_targets; ++i) {
    const ConjunctiveQuery& target = targets[i];
    if (target.arity() != chased.frozen_head.size()) continue;
    if (EvaluatesTo(target, chased.instance, chased.frozen_head, cancel)) {
      return Tri::kYes;  // a found homomorphism is sound even when cancelled
    }
  }
  if (cancel != nullptr && cancel->triggered()) {
    return Tri::kUnknown;  // the hom search may have been truncated
  }
  return chased.saturated ? Tri::kNo : Tri::kUnknown;
}

Tri ContainedUnder(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                   const DependencySet& sigma, const ChaseOptions& options) {
  assert(q1.arity() == q2.arity());
  return Lemma1Verdict(ChaseQuery(q1, sigma, options), &q2, 1, options.cancel);
}

Tri EquivalentUnder(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
                    const DependencySet& sigma, const ChaseOptions& options) {
  Tri forward = ContainedUnder(q1, q2, sigma, options);
  if (forward == Tri::kNo) return Tri::kNo;
  Tri backward = ContainedUnder(q2, q1, sigma, options);
  if (backward == Tri::kNo) return Tri::kNo;
  if (forward == Tri::kYes && backward == Tri::kYes) return Tri::kYes;
  return Tri::kUnknown;
}

Tri ContainedUnder(const ConjunctiveQuery& q, const UnionQuery& Q,
                   const DependencySet& sigma, const ChaseOptions& options) {
  return Lemma1Verdict(ChaseQuery(q, sigma, options), Q.disjuncts().data(),
                       Q.disjuncts().size(), options.cancel);
}

}  // namespace semacyc
