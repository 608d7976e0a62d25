#include "semacyc/ucq_semac.h"

#include "semacyc/engine.h"

namespace semacyc {

UcqSemAcResult DecideUcqSemanticAcyclicity(const UnionQuery& Q,
                                           const DependencySet& sigma,
                                           const SemAcOptions& options) {
  // One-shot wrapper: the disjuncts of Q share the transient Engine's
  // chase memo within this call.
  Engine engine(sigma, options);
  return engine.DecideUcq(Q);
}

}  // namespace semacyc
