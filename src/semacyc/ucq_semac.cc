#include "semacyc/ucq_semac.h"

#include "semacyc/engine.h"

namespace semacyc {

UcqSemAcResult DecideUcqSemanticAcyclicity(const UnionQuery& Q,
                                           const DependencySet& sigma,
                                           const SemAcOptions& options) {
  // One-shot wrapper over a transient Engine.
  Engine engine(sigma, options);
  return engine.DecideUcq(Q);
}

}  // namespace semacyc
