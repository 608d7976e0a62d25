#ifndef SEMACYC_CHASE_EGD_CHASE_H_
#define SEMACYC_CHASE_EGD_CHASE_H_

#include "chase/dependency.h"
#include "core/instance.h"
#include "core/interrupt.h"

namespace semacyc {

/// Result of an egd chase (always finite, §2).
struct EgdChaseResult {
  Instance instance;
  /// True iff a merge of two distinct genuine constants was demanded.
  bool failed = false;
  /// True iff at least one merge happened.
  bool changed = false;
  /// True iff cancellation stopped the run before the fixpoint: the
  /// instance may still hold unrepaired violations and must not be
  /// treated as egd-satisfying.
  bool truncated = false;
  size_t merges = 0;
};

/// Runs the egd chase to fixpoint. Merging rules (§2): constant beats null
/// (the null is replaced everywhere); null-null merges keep the first term;
/// constant-constant conflicts fail the chase.
///
/// Frozen-query chases freeze variables to *nulls*, which realizes the
/// paper's "special constants that are treated as nulls" device.
///
/// `term_map`, when non-null, accumulates the merges: after the call,
/// resolving any prior term through the map yields its representative.
/// `cancel` (nullptr = not cancellable) is polled per repaired violation
/// and inside the violation search; a fired token returns early with
/// `truncated` set. `start` is taken by value and chased in place: move an
/// instance in to chase it without a copy. Each violation search stops at
/// its first violating match.
EgdChaseResult ChaseEgds(Instance start, const std::vector<Egd>& egds,
                         Substitution* term_map = nullptr,
                         CancelToken* cancel = nullptr);

}  // namespace semacyc

#endif  // SEMACYC_CHASE_EGD_CHASE_H_
