#ifndef SEMACYC_SEMACYC_UCQ_SEMAC_H_
#define SEMACYC_SEMACYC_UCQ_SEMAC_H_

#include <optional>
#include <vector>

#include "semacyc/decider.h"

namespace semacyc {

/// Semantic acyclicity for UCQs (§8.1, Propositions 33/34): a UCQ Q is
/// semantically acyclic under Σ iff every disjunct is either redundant
/// (contained under Σ in another disjunct) or equivalent under Σ to an
/// acyclic CQ of bounded size.
struct UcqSemAcResult {
  SemAcAnswer answer = SemAcAnswer::kUnknown;
  /// When kYes: an equivalent union of acyclic CQs.
  std::optional<UnionQuery> witness;
  /// Per-disjunct diagnostics.
  struct DisjunctInfo {
    bool redundant = false;
    SemAcResult decision;  // meaningful when !redundant
  };
  std::vector<DisjunctInfo> disjuncts;
  bool exact = false;
};

/// One-shot wrapper over a transient Engine (Engine::DecideUcq).
/// options.deadline_ms bounds the whole UCQ decision, not each disjunct:
/// the redundancy pass and every kept disjunct's decision share one
/// deadline, and an aborted run reports kUnknown with exact = false.
UcqSemAcResult DecideUcqSemanticAcyclicity(const UnionQuery& Q,
                                           const DependencySet& sigma,
                                           const SemAcOptions& options = {});

}  // namespace semacyc

#endif  // SEMACYC_SEMACYC_UCQ_SEMAC_H_
