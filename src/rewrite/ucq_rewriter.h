#ifndef SEMACYC_REWRITE_UCQ_REWRITER_H_
#define SEMACYC_REWRITE_UCQ_REWRITER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chase/dependency.h"
#include "core/interrupt.h"
#include "core/query.h"

namespace semacyc {

/// Options for the backward-chaining UCQ rewriter.
struct RewriteOptions {
  /// Caps; when hit, RewriteResult::complete is false. They exist so that
  /// callers can probe sets outside the UCQ-rewritable classes without
  /// diverging; for NR and (factorized) sticky sets the caps are generous.
  size_t max_disjuncts = 20000;
  size_t max_atoms_per_disjunct = 128;
  size_t max_steps = 2000000;
  /// Enable the factorization step (required for completeness/termination
  /// on sticky sets; harmless elsewhere).
  bool factorize = true;
  /// Cooperative cancellation token polled once per worklist step
  /// (nullptr = not cancellable, the default). A fired token stops the
  /// exploration exactly like an exhausted cap: `complete` comes back
  /// false, so the rewriting is never treated as perfect.
  CancelToken* cancel = nullptr;
};

/// Result of rewriting a CQ into a UCQ (Definition 2).
struct RewriteResult {
  /// The rewriting; its first disjunct is the input query itself.
  UnionQuery ucq;
  /// True when the exploration exhausted every rewriting step within the
  /// caps; only then is the UCQ a *perfect* rewriting and usable for exact
  /// containment answers.
  bool complete = false;
  size_t steps = 0;
  /// Wall time of the rewriting build (observability).
  int64_t build_ns = 0;

  /// The paper's f_C(q,Σ): the maximal disjunct size (UCQ height).
  size_t Height() const { return ucq.Height(); }
};

/// Computes the UCQ rewriting Q of q under Σ (tgds only), XRewrite-style:
/// piece-unification backward steps plus factorization, with isomorphism
/// deduplication. For every CQ q' it then holds (Definition 2) that
/// q' ⊆Σ q iff c(x̄) ∈ Q(D_q'), provided `complete` is true.
RewriteResult RewriteToUcq(const ConjunctiveQuery& q,
                           const std::vector<Tgd>& tgds,
                           const RewriteOptions& options = {});

/// The paper's bound f_NR = f_S = p · (a·|q| + 1)^a on the height of the
/// UCQ rewriting (Propositions 17 and 19); p = #predicates in q and Σ,
/// a = max arity.
size_t PaperRewriteHeightBound(const ConjunctiveQuery& q,
                               const std::vector<Tgd>& tgds);

}  // namespace semacyc

#endif  // SEMACYC_REWRITE_UCQ_REWRITER_H_
