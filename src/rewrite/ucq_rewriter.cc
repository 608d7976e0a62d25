#include "rewrite/ucq_rewriter.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "core/canonical.h"
#include "rewrite/unify.h"

namespace semacyc {
namespace {

/// Deduplicating store of CQs modulo isomorphism.
class QueryStore {
 public:
  /// Returns true iff the query was new. Buckets by the hash-interned
  /// canonical form; collisions resolved exactly with AreIsomorphic.
  bool Add(const ConjunctiveQuery& q) {
    auto& bucket = buckets_[CanonicalFingerprint(q)];
    for (int idx : bucket) {
      if (AreIsomorphic(queries_[idx], q)) return false;
    }
    bucket.push_back(static_cast<int>(queries_.size()));
    queries_.push_back(q);
    return true;
  }

  const std::vector<ConjunctiveQuery>& queries() const { return queries_; }

 private:
  std::unordered_map<uint64_t, std::vector<int>> buckets_;
  std::vector<ConjunctiveQuery> queries_;
};

/// One backward rewriting step: tries to resolve the piece `subset` of
/// `p`'s body atoms against the head of `tgd` (already renamed apart).
/// `assignment[k]` maps subset[k] to a head atom index.
std::optional<ConjunctiveQuery> TryRewriteStep(
    const ConjunctiveQuery& p, const std::vector<int>& subset,
    const std::vector<int>& assignment, const Tgd& tgd) {
  TermUnification unify;
  for (size_t k = 0; k < subset.size(); ++k) {
    const Atom& s = p.body()[subset[k]];
    const Atom& h = tgd.head()[assignment[k]];
    if (!unify.UnifyAtoms(s, h)) return std::nullopt;
  }

  // Existential soundness conditions. For each existential variable z of
  // the tgd: every p-term in z's class must be a non-free variable of p
  // occurring only inside the piece; every tgd-term must itself be
  // existential; constants are forbidden.
  std::unordered_set<Term> free_vars;
  for (Term v : p.FreeVariables()) free_vars.insert(v);
  std::unordered_set<int> in_subset(subset.begin(), subset.end());
  std::unordered_set<Term> tgd_existential(
      tgd.existential_variables().begin(), tgd.existential_variables().end());
  std::unordered_set<Term> tgd_vars;
  for (Term v : tgd.body_variables()) tgd_vars.insert(v);
  for (const Atom& h : tgd.head()) {
    for (Term t : h.args()) {
      if (t.IsVariable()) tgd_vars.insert(t);
    }
  }

  for (Term z : tgd.existential_variables()) {
    for (Term member : unify.ClassOf(z)) {
      if (member == z) continue;
      if (member.IsConstant()) return std::nullopt;
      if (tgd_vars.count(member)) {
        // Another tgd variable: must also be existential.
        if (!tgd_existential.count(member)) return std::nullopt;
        continue;
      }
      // A p-variable: not free, and not occurring outside the piece.
      if (free_vars.count(member)) return std::nullopt;
      for (size_t i = 0; i < p.body().size(); ++i) {
        if (in_subset.count(static_cast<int>(i))) continue;
        if (p.body()[i].Mentions(member)) return std::nullopt;
      }
    }
  }

  Substitution gamma = unify.ToSubstitution();
  std::vector<Atom> new_body;
  for (size_t i = 0; i < p.body().size(); ++i) {
    if (in_subset.count(static_cast<int>(i))) continue;
    new_body.push_back(Apply(gamma, p.body()[i]));
  }
  for (const Atom& b : tgd.body()) new_body.push_back(Apply(gamma, b));
  // Deduplicate atoms.
  std::vector<Atom> dedup;
  std::unordered_set<Atom, AtomHash> seen;
  for (Atom& a : new_body) {
    if (seen.insert(a).second) dedup.push_back(std::move(a));
  }
  std::vector<Term> new_head;
  new_head.reserve(p.head().size());
  for (Term h : p.head()) new_head.push_back(Apply(gamma, h));
  return ConjunctiveQuery(std::move(new_head), std::move(dedup));
}

/// Factorization step (XRewrite): merge two body atoms that jointly unify
/// with a single tgd head atom whose existential positions stay private.
/// Sound because the factorized query maps homomorphically into the
/// original; needed for termination/completeness on sticky sets.
std::vector<ConjunctiveQuery> Factorizations(const ConjunctiveQuery& p,
                                             const std::vector<Tgd>& tgds) {
  std::vector<ConjunctiveQuery> out;
  const auto& body = p.body();
  std::unordered_set<Term> free_vars;
  for (Term v : p.FreeVariables()) free_vars.insert(v);
  for (size_t i = 0; i < body.size(); ++i) {
    for (size_t j = i + 1; j < body.size(); ++j) {
      if (body[i].predicate() != body[j].predicate()) continue;
      // The pair must be resolvable against some head atom.
      bool witnessed = false;
      for (const Tgd& tgd : tgds) {
        for (const Atom& h : tgd.head()) {
          if (h.predicate() != body[i].predicate()) continue;
          TermUnification probe;
          if (!probe.UnifyAtoms(body[i], h)) continue;
          if (!probe.UnifyAtoms(body[j], h)) continue;
          witnessed = true;
          break;
        }
        if (witnessed) break;
      }
      if (!witnessed) continue;
      TermUnification unify;
      if (!unify.UnifyAtoms(body[i], body[j])) continue;
      Substitution gamma = unify.ToSubstitution();
      // Avoid collapsing two distinct free variables (would change the
      // answer head shape unsoundly for factorization purposes).
      bool collapses_free = false;
      for (Term v : free_vars) {
        Term image = Apply(gamma, v);
        if (image != v && free_vars.count(image)) {
          collapses_free = true;
          break;
        }
      }
      if (collapses_free) continue;
      std::vector<Atom> new_body;
      std::unordered_set<Atom, AtomHash> seen;
      for (const Atom& a : body) {
        Atom mapped = Apply(gamma, a);
        if (seen.insert(mapped).second) new_body.push_back(std::move(mapped));
      }
      if (new_body.size() >= body.size()) continue;  // no merge happened
      std::vector<Term> new_head;
      for (Term h : p.head()) new_head.push_back(Apply(gamma, h));
      out.emplace_back(std::move(new_head), std::move(new_body));
    }
  }
  return out;
}

}  // namespace

RewriteResult RewriteToUcq(const ConjunctiveQuery& q,
                           const std::vector<Tgd>& tgds,
                           const RewriteOptions& options) {
  auto t0 = std::chrono::steady_clock::now();
  RewriteResult result;
  QueryStore store;
  std::deque<int> worklist;
  store.Add(q);
  worklist.push_back(0);
  bool capped = false;

  while (!worklist.empty()) {
    SEMACYC_FAILPOINT("rewrite.step", options.cancel);
    if (options.max_steps > 0 && result.steps >= options.max_steps) {
      capped = true;
      break;
    }
    if (options.cancel != nullptr && options.cancel->Poll()) {
      capped = true;  // a fired token truncates like an exhausted cap
      break;
    }
    int index = worklist.front();
    worklist.pop_front();
    // Copy: store.queries() may reallocate as we add.
    const ConjunctiveQuery p = store.queries()[index];

    auto push = [&](const ConjunctiveQuery& candidate) {
      if (candidate.size() > options.max_atoms_per_disjunct) {
        capped = true;
        return;
      }
      if (store.queries().size() >= options.max_disjuncts) {
        capped = true;
        return;
      }
      size_t before = store.queries().size();
      if (store.Add(candidate)) {
        worklist.push_back(static_cast<int>(before));
      }
    };

    // Rewriting steps against every tgd.
    for (const Tgd& original : tgds) {
      // Rename the tgd apart from p.
      Substitution rename;
      for (Term v : original.body_variables()) rename[v] = FreshVariable();
      for (Term v : original.existential_variables()) {
        rename[v] = FreshVariable();
      }
      Tgd tgd(Apply(rename, original.body()), Apply(rename, original.head()));

      // Candidate body atoms: predicate occurs in the tgd head.
      std::vector<int> candidates;
      for (size_t i = 0; i < p.body().size(); ++i) {
        for (const Atom& h : tgd.head()) {
          if (h.predicate() == p.body()[i].predicate()) {
            candidates.push_back(static_cast<int>(i));
            break;
          }
        }
      }
      if (candidates.empty()) continue;
      // Enumerate nonempty subsets of candidates (piece candidates). The
      // candidate list is small in practice; cap to 20 to bound the mask.
      const size_t n = std::min<size_t>(candidates.size(), 20);
      for (uint32_t mask = 1; mask < (1u << n); ++mask) {
        std::vector<int> subset;
        for (size_t b = 0; b < n; ++b) {
          if (mask & (1u << b)) subset.push_back(candidates[b]);
        }
        // Enumerate assignments of subset atoms to head atoms (matching
        // predicates), via mixed-radix counting.
        std::vector<std::vector<int>> choices(subset.size());
        bool feasible = true;
        for (size_t k = 0; k < subset.size(); ++k) {
          for (size_t hi = 0; hi < tgd.head().size(); ++hi) {
            if (tgd.head()[hi].predicate() ==
                p.body()[subset[k]].predicate()) {
              choices[k].push_back(static_cast<int>(hi));
            }
          }
          if (choices[k].empty()) feasible = false;
        }
        if (!feasible) continue;
        std::vector<size_t> pick(subset.size(), 0);
        while (true) {
          ++result.steps;
          std::vector<int> assignment(subset.size());
          for (size_t k = 0; k < subset.size(); ++k) {
            assignment[k] = choices[k][pick[k]];
          }
          std::optional<ConjunctiveQuery> rewritten =
              TryRewriteStep(p, subset, assignment, tgd);
          if (rewritten.has_value()) push(*rewritten);
          // Advance mixed-radix counter.
          size_t k = 0;
          while (k < pick.size()) {
            if (++pick[k] < choices[k].size()) break;
            pick[k] = 0;
            ++k;
          }
          if (k == pick.size()) break;
        }
      }
    }

    // Factorization steps.
    if (options.factorize) {
      for (ConjunctiveQuery& f : Factorizations(p, tgds)) {
        ++result.steps;
        push(f);
      }
    }
  }

  result.ucq = UnionQuery(store.queries());
  result.complete = !capped;
  result.build_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  return result;
}

size_t PaperRewriteHeightBound(const ConjunctiveQuery& q,
                               const std::vector<Tgd>& tgds) {
  std::unordered_set<uint32_t> preds;
  int max_arity = 0;
  for (const Atom& a : q.body()) {
    preds.insert(a.predicate().id());
    max_arity = std::max(max_arity, static_cast<int>(a.arity()));
  }
  for (const Tgd& t : tgds) {
    for (const Atom& a : t.body()) {
      preds.insert(a.predicate().id());
      max_arity = std::max(max_arity, static_cast<int>(a.arity()));
    }
    for (const Atom& a : t.head()) {
      preds.insert(a.predicate().id());
      max_arity = std::max(max_arity, static_cast<int>(a.arity()));
    }
  }
  double p = static_cast<double>(preds.size());
  double a = static_cast<double>(max_arity);
  double bound = p * std::pow(a * static_cast<double>(q.size()) + 1.0, a);
  return static_cast<size_t>(bound);
}

}  // namespace semacyc
