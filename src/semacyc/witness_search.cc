#include "semacyc/witness_search.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <unordered_set>

#include "acyclic/incremental.h"
#include "core/canonical.h"
#include "core/containment.h"
#include "core/homomorphism.h"
#include "core/incremental_hom.h"
#include "core/hypergraph.h"
#include "deps/classify.h"
#include "deps/nonrecursive.h"
#include "deps/weakly_acyclic.h"
#include "rewrite/rewrite_containment.h"

namespace semacyc {

SchemaFacts SchemaFacts::Compute(const DependencySet& sigma) {
  return Compute(sigma, sigma.HasTgds() ? Classify(sigma.tgds)
                                        : TgdClassification{});
}

SchemaFacts SchemaFacts::Compute(const DependencySet& sigma,
                                 const TgdClassification& tgd_classes) {
  SchemaFacts facts;
  // Static guarantees for the chase-based path: egd-only chases always
  // terminate; weakly acyclic tgd sets (which subsume NR and all full
  // sets) guarantee tgd-chase termination.
  if (!sigma.HasTgds()) {
    facts.chase_exact = true;
  } else if (!sigma.HasEgds() && IsWeaklyAcyclic(sigma.tgds)) {
    facts.chase_exact = true;
  }
  if (sigma.HasTgds()) {
    const TgdClassification& cls = tgd_classes;
    facts.rewritable = cls.non_recursive || cls.sticky || cls.linear;
    facts.guarded = cls.guarded;
    facts.nr_or_sticky = cls.non_recursive || cls.sticky;
  }
  // Vacuously true on an egd-free set, matching SmallQueryBound's
  // egd-only branch for Σ = ∅.
  facts.egds_bounded = IsK2Set(sigma.egds) || IsUnaryFdSet(sigma.egds);
  for (const Tgd& t : sigma.tgds) {
    for (const Atom& h : t.head()) {
      facts.tgd_head_preds.insert(h.predicate().id());
      for (const Atom& b : t.body()) {
        facts.reverse_pred_edges[h.predicate().id()].push_back(
            b.predicate().id());
      }
    }
  }
  return facts;
}

ContainmentOracle::ContainmentOracle(const ConjunctiveQuery& q,
                                     const DependencySet& sigma,
                                     const ChaseOptions& chase_options,
                                     const RewriteOptions& rewrite_options,
                                     bool try_rewriting)
    : ContainmentOracle(q, sigma, chase_options, rewrite_options,
                        SchemaFacts::Compute(sigma), /*rewrite_cache=*/nullptr,
                        try_rewriting, /*synchronized=*/false) {}

ContainmentOracle::ContainmentOracle(const ConjunctiveQuery& q,
                                     const DependencySet& sigma,
                                     const ChaseOptions& chase_options,
                                     const RewriteOptions& rewrite_options,
                                     const SchemaFacts& facts,
                                     RewriteCache* rewrite_cache,
                                     bool try_rewriting, bool synchronized)
    : q_(q),
      sigma_(sigma),
      chase_options_(chase_options),
      synchronized_(synchronized) {
  exact_ = facts.chase_exact;
  // Rewriting is only worth its (possibly exponential) construction cost
  // when the chase may diverge — i.e. outside the weakly acyclic classes.
  if (try_rewriting && !exact_ && !sigma.HasEgds() && facts.rewritable) {
    std::shared_ptr<const RewriteResult> rewriting =
        rewrite_cache != nullptr
            ? rewrite_cache->GetOrCompute(q, sigma.tgds, rewrite_options)
            : std::make_shared<const RewriteResult>(
                  RewriteToUcq(q, sigma.tgds, rewrite_options));
    if (rewriting->complete) {
      rewriting_ = std::move(rewriting);
      exact_ = true;
    }
  }
  // Predicate-reachability prefilter. Sound for kNo only when the
  // candidate's chase cannot fail, i.e. Σ has no egds: tgds never invent
  // predicates outside the body→head predicate graph, so a q predicate
  // unreachable from every candidate predicate can never appear in
  // chase(candidate, Σ).
  if (!sigma.HasEgds()) {
    // Chase-free degeneration: tgds only ever add atoms whose predicate is
    // some tgd head predicate. If none of those occur in q, the
    // q-homomorphism into chase(candidate, Σ) can only use candidate's own
    // atoms, so containment is the classical Chandra–Merlin test.
    chase_free_ = true;
    for (const Atom& a : q.body()) {
      if (facts.tgd_head_preds.count(a.predicate().id())) {
        chase_free_ = false;
        break;
      }
    }
    if (chase_free_) {
      // Compile q once for the per-candidate check: dense variable
      // indices, and a greedy connected atom order (most already-bound
      // variables first, head variables counting as pre-bound) so the
      // backtracking stays anchored.
      std::unordered_map<Term, int, TermHash> vidx;
      for (const Atom& a : q.body()) {
        for (Term t : a.args()) {
          if (t.IsVariable()) {
            vidx.emplace(t, static_cast<int>(vidx.size()));
          }
        }
      }
      cm_num_vars_ = vidx.size();
      for (Term h : q.head()) {
        cm_head_var_.push_back(h.IsVariable() ? vidx.at(h) : -1);
      }
      std::vector<char> seen(cm_num_vars_, 0);
      for (Term h : q.head()) {
        if (h.IsVariable()) seen[static_cast<size_t>(vidx.at(h))] = 1;
      }
      std::vector<bool> used(q.body().size(), false);
      for (size_t step = 0; step < q.body().size(); ++step) {
        size_t best = q.body().size();
        int best_score = -1;
        for (size_t i = 0; i < q.body().size(); ++i) {
          if (used[i]) continue;
          int score = 0;
          for (Term t : q.body()[i].args()) {
            if (!t.IsVariable() || seen[static_cast<size_t>(vidx.at(t))]) {
              ++score;
            }
          }
          if (score > best_score) {
            best_score = score;
            best = i;
          }
        }
        used[best] = true;
        const Atom& a = q.body()[best];
        CmAtom ca;
        ca.pred = a.predicate();
        for (Term t : a.args()) {
          if (t.IsVariable()) {
            int v = vidx.at(t);
            ca.var_at.push_back(v);
            ca.const_at.push_back(Term());
            seen[static_cast<size_t>(v)] = 1;
          } else {
            ca.var_at.push_back(-1);
            ca.const_at.push_back(t);
          }
        }
        cm_atoms_.push_back(std::move(ca));
      }
    }
    prefilter_ = true;
    std::unordered_set<uint32_t> q_preds;
    for (const Atom& a : q.body()) q_preds.insert(a.predicate().id());
    for (uint32_t p : q_preds) {
      std::unordered_set<uint32_t> sources;
      std::vector<uint32_t> stack = {p};
      sources.insert(p);
      while (!stack.empty()) {
        uint32_t cur = stack.back();
        stack.pop_back();
        auto it = facts.reverse_pred_edges.find(cur);
        if (it == facts.reverse_pred_edges.end()) continue;
        for (uint32_t src : it->second) {
          if (sources.insert(src).second) stack.push_back(src);
        }
      }
      q_pred_sources_.push_back(std::move(sources));
    }
  }
}

bool ContainmentOracle::PassesPredicateFilter(
    const ConjunctiveQuery& candidate) const {
  for (const auto& sources : q_pred_sources_) {
    bool reachable = false;
    for (const Atom& a : candidate.body()) {
      if (sources.count(a.predicate().id())) {
        reachable = true;
        break;
      }
    }
    if (!reachable) return false;
  }
  return true;
}

Tri ContainmentOracle::Decide(const ConjunctiveQuery& candidate,
                              CancelToken* cancel) const {
  if (rewriting_ != nullptr) {
    // Rewriting evaluation is one frozen-query UCQ check — cheap relative
    // to the per-candidate poll granularity, so it runs to completion.
    return RewriteContained(candidate, *rewriting_);
  }
  ChaseOptions options = chase_options_;
  options.cancel = cancel;
  return ContainedUnder(candidate, q_, sigma_, options);
}

Tri ContainmentOracle::DecideChaseFree(
    const ConjunctiveQuery& candidate) const {
  // Chandra–Merlin against the candidate body itself: its variables act as
  // the frozen canonical constants (rigid instance terms), no freezing or
  // chase needed. Exact in both directions. Runs the q-side compiled at
  // construction (cm_atoms_) over a dense binding array — this is the
  // per-candidate inner loop of exhaustive witness search, so it must not
  // allocate or hash. Scratch is thread_local (retaining capacity across
  // calls) so concurrent workers of a parallel search never contend: the
  // compiled q-side they read is immutable.
  thread_local std::vector<Term> binding;
  thread_local std::vector<int> undo;
  binding.assign(cm_num_vars_, Term());
  for (size_t i = 0; i < q_.head().size(); ++i) {
    Term c = candidate.head()[i];
    int v = cm_head_var_[i];
    if (v < 0) {
      if (q_.head()[i] != c) return Tri::kNo;
      continue;
    }
    Term& bound = binding[static_cast<size_t>(v)];
    if (bound.IsValid()) {
      if (bound != c) return Tri::kNo;
    } else {
      bound = c;
    }
  }
  undo.clear();
  return CmDfs(candidate.body(), 0, binding, undo) ? Tri::kYes : Tri::kNo;
}

bool ContainmentOracle::CmDfs(const std::vector<Atom>& target_atoms,
                              size_t depth, std::vector<Term>& binding,
                              std::vector<int>& undo) const {
  if (depth == cm_atoms_.size()) return true;
  const CmAtom& a = cm_atoms_[depth];
  for (const Atom& t : target_atoms) {
    if (t.predicate() != a.pred) continue;
    size_t undo_mark = undo.size();
    bool ok = true;
    for (size_t i = 0; i < a.var_at.size() && ok; ++i) {
      int v = a.var_at[i];
      if (v < 0) {
        ok = a.const_at[i] == t.arg(i);
        continue;
      }
      Term& bound = binding[static_cast<size_t>(v)];
      if (bound.IsValid()) {
        ok = bound == t.arg(i);
        continue;
      }
      bound = t.arg(i);
      undo.push_back(v);
    }
    if (ok && CmDfs(target_atoms, depth + 1, binding, undo)) return true;
    while (undo.size() > undo_mark) {
      binding[static_cast<size_t>(undo.back())] = Term();
      undo.pop_back();
    }
  }
  return false;
}

Tri ContainmentOracle::ContainedInQ(const ConjunctiveQuery& candidate,
                                    CancelToken* cancel) const {
  SEMACYC_FAILPOINT("oracle.candidate", cancel);
  if (cancel != nullptr && cancel->Poll()) return Tri::kUnknown;
  // Everything up to the memo reads only state frozen at construction
  // (plus relaxed counter bumps), so synchronized oracles run these
  // paths — the per-candidate inner loops of the parallel strategies —
  // without touching the lock.
  if (prefilter_ && !PassesPredicateFilter(candidate)) {
    prefiltered_.fetch_add(1, std::memory_order_relaxed);
    return Tri::kNo;
  }
  // Chase-free candidates decide in one homomorphism test — cheaper than
  // the memo's own bookkeeping, so skip the cache entirely.
  if (chase_free_) return DecideChaseFree(candidate);
  if (!synchronized_) return ContainedInQMemo(candidate, cancel);
  std::lock_guard<std::mutex> lock(mu_);
  return ContainedInQMemo(candidate, cancel);
}

size_t ContainmentOracle::cache_hits() const {
  return hits_.load(std::memory_order_relaxed);
}

size_t ContainmentOracle::cache_misses() const {
  return misses_.load(std::memory_order_relaxed);
}

size_t ContainmentOracle::prefiltered() const {
  return prefiltered_.load(std::memory_order_relaxed);
}

size_t ContainmentOracle::memo_bytes() const {
  return memo_bytes_.load(std::memory_order_relaxed);
}

Tri ContainmentOracle::ContainedInQMemo(const ConjunctiveQuery& candidate,
                                        CancelToken* cancel) const {
  // Sound across isomorphism: candidate ⊆Σ q is invariant under bijective
  // variable renamings that preserve the head position-wise — exactly what
  // AreIsomorphic certifies after the fingerprint pre-filter.
  auto& bucket = memo_[CanonicalFingerprint(candidate)];
  for (const auto& [cached, answer] : bucket) {
    if (AreIsomorphic(cached, candidate)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return answer;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  Tri answer = Decide(candidate, cancel);
  // An answer computed under a fired token may rest on a truncated chase
  // or hom search: never memoize it, so a later uncancelled call (or the
  // post-abort parity re-decide) recomputes it exactly.
  if (cancel != nullptr && cancel->triggered()) return Tri::kUnknown;
  // Running memo footprint for honest cache accounting: the candidate
  // copy plus pair/bucket bookkeeping (an empty bucket also costs a map
  // node, folded into the per-entry constant).
  memo_bytes_.fetch_add(candidate.ApproxBytes() +
                            sizeof(std::pair<ConjunctiveQuery, Tri>) +
                            4 * sizeof(void*),
                        std::memory_order_relaxed);
  bucket.push_back({candidate, answer});
  return answer;
}

namespace {

/// Distinct terms that every candidate sub-instance must mention so the
/// head is expressible.
std::vector<Term> RequiredHeadTerms(const QueryChaseResult& chase) {
  std::vector<Term> out;
  for (Term t : chase.frozen_head) {
    if (t.IsConstant() && !t.IsFrozenNull()) continue;  // genuine constant
    if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
  }
  return out;
}

/// Read-only view of the subsets search space, precomputed once per
/// search: connecting vertices per chase atom (one vertex numbering for
/// every classifier session) and the required head terms each atom
/// covers. Nothing here mutates after construction, so parallel workers
/// share it.
struct SubsetsSpace {
  const std::vector<Atom>* atoms;
  std::vector<Term> required;
  std::vector<std::vector<int>> atom_verts;
  std::vector<std::vector<size_t>> atom_required;

  explicit SubsetsSpace(const QueryChaseResult& chase)
      : atoms(&chase.instance.atoms()), required(RequiredHeadTerms(chase)) {
    const size_t m = atoms->size();
    atom_verts.resize(m);
    atom_required.resize(m);
    std::unordered_map<Term, int, TermHash> vertex_of;
    for (size_t i = 0; i < m; ++i) {
      // kAllTerms: in a frozen-query chase every term connects.
      for (Term t : (*atoms)[i].DistinctTerms()) {
        atom_verts[i].push_back(
            vertex_of.emplace(t, static_cast<int>(vertex_of.size()))
                .first->second);
      }
      for (size_t k = 0; k < required.size(); ++k) {
        if ((*atoms)[i].Mentions(required[k])) atom_required[i].push_back(k);
      }
    }
  }
};

/// Inverse freezing of a chase subset over a stable variable pool: fresh
/// per-candidate names would intern a new symbol for every variable of
/// every candidate; reusing "s$<i>" across candidates interns each name
/// exactly once per process, and the sequential and parallel searches
/// build bitwise-identical candidates for the same subset.
ConjunctiveQuery PooledQuery(const SubsetsSpace& space,
                             const std::vector<uint32_t>& subset,
                             const std::vector<Term>& frozen_head,
                             std::vector<Term>* var_pool) {
  Substitution rename;
  size_t next_var = 0;
  auto var_of = [&](Term t) -> Term {
    if (t.IsConstant() && !t.IsFrozenNull()) return t;  // real constant
    auto it = rename.find(t);
    if (it != rename.end()) return it->second;
    if (next_var == var_pool->size()) {
      var_pool->push_back(
          Term::Variable("s$" + std::to_string(var_pool->size())));
    }
    Term v = (*var_pool)[next_var++];
    rename.emplace(t, v);
    return v;
  };
  std::vector<Atom> body;
  body.reserve(subset.size());
  for (uint32_t i : subset) {
    const Atom& a = (*space.atoms)[i];
    std::vector<Term> args;
    args.reserve(a.arity());
    for (Term t : a.args()) args.push_back(var_of(t));
    body.emplace_back(a.predicate(), std::move(args));
  }
  std::vector<Term> head;
  head.reserve(frozen_head.size());
  for (Term t : frozen_head) head.push_back(var_of(t));
  return ConjunctiveQuery(std::move(head), std::move(body));
}

/// Enumeration signature of the exhaustive strategy: the predicates that
/// can occur in chase(q,Σ), the constants available to candidates, and
/// the ordered fresh-variable pool with its index. The construction
/// ORDER of these vectors fixes the enumeration order — the sequential
/// enumerator and the parallel unit plan must agree on it exactly (the
/// parity suite pins this), hence the single shared builder.
struct EnumSignature {
  std::vector<Predicate> predicates;
  std::vector<Term> constants;
  std::vector<Term> pool;
  std::unordered_map<Term, size_t, TermHash> pool_index;

  EnumSignature(const ConjunctiveQuery& q, const DependencySet& sigma,
                size_t max_atoms) {
    // Predicates of q plus head predicates of Σ's tgds (only those can
    // occur in chase(q,Σ), hence in any witness); first-seen order.
    std::unordered_set<uint32_t> seen;
    for (const Atom& a : q.body()) {
      if (seen.insert(a.predicate().id()).second) {
        predicates.push_back(a.predicate());
      }
    }
    for (const Tgd& t : sigma.tgds) {
      for (const Atom& a : t.head()) {
        if (seen.insert(a.predicate().id()).second) {
          predicates.push_back(a.predicate());
        }
      }
    }
    // Constants available to candidates: those of q and Σ.
    std::unordered_set<Term> cseen;
    for (const Atom& a : q.body()) {
      for (Term t : a.args()) {
        if (t.IsConstant() && cseen.insert(t).second) constants.push_back(t);
      }
    }
    for (const Tgd& t : sigma.tgds) {
      for (const Atom& a : t.body()) {
        for (Term arg : a.args()) {
          if (arg.IsConstant() && cseen.insert(arg).second) {
            constants.push_back(arg);
          }
        }
      }
      for (const Atom& a : t.head()) {
        for (Term arg : a.args()) {
          if (arg.IsConstant() && cseen.insert(arg).second) {
            constants.push_back(arg);
          }
        }
      }
    }
    int max_arity = 1;
    for (Predicate p : predicates) {
      max_arity = std::max(max_arity, p.arity());
    }
    // Variable pool: enough for max_atoms atoms of maximal arity.
    size_t n = max_atoms * static_cast<size_t>(max_arity);
    for (size_t i = 0; i < n; ++i) {
      pool.push_back(Term::Variable("w$" + std::to_string(i)));
      pool_index.emplace(pool.back(), i);
    }
  }
};

using Key128 = std::pair<uint64_t, uint64_t>;
struct Key128Hash {
  size_t operator()(const Key128& k) const {
    return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ull));
  }
};

/// Candidate dedup modulo the renaming-invariant key: a 128-bit salted
/// fingerprint pair of the canonical invariant (conflations are never
/// resolved) — the conflation probability a dropped candidate rides on is
/// ~n²/2¹²⁸, negligible against every other failure mode.
class CandidateDedup {
 public:
  /// True iff the candidate was not seen before.
  bool Insert(const ConjunctiveQuery& q) {
    return keys_.insert(CanonicalFingerprint128(q)).second;
  }

 private:
  std::unordered_set<Key128, Key128Hash> keys_;
};

/// One candidate test inside a parallel unit, recorded at per-unit dedup
/// insert time (even when the shared NO-set suppressed the oracle call).
/// The commit-time replay walks these in unit order through one global
/// dedup set, reconstructing the sequential candidates_tested exactly.
struct CandidateEvent {
  uint64_t local_visit;
  Key128 key;
};

/// Sequential-equivalent candidates_tested from per-unit test events:
/// committed units count in full, the final unit up to its cutoff
/// (found_at for a win, the unit's allowance for a truncation); a global
/// dedup replay makes per-unit re-tests of earlier-seen candidates count
/// exactly once, like the sequential global dedup.
size_t ReplayCandidatesTested(
    const ParallelSearchPool::Result& res,
    const std::vector<std::vector<CandidateEvent>>& unit_events) {
  std::unordered_set<Key128, Key128Hash> seen;
  size_t tested = 0;
  auto count_unit = [&](size_t u, uint64_t cutoff) {
    for (const CandidateEvent& e : unit_events[u]) {
      if (e.local_visit > cutoff) break;  // events ascend in local visit
      if (seen.insert(e.key).second) ++tested;
    }
  };
  for (size_t u = 0; u < res.committed_units; ++u) {
    count_unit(u, ~uint64_t{0});
  }
  if (res.final_unit != ParallelSearchPool::Result::kNoUnit) {
    count_unit(res.final_unit, res.final_unit_cutoff);
  }
  return tested;
}

}  // namespace

WitnessSearchOutcome FindWitnessInQueryImages(const ConjunctiveQuery& q,
                                              const QueryChaseResult& chase,
                                              const ContainmentOracle& oracle,
                                              size_t max_homs,
                                              acyclic::AcyclicityClass target,
                                              CancelToken* cancel) {
  WitnessSearchOutcome outcome;
  Substitution fixed;
  for (size_t i = 0; i < q.head().size(); ++i) {
    Term h = q.head()[i];
    if (!h.IsVariable()) continue;
    fixed.emplace(h, chase.frozen_head[i]);
  }
  HomOptions options;
  options.fixed = fixed;
  options.max_solutions = max_homs;
  options.cancel = cancel;
  HomResult homs = FindHomomorphisms(q.body(), chase.instance, options);
  outcome.exhausted = !homs.budget_exhausted &&
                      (max_homs == 0 || homs.solutions.size() < max_homs);
  CandidateDedup tested;
  for (const Substitution& h : homs.solutions) {
    if (cancel != nullptr && cancel->Poll()) {
      outcome.exhausted = false;
      return outcome;
    }
    Instance image;
    for (const Atom& a : q.body()) image.Insert(Apply(h, a));
    if (!MeetsAcyclicityClass(image.atoms(), ConnectingTerms::kAllTerms,
                              target)) {
      continue;
    }
    ConjunctiveQuery candidate = QueryFromInstance(image, chase.frozen_head);
    if (!tested.Insert(candidate)) continue;
    ++outcome.candidates_tested;
    if (oracle.ContainedInQ(candidate, cancel) == Tri::kYes) {
      outcome.answer = Tri::kYes;
      outcome.witness = std::move(candidate);
      return outcome;
    }
  }
  if (cancel != nullptr && cancel->triggered()) outcome.exhausted = false;
  return outcome;
}

WitnessSearchOutcome FindWitnessInChaseSubsets(const ConjunctiveQuery& q,
                                               const QueryChaseResult& chase,
                                               const ContainmentOracle& oracle,
                                               size_t max_atoms, size_t budget,
                                               acyclic::AcyclicityClass target,
                                               CancelToken* cancel) {
  (void)q;  // the chase already encodes q; kept for interface symmetry
  WitnessSearchOutcome outcome;
  // A push/pop classifier threaded along the DFS path and required-term
  // coverage maintained by counters, so a DFS node costs a
  // component-local re-check instead of an Instance build plus a
  // from-scratch hypergraph classification.
  const SubsetsSpace space(chase);
  const size_t m = space.atoms->size();
  CandidateDedup tested;
  size_t visits = 0;
  bool truncated = false;
  acyclic::IncrementalClassifier inc(target);
  std::vector<int> req_cover(space.required.size(), 0);
  size_t covered = 0;
  std::vector<Term> var_pool;
  std::vector<uint32_t> subset;

  auto test_candidate = [&](ConjunctiveQuery candidate) -> bool {
    if (!tested.Insert(candidate)) return false;
    ++outcome.candidates_tested;
    if (oracle.ContainedInQ(candidate, cancel) == Tri::kYes) {
      outcome.answer = Tri::kYes;
      outcome.witness = std::move(candidate);
      return true;
    }
    return false;
  };

  // DFS over index-increasing subsets, testing each acyclic subset that
  // covers the required terms. Small subsets are explored first through
  // iterative deepening on the subset size.
  std::function<bool(size_t, size_t)> dfs = [&](size_t next,
                                                size_t limit) -> bool {
    SEMACYC_FAILPOINT("subsets.visit", cancel);
    if (++visits > budget) {
      truncated = true;
      return false;
    }
    if (cancel != nullptr && cancel->Poll()) {
      truncated = true;  // a fired token truncates like an exhausted budget
      return false;
    }
    if (!subset.empty() && covered == space.required.size() && inc.Meets() &&
        test_candidate(
            PooledQuery(space, subset, chase.frozen_head, &var_pool))) {
      return true;
    }
    if (subset.size() >= limit) return false;
    for (size_t i = next; i < m; ++i) {
      subset.push_back(static_cast<uint32_t>(i));
      for (size_t k : space.atom_required[i]) {
        if (req_cover[k]++ == 0) ++covered;
      }
      inc.PushEdge(space.atom_verts[i]);
      // β/γ/Berge are hereditary: a violated prefix can never recover, so
      // the whole subtree (including this subset itself) is dead.
      bool found = !inc.CannotRecover() && dfs(i + 1, limit);
      inc.PopEdge();
      for (size_t k : space.atom_required[i]) {
        if (--req_cover[k] == 0) --covered;
      }
      subset.pop_back();
      if (found) return true;
      if (truncated) return false;
    }
    return false;
  };

  bool found = false;
  for (size_t limit = 1; limit <= max_atoms && !truncated; ++limit) {
    subset.clear();
    if (dfs(0, limit)) {
      found = true;
      break;
    }
  }
  // A token fired during the last oracle check truncates the search even
  // when no later DFS poll ran to observe it.
  if (cancel != nullptr && cancel->triggered()) truncated = true;
  if (!found) outcome.exhausted = !truncated;
  outcome.visits = visits;
  outcome.classifier_pushes = inc.pushes();
  outcome.classifier_pops = inc.pops();
  return outcome;
}

namespace {

/// One subtree-root unit of the subsets DFS, in sequential visit order:
/// the root visit of an iterative-deepening round (first < 0), or the
/// dfs subtree rooted at subset = {first} within that round.
struct SubsetsUnit {
  size_t limit;
  int64_t first;
};

/// Per-worker subsets search state: own classifier session, own coverage
/// counters, own child cancel token, own variable pool — sharing only the
/// immutable SubsetsSpace, the synchronized oracle, and the NO-only
/// fingerprint set. Failpoints take the PARENT token (RequestCancel is
/// thread-safe; a fired steal/replay/visit failpoint aborts the whole
/// decision, like the sequential strategies); per-visit polls use the
/// child (CancelToken::Poll is single-caller).
class SubsetsWorker {
 public:
  SubsetsWorker(const SubsetsSpace& space, const QueryChaseResult& chase,
                const ContainmentOracle& oracle,
                acyclic::AcyclicityClass target, CancelToken* parent,
                ConcurrentFingerprintSet* shared_no)
      : space_(space),
        chase_(chase),
        oracle_(oracle),
        parent_(parent),
        shared_no_(shared_no),
        inc_(target),
        req_cover_(space.required.size(), 0) {
    if (parent != nullptr) child_.SetParent(parent);
  }

  SearchUnitOutcome RunUnit(const SubsetsUnit& u,
                            ParallelSearchPool::WorkerContext& ctx,
                            std::vector<CandidateEvent>* events,
                            std::optional<ConjunctiveQuery>* witness_slot) {
    ctx_ = &ctx;
    events_ = events;
    witness_slot_ = witness_slot;
    visits_ = 0;
    truncated_ = false;
    found_ = false;
    found_at_ = 0;
    unit_seen_.clear();
    SEMACYC_FAILPOINT("parallel.steal", parent_);
    if (u.first < 0) {
      // The round's root visit: subset is empty, nothing is tested.
      Visit();
    } else {
      // Replay the stolen prefix: push the first atom into the fresh
      // session exactly as the sequential child loop would, pruned
      // prefixes yielding zero-visit exhausted units.
      SEMACYC_FAILPOINT("parallel.replay", parent_);
      ctx.NoteReplay();
      const size_t i = static_cast<size_t>(u.first);
      subset_.push_back(static_cast<uint32_t>(i));
      for (size_t k : space_.atom_required[i]) {
        if (req_cover_[k]++ == 0) ++covered_;
      }
      inc_.PushEdge(space_.atom_verts[i]);
      if (!inc_.CannotRecover()) Dfs(i + 1, u.limit);
      inc_.PopEdge();
      for (size_t k : space_.atom_required[i]) {
        if (--req_cover_[k] == 0) --covered_;
      }
      subset_.pop_back();
    }
    // A token fired during the unit's last oracle check may have hidden
    // an answer (kUnknown reads as "not contained"); never let such a
    // unit count as exhausted — mirrors the sequential post-run check.
    if (child_.triggered()) truncated_ = true;
    SearchUnitOutcome out;
    out.visits = visits_;
    out.found = found_;
    out.found_at = found_at_;
    out.exhausted = !found_ && !truncated_;
    return out;
  }

  size_t classifier_pushes() const { return inc_.pushes(); }
  size_t classifier_pops() const { return inc_.pops(); }

 private:
  /// One DFS node: failpoint, allowance cap, visit count, cancel poll —
  /// the sequential visit prefix with Cap() standing in for the budget.
  /// False stops the unit (cap or cancel → not exhausted).
  bool Visit() {
    SEMACYC_FAILPOINT("subsets.visit", parent_);
    if (visits_ >= ctx_->Cap()) {
      truncated_ = true;
      return false;
    }
    ++visits_;
    if (child_.Poll()) {
      truncated_ = true;
      return false;
    }
    return true;
  }

  bool Dfs(size_t next, size_t limit) {
    if (!Visit()) return false;
    if (!subset_.empty() && covered_ == space_.required.size() &&
        inc_.Meets() && TestSubset()) {
      return true;
    }
    if (subset_.size() >= limit) return false;
    const size_t m = space_.atoms->size();
    for (size_t i = next; i < m; ++i) {
      subset_.push_back(static_cast<uint32_t>(i));
      for (size_t k : space_.atom_required[i]) {
        if (req_cover_[k]++ == 0) ++covered_;
      }
      inc_.PushEdge(space_.atom_verts[i]);
      bool found = !inc_.CannotRecover() && Dfs(i + 1, limit);
      inc_.PopEdge();
      for (size_t k : space_.atom_required[i]) {
        if (--req_cover_[k] == 0) --covered_;
      }
      subset_.pop_back();
      if (found) return true;
      if (truncated_) return false;
    }
    return false;
  }

  bool TestSubset() {
    // Per-worker variable pool: the "s$<i>" names intern to the same
    // process-wide Terms, so the published witness is bitwise-identical
    // to the sequential one.
    ConjunctiveQuery candidate =
        PooledQuery(space_, subset_, chase_.frozen_head, &var_pool_);
    Key128 key = CanonicalFingerprint128(candidate);
    // Per-unit dedup decides event recording; the shared NO-set only
    // suppresses the oracle CALL for already-refuted candidates (answers
    // are invariant — kYes stops the search, kUnknown is never inserted).
    if (!unit_seen_.insert(key).second) return false;
    events_->push_back({visits_, key});
    if (shared_no_->Contains(key)) return false;
    Tri r = oracle_.ContainedInQ(candidate, &child_);
    if (r == Tri::kYes) {
      found_ = true;
      found_at_ = visits_;
      *witness_slot_ = std::move(candidate);
      return true;
    }
    if (r == Tri::kNo) shared_no_->Insert(key);
    return false;
  }

  const SubsetsSpace& space_;
  const QueryChaseResult& chase_;
  const ContainmentOracle& oracle_;
  CancelToken* parent_;
  ConcurrentFingerprintSet* shared_no_;
  CancelToken child_;
  acyclic::IncrementalClassifier inc_;
  std::vector<int> req_cover_;
  size_t covered_ = 0;
  std::vector<uint32_t> subset_;
  std::vector<Term> var_pool_;
  std::unordered_set<Key128, Key128Hash> unit_seen_;
  ParallelSearchPool::WorkerContext* ctx_ = nullptr;
  std::vector<CandidateEvent>* events_ = nullptr;
  std::optional<ConjunctiveQuery>* witness_slot_ = nullptr;
  uint64_t visits_ = 0;
  bool truncated_ = false;
  bool found_ = false;
  uint64_t found_at_ = 0;
};

}  // namespace

WitnessSearchOutcome ParallelFindWitnessInChaseSubsets(
    const ConjunctiveQuery& q, const QueryChaseResult& chase,
    const ContainmentOracle& oracle, size_t max_atoms, size_t budget,
    size_t threads, acyclic::AcyclicityClass target, CancelToken* cancel) {
  if (threads <= 1) {
    return FindWitnessInChaseSubsets(q, chase, oracle, max_atoms, budget,
                                     target, cancel);
  }
  (void)q;  // the chase already encodes q; kept for interface symmetry
  WitnessSearchOutcome outcome;
  const SubsetsSpace space(chase);
  const size_t m = space.atoms->size();
  // Ordered unit list = the sequential visit order: per deepening round,
  // the root visit, then one subtree per first chase atom.
  std::vector<SubsetsUnit> units;
  for (size_t limit = 1; limit <= max_atoms; ++limit) {
    units.push_back({limit, -1});
    for (size_t i = 0; i < m; ++i) {
      units.push_back({limit, static_cast<int64_t>(i)});
    }
  }
  ConcurrentFingerprintSet shared_no;
  std::vector<std::vector<CandidateEvent>> unit_events(units.size());
  std::vector<std::optional<ConjunctiveQuery>> unit_witness(units.size());
  ParallelSearchPool pool(units.size(), threads, budget);
  std::vector<std::unique_ptr<SubsetsWorker>> workers(pool.workers());
  ParallelSearchPool::Result res =
      pool.Run([&](size_t u, ParallelSearchPool::WorkerContext& ctx) {
        std::unique_ptr<SubsetsWorker>& w = workers[ctx.worker()];
        if (w == nullptr) {
          w = std::make_unique<SubsetsWorker>(space, chase, oracle, target,
                                              cancel, &shared_no);
        }
        return w->RunUnit(units[u], ctx, &unit_events[u], &unit_witness[u]);
      });
  bool truncated = res.truncated;
  // A token fired during the last oracle check truncates the search even
  // when no later DFS poll ran to observe it.
  if (cancel != nullptr && cancel->triggered()) truncated = true;
  if (res.found) {
    outcome.answer = Tri::kYes;
    outcome.witness = std::move(unit_witness[res.final_unit]);
  } else {
    outcome.exhausted = !truncated;
  }
  outcome.visits = res.official_visits;
  outcome.candidates_tested = ReplayCandidatesTested(res, unit_events);
  for (const auto& w : workers) {
    if (w == nullptr) continue;
    outcome.classifier_pushes += w->classifier_pushes();
    outcome.classifier_pops += w->classifier_pops();
  }
  outcome.parallel = pool.stats();
  return outcome;
}

namespace {

/// Fixed total order on atoms for canonical-growth enumeration: predicate
/// id, then argument handles lexicographically.
bool AtomOrderLess(const Atom& a, const Atom& b) {
  if (a.predicate() != b.predicate()) {
    return a.predicate().id() < b.predicate().id();
  }
  for (size_t i = 0; i < a.arity() && i < b.arity(); ++i) {
    if (a.arg(i) != b.arg(i)) {
      return a.arg(i).raw_bits() < b.arg(i).raw_bits();
    }
  }
  return a.arity() < b.arity();
}

/// Per-head-pattern invariants of the exhaustive enumeration,
/// precomputed by the parallel plan in the sequential pattern order.
struct HpPlan {
  std::vector<Term> head;
  Substitution fixed;
  std::vector<Term> choices;
};

enum class ExhUnitKind {
  kWholeHp,    // root Search() with empty prefix (coarse fallback)
  kRootVisit,  // the root visit alone (tests nothing: atoms_ is empty)
  kA1Visit,    // the [a1] node alone: one visit + one candidate test
  kA1Subtree,  // full subtree rooted at [a1] (coarse fallback)
  kA2Subtree,  // full subtree rooted at [a1, a2]
};

struct ExhUnit {
  uint32_t hp;
  ExhUnitKind kind;
  std::optional<Atom> a1;
  std::optional<Atom> a2;
};

struct ExhaustivePlan {
  std::vector<HpPlan> hps;
  std::vector<ExhUnit> units;
};

/// Builds the ordered unit plan combinatorially, without running any
/// search or session: head patterns in restricted-growth order; per
/// pattern the root visit, then per first atom the [a1] node, then per
/// valid second atom the full [a1,a2] subtree — the concatenation is
/// exactly the sequential preorder. Classifier/hom pruning is NOT
/// evaluated here; pruned prefixes become zero-visit units discovered by
/// whichever worker claims them. Past kSplitBudget units the
/// decomposition degrades to whole-[a1] and then whole-pattern units —
/// granularity only, the commit protocol keeps the official outcome
/// exact at any split.
ExhaustivePlan BuildExhaustivePlan(const ConjunctiveQuery& q,
                                   const QueryChaseResult& chase,
                                   const EnumSignature& sig,
                                   size_t max_atoms) {
  constexpr size_t kSplitBudget = 4096;
  ExhaustivePlan plan;
  // Head patterns: set partitions of head positions refining the equality
  // pattern of the frozen head (mirrors EnumerateHeadPatterns, including
  // the "h$<b>" block-variable names — identical interned Terms).
  const size_t k = q.head().size();
  std::vector<int> block(k, -1);
  std::function<void(size_t, int)> patterns = [&](size_t pos, int num_blocks) {
    if (pos == k) {
      HpPlan hp;
      hp.head.resize(k);
      std::vector<Term> block_var(static_cast<size_t>(num_blocks));
      for (int b = 0; b < num_blocks; ++b) {
        block_var[b] = Term::Variable("h$" + std::to_string(b));
      }
      for (size_t i = 0; i < k; ++i) hp.head[i] = block_var[block[i]];
      for (size_t i = 0; i < k; ++i) {
        hp.fixed[hp.head[i]] = chase.frozen_head[i];
      }
      // ArgChoices, verbatim: deduped head variables, the pool, constants.
      std::unordered_set<Term> seen;
      for (Term h : hp.head) {
        if (seen.insert(h).second) hp.choices.push_back(h);
      }
      for (Term v : sig.pool) hp.choices.push_back(v);
      for (Term c : sig.constants) hp.choices.push_back(c);
      plan.hps.push_back(std::move(hp));
      return;
    }
    for (int b = 0; b <= num_blocks; ++b) {
      bool ok = true;
      for (size_t j = 0; j < pos; ++j) {
        if (block[j] == b && chase.frozen_head[j] != chase.frozen_head[pos]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      block[pos] = b;
      patterns(pos + 1, std::max(num_blocks, b + 1));
      block[pos] = -1;
    }
  };
  patterns(0, 0);

  // Argument-tuple enumeration, exactly as BuildArgs walks it: choices in
  // order, fresh pool variables introduced in order via the `used`
  // frontier threaded down the positions.
  auto for_each_atom = [&](Predicate p, const std::vector<Term>& choices,
                           size_t used0,
                           const std::function<void(Atom&&, size_t)>& fn) {
    std::vector<Term> args(static_cast<size_t>(p.arity()));
    std::function<void(size_t, size_t)> go = [&](size_t pos, size_t used) {
      if (pos == args.size()) {
        fn(Atom(p, args), used);
        return;
      }
      for (Term t : choices) {
        size_t next_used = used;
        auto it = sig.pool_index.find(t);
        if (it != sig.pool_index.end()) {
          if (it->second > used) continue;  // beyond the next fresh one
          next_used = std::max(used, it->second + 1);
        }
        args[pos] = t;
        go(pos + 1, next_used);
      }
    };
    go(0, used0);
  };

  for (uint32_t h = 0; h < plan.hps.size(); ++h) {
    if (plan.units.size() >= kSplitBudget) {
      plan.units.push_back({h, ExhUnitKind::kWholeHp, {}, {}});
      continue;
    }
    plan.units.push_back({h, ExhUnitKind::kRootVisit, {}, {}});
    if (max_atoms == 0) continue;  // the root visit is the whole pattern
    const HpPlan& hp = plan.hps[h];
    for (Predicate p : sig.predicates) {
      for_each_atom(p, hp.choices, 0, [&](Atom&& a1, size_t f1) {
        if (plan.units.size() >= kSplitBudget) {
          plan.units.push_back({h, ExhUnitKind::kA1Subtree, std::move(a1), {}});
          return;
        }
        if (max_atoms == 1) {
          // The [a1] node has no children; its visit is the subtree.
          plan.units.push_back({h, ExhUnitKind::kA1Visit, std::move(a1), {}});
          return;
        }
        plan.units.push_back({h, ExhUnitKind::kA1Visit, a1, {}});
        for (Predicate p2 : sig.predicates) {
          for_each_atom(p2, hp.choices, f1, [&](Atom&& a2, size_t) {
            // Canonical growth: non-decreasing atom order, no duplicates
            // (the sequential BuildArgs rejections at depth 1).
            if (AtomOrderLess(a2, a1) || a2 == a1) return;
            plan.units.push_back(
                {h, ExhUnitKind::kA2Subtree, a1, std::move(a2)});
          });
        }
      });
    }
  }
  return plan;
}

/// Canonical enumerator of acyclic candidate queries (strategy
/// "exhaustive"); see the header for the completeness contract.
class CandidateEnumerator {
 public:
  CandidateEnumerator(const ConjunctiveQuery& q, const DependencySet& sigma,
                      const QueryChaseResult& chase,
                      const ContainmentOracle& oracle, size_t max_atoms,
                      size_t budget, acyclic::AcyclicityClass target,
                      CancelToken* cancel)
      : q_(q),
        chase_(chase),
        oracle_(oracle),
        max_atoms_(max_atoms),
        budget_(budget),
        cancel_(cancel),
        inc_(target),
        hom_(chase.instance),
        failpoint_token_(cancel) {
    // The incremental session bails from repair search once the token
    // fires; its outcomes are then discarded with the whole enumeration.
    hom_.SetCancel(cancel);
    EnumSignature sig(q, sigma, max_atoms);
    predicates_ = std::move(sig.predicates);
    constants_ = std::move(sig.constants);
    pool_ = std::move(sig.pool);
    pool_index_ = std::move(sig.pool_index);
  }

  /// ---- Parallel-worker mode ----------------------------------------
  /// The enumerator doubles as one worker of the parallel exhaustive
  /// search: the SAME Search/BuildArgs drive each unit (so enumeration
  /// order cannot diverge from the sequential strategy), with the budget
  /// check swapped for the pool's allowance cap and TestCandidate rewired
  /// to per-unit dedup + the shared NO-set. Failpoints take the parent
  /// token (thread-safe RequestCancel → whole-decision abort); polls use
  /// this worker's chained child token.
  void EnterParallelMode(CancelToken* parent,
                         ConcurrentFingerprintSet* shared_no) {
    parallel_ = true;
    failpoint_token_ = parent;
    shared_no_ = shared_no;
    if (parent != nullptr) child_.SetParent(parent);
    cancel_ = &child_;
    hom_.SetCancel(&child_);
  }

  SearchUnitOutcome RunUnit(const ExhaustivePlan& plan, const ExhUnit& u,
                            ParallelSearchPool::WorkerContext& ctx,
                            std::vector<CandidateEvent>* events,
                            std::optional<ConjunctiveQuery>* witness_slot) {
    pctx_ = &ctx;
    events_ = events;
    visits_ = 0;
    truncated_ = false;
    found_at_ = 0;
    outcome_.answer = Tri::kUnknown;
    outcome_.witness.reset();
    unit_seen_.clear();
    SEMACYC_FAILPOINT("parallel.steal", failpoint_token_);
    // Once this worker's token fired, its hom session bails spuriously —
    // a prefix push could masquerade as a prune and mis-report a unit as
    // exhausted. Report cancelled units as truncated instead (the commit
    // turns the first one official; real cancels abort at the engine).
    if (child_.PollNow()) {
      SearchUnitOutcome out;
      out.exhausted = false;
      return out;
    }
    if (u.kind == ExhUnitKind::kRootVisit) {
      // Root node: one visit, atoms_ empty, nothing tested (TestCandidate
      // skips empty candidates) — no session state needed.
      VisitNode(/*test=*/false);
    } else {
      SetupHeadPattern(plan, u.hp);
      size_t pushed = 0;
      bool pruned = false;
      if (u.a1.has_value()) pruned = !PushPrefixAtom(*u.a1, &pushed);
      if (!pruned && u.a2.has_value()) pruned = !PushPrefixAtom(*u.a2, &pushed);
      if (!pruned) {
        if (u.kind == ExhUnitKind::kA1Visit) {
          VisitNode(/*test=*/true);
        } else {  // kWholeHp, kA1Subtree, kA2Subtree
          Search();
        }
      }
      PopPrefix(pushed);
    }
    // A token fired during the unit's last oracle check may have hidden
    // an answer (kUnknown reads as "not contained"); never let such a
    // unit count as exhausted — mirrors the sequential post-run check.
    if (child_.triggered()) truncated_ = true;
    SearchUnitOutcome out;
    out.visits = visits_;
    out.found = outcome_.answer == Tri::kYes;
    out.found_at = found_at_;
    out.exhausted = !out.found && !truncated_;
    if (out.found) *witness_slot = std::move(outcome_.witness);
    return out;
  }

  size_t classifier_pushes() const { return inc_.pushes(); }
  size_t classifier_pops() const { return inc_.pops(); }
  const IncrementalHomomorphism::Stats& hom_stats() const {
    return hom_.stats();
  }

  WitnessSearchOutcome Run() {
    // Enumerate head patterns: set partitions of head positions refining
    // the equality pattern of the frozen head.
    const size_t k = q_.head().size();
    std::vector<int> block(k, -1);
    EnumerateHeadPatterns(0, &block, 0);
    // A fired token may have pruned subtrees silently (a cancelled chase
    // hom check reports "no hom" and the enumeration skips the subtree),
    // so the whole run counts as truncated even if no visit poll tripped.
    if (cancel_ != nullptr && cancel_->triggered()) truncated_ = true;
    outcome_.exhausted = !truncated_;
    outcome_.visits = visits_;
    outcome_.classifier_pushes = inc_.pushes();
    outcome_.classifier_pops = inc_.pops();
    outcome_.hom = hom_.stats();
    return outcome_;
  }

 private:
  void EnumerateHeadPatterns(size_t pos, std::vector<int>* block,
                             int num_blocks) {
    if (truncated_ || outcome_.answer == Tri::kYes) return;
    const size_t k = q_.head().size();
    if (pos == k) {
      // Build the head: one fresh variable per block.
      head_.clear();
      head_.resize(k);
      std::vector<Term> block_var(static_cast<size_t>(num_blocks));
      for (int b = 0; b < num_blocks; ++b) {
        block_var[b] = Term::Variable("h$" + std::to_string(b));
      }
      for (size_t i = 0; i < k; ++i) head_[i] = block_var[(*block)[i]];
      // Head variables must map to the frozen head position-wise; seed the
      // hom session with that binding. Both the binding and the argument
      // choices are loop invariants of the whole pattern — build them once
      // here, not per enumeration node. Reset re-seeds the session and
      // keeps its pooled storage.
      Substitution fixed;
      for (size_t i = 0; i < k; ++i) fixed[head_[i]] = chase_.frozen_head[i];
      hom_.Reset(fixed);
      choices_ = ArgChoices();
      atoms_.clear();
      used_frontier_ = 0;
      Search();
      return;
    }
    // Standard restricted-growth enumeration of set partitions.
    for (int b = 0; b <= num_blocks; ++b) {
      // Refinement constraint: same block => equal frozen head terms.
      bool ok = true;
      for (size_t j = 0; j < pos; ++j) {
        if ((*block)[j] == b &&
            chase_.frozen_head[j] != chase_.frozen_head[pos]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      (*block)[pos] = b;
      EnumerateHeadPatterns(pos + 1, block, std::max(num_blocks, b + 1));
      (*block)[pos] = -1;
    }
  }

  /// Terms usable as atom arguments: head variables, the whole pool (the
  /// in-order-introduction rule is enforced position-wise in BuildArgs),
  /// and the known constants.
  std::vector<Term> ArgChoices() {
    std::vector<Term> out;
    std::unordered_set<Term> seen;
    for (Term h : head_) {
      if (seen.insert(h).second) out.push_back(h);
    }
    for (Term v : pool_) out.push_back(v);
    for (Term c : constants_) out.push_back(c);
    return out;
  }

  /// The atom's connecting vertices (kVariables: constants never connect),
  /// interned against the enumerator-wide vertex table. Fills the shared
  /// scratch buffer (the classifier copies and sorts/dedups).
  const std::vector<int>& VarVertices(const Atom& atom) {
    verts_scratch_.clear();
    for (Term t : atom.args()) {
      if (!t.IsVariable()) continue;
      verts_scratch_.push_back(
          vertex_of_.emplace(t, static_cast<int>(vertex_of_.size()))
              .first->second);
    }
    return verts_scratch_;
  }

  bool HeadCovered() {
    for (Term h : head_) {
      bool found = false;
      for (const Atom& a : atoms_) {
        if (a.Mentions(h)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    return true;
  }

  /// Parallel mode: install one head pattern's invariants from the plan
  /// (identical to the pos == k arm of EnumerateHeadPatterns). A pattern
  /// switch is a session replay: the hom session re-seeds to the new
  /// fixed binding.
  void SetupHeadPattern(const ExhaustivePlan& plan, uint32_t hp) {
    if (cur_hp_ == static_cast<int64_t>(hp)) return;
    SEMACYC_FAILPOINT("parallel.replay", failpoint_token_);
    pctx_->NoteReplay();
    const HpPlan& h = plan.hps[hp];
    head_ = h.head;
    hom_.Reset(h.fixed);
    choices_ = h.choices;
    cur_hp_ = static_cast<int64_t>(hp);
  }

  /// Parallel mode: replay one stolen-prefix atom with the sequential
  /// push nesting (classifier first, then hom). False = the prefix is
  /// pruned exactly where the sequential BuildArgs would prune it — the
  /// unit is a zero-visit exhausted unit. On success `pushed` counts the
  /// levels PopPrefix must unwind.
  bool PushPrefixAtom(const Atom& atom, size_t* pushed) {
    size_t saved_frontier = used_frontier_;
    atoms_.push_back(atom);
    used_frontier_ = FrontierAfter(atom, saved_frontier);
    inc_.PushEdge(VarVertices(atom));
    bool ok = !inc_.CannotRecover();
    if (ok) {
      ok = hom_.PushAtom(atom);
      if (!ok) hom_.PopAtom();
    }
    if (!ok) {
      inc_.PopEdge();
      atoms_.pop_back();
      used_frontier_ = saved_frontier;
      return false;
    }
    frontier_stack_.push_back(saved_frontier);
    ++*pushed;
    return true;
  }

  void PopPrefix(size_t pushed) {
    while (pushed-- > 0) {
      hom_.PopAtom();
      inc_.PopEdge();
      atoms_.pop_back();
      used_frontier_ = frontier_stack_.back();
      frontier_stack_.pop_back();
    }
  }

  /// The in-order-introduction frontier after `atom`, from pool-index
  /// lookups — the same value BuildArgs threads down its recursion.
  size_t FrontierAfter(const Atom& atom, size_t used) const {
    for (Term t : atom.args()) {
      auto it = pool_index_.find(t);
      if (it != pool_index_.end()) used = std::max(used, it->second + 1);
    }
    return used;
  }

  /// Parallel mode: one enumeration node by itself (the kRootVisit /
  /// kA1Visit units) — the visit prefix of Search() without the child
  /// recursion, which belongs to other units.
  void VisitNode(bool test) {
    SEMACYC_FAILPOINT("exhaustive.visit", failpoint_token_);
    if (visits_ >= pctx_->Cap()) {
      truncated_ = true;
      return;
    }
    ++visits_;
    if (cancel_ != nullptr && cancel_->Poll()) {
      truncated_ = true;
      return;
    }
    if (test) TestCandidate();
  }

  void TestCandidate() {
    if (atoms_.empty() || !HeadCovered() || !inc_.Meets()) return;
    ConjunctiveQuery candidate(head_, atoms_);
    if (parallel_) {
      // Per-unit dedup gates the event record; the shared NO-set only
      // suppresses oracle CALLS for already-refuted candidates (kYes
      // stops the search, kUnknown is never inserted — answer-invariant).
      // The official candidates_tested is reconstructed by the
      // commit-time replay of these events.
      Key128 key = CanonicalFingerprint128(candidate);
      if (!unit_seen_.insert(key).second) return;
      events_->push_back({visits_, key});
      ++outcome_.candidates_tested;
      if (shared_no_->Contains(key)) return;
      Tri r = oracle_.ContainedInQ(candidate, cancel_);
      if (r == Tri::kYes) {
        outcome_.answer = Tri::kYes;
        outcome_.witness = std::move(candidate);
        found_at_ = visits_;
      } else if (r == Tri::kNo) {
        shared_no_->Insert(key);
      }
      return;
    }
    if (!tested_.Insert(candidate)) return;
    ++outcome_.candidates_tested;
    if (oracle_.ContainedInQ(candidate, cancel_) == Tri::kYes) {
      outcome_.answer = Tri::kYes;
      outcome_.witness = std::move(candidate);
    }
  }

  void Search() {
    if (truncated_ || outcome_.answer == Tri::kYes) return;
    SEMACYC_FAILPOINT("exhaustive.visit", failpoint_token_);
    if (parallel_) {
      // Unit-local visits against the pool's allowance floor: Cap() can
      // only be too generous while earlier units are in flight, so a
      // capped unit provably overran its final allowance — speculation
      // wasted, never an answer changed.
      if (visits_ >= pctx_->Cap()) {
        truncated_ = true;
        return;
      }
      ++visits_;
    } else if (++visits_ > budget_) {
      truncated_ = true;
      return;
    }
    if (cancel_ != nullptr && cancel_->Poll()) {
      truncated_ = true;  // a fired token truncates like an exhausted budget
      return;
    }
    TestCandidate();
    if (outcome_.answer == Tri::kYes) return;
    if (atoms_.size() >= max_atoms_) return;
    for (Predicate p : predicates_) {
      std::vector<Term> args(static_cast<size_t>(p.arity()));
      BuildArgs(p, 0, &args, choices_, used_frontier_);
      if (truncated_ || outcome_.answer == Tri::kYes) return;
    }
  }

  void BuildArgs(Predicate p, size_t pos, std::vector<Term>* args,
                 const std::vector<Term>& choices, size_t used) {
    if (truncated_ || outcome_.answer == Tri::kYes) return;
    if (pos == args->size()) {
      Atom atom(p, *args);
      // Canonical growth: non-decreasing atom order; no duplicate atoms.
      if (!atoms_.empty() && AtomOrderLess(atom, atoms_.back())) return;
      // Atoms grow in non-decreasing AtomOrderLess order, so only the
      // trailing run of order-equal atoms can collide with the candidate:
      // the scan stops at the first atom strictly below it.
      for (auto it = atoms_.rbegin();
           it != atoms_.rend() && !AtomOrderLess(*it, atom); ++it) {
        if (*it == atom) return;
      }
      atoms_.push_back(atom);
      size_t saved_frontier = used_frontier_;
      used_frontier_ = used;
      // The classifier push costs nanoseconds (scratch deciders), so it
      // runs before the chase homomorphism: a hereditarily violated prefix
      // can never recover, and pruning it here skips the hom for the whole
      // subtree.
      inc_.PushEdge(VarVertices(atom));
      if (!inc_.CannotRecover()) {
        // Incremental per-atom chase check, mirroring the classifier's
        // push/pop discipline: the session's stack tracks atoms_ along the
        // DFS path, so this push costs O(what the atom changed) instead of
        // a from-scratch backtracking search.
        if (hom_.PushAtom(atom)) Search();
        hom_.PopAtom();
      }
      inc_.PopEdge();
      used_frontier_ = saved_frontier;
      atoms_.pop_back();
      return;
    }
    // Fresh pool variables must be introduced in order; `used` carries the
    // frontier (pool variables consumed by atoms_ plus the args prefix)
    // down the recursion instead of rescanning atoms and prefix.
    for (Term t : choices) {
      size_t next_used = used;
      auto it = pool_index_.find(t);
      if (it != pool_index_.end()) {
        if (it->second > used) continue;  // beyond the next fresh one
        next_used = std::max(used, it->second + 1);
      }
      (*args)[pos] = t;
      BuildArgs(p, pos + 1, args, choices, next_used);
    }
  }

  const ConjunctiveQuery& q_;
  const QueryChaseResult& chase_;
  const ContainmentOracle& oracle_;
  size_t max_atoms_;
  size_t budget_;
  CancelToken* cancel_;

  std::vector<Predicate> predicates_;
  std::vector<Term> constants_;
  std::vector<Term> pool_;
  std::unordered_map<Term, size_t, TermHash> pool_index_;
  std::vector<Term> head_;
  std::vector<Atom> atoms_;
  /// Per-head-pattern invariants, hoisted out of the enumeration loop.
  std::vector<Term> choices_;
  acyclic::IncrementalClassifier inc_;
  /// Incremental chase-homomorphism session: PushAtom/PopAtom mirror inc_'s
  /// PushEdge/PopEdge along the DFS path — the certificate that the
  /// candidate maps into the chase with the head bound position-wise.
  IncrementalHomomorphism hom_;
  std::unordered_map<Term, int, TermHash> vertex_of_;
  std::vector<int> verts_scratch_;
  /// Pool variables consumed by atoms_ (the in-order-introduction
  /// frontier), maintained incrementally across atom pushes/pops.
  size_t used_frontier_ = 0;
  CandidateDedup tested_;
  size_t visits_ = 0;
  bool truncated_ = false;
  WitnessSearchOutcome outcome_;

  /// Parallel-worker mode state (inert on the sequential path).
  /// failpoint_token_ is the engine token on the sequential path and the
  /// PARENT token in parallel mode; cancel_ then points at child_.
  bool parallel_ = false;
  CancelToken* failpoint_token_;
  CancelToken child_;
  ParallelSearchPool::WorkerContext* pctx_ = nullptr;
  ConcurrentFingerprintSet* shared_no_ = nullptr;
  std::vector<CandidateEvent>* events_ = nullptr;
  std::unordered_set<Key128, Key128Hash> unit_seen_;
  uint64_t found_at_ = 0;
  int64_t cur_hp_ = -1;
  std::vector<size_t> frontier_stack_;
};

}  // namespace

WitnessSearchOutcome ExhaustiveWitnessSearch(const ConjunctiveQuery& q,
                                             const DependencySet& sigma,
                                             const QueryChaseResult& chase,
                                             const ContainmentOracle& oracle,
                                             size_t max_atoms, size_t budget,
                                             acyclic::AcyclicityClass target,
                                             CancelToken* cancel) {
  CandidateEnumerator enumerator(q, sigma, chase, oracle, max_atoms, budget,
                                 target, cancel);
  return enumerator.Run();
}

WitnessSearchOutcome ParallelExhaustiveWitnessSearch(
    const ConjunctiveQuery& q, const DependencySet& sigma,
    const QueryChaseResult& chase, const ContainmentOracle& oracle,
    size_t max_atoms, size_t budget, size_t threads,
    acyclic::AcyclicityClass target, CancelToken* cancel) {
  if (threads <= 1) {
    return ExhaustiveWitnessSearch(q, sigma, chase, oracle, max_atoms, budget,
                                   target, cancel);
  }
  WitnessSearchOutcome outcome;
  EnumSignature sig(q, sigma, max_atoms);
  ExhaustivePlan plan = BuildExhaustivePlan(q, chase, sig, max_atoms);
  ConcurrentFingerprintSet shared_no;
  std::vector<std::vector<CandidateEvent>> unit_events(plan.units.size());
  std::vector<std::optional<ConjunctiveQuery>> unit_witness(plan.units.size());
  ParallelSearchPool pool(plan.units.size(), threads, budget);
  // One enumerator per worker slot, created lazily on the worker's own
  // thread (each builds its own sessions and child token; the plan, the
  // oracle and the NO-set are the only shared state).
  std::vector<std::unique_ptr<CandidateEnumerator>> workers(pool.workers());
  ParallelSearchPool::Result res =
      pool.Run([&](size_t u, ParallelSearchPool::WorkerContext& ctx) {
        std::unique_ptr<CandidateEnumerator>& w = workers[ctx.worker()];
        if (w == nullptr) {
          w = std::make_unique<CandidateEnumerator>(
              q, sigma, chase, oracle, max_atoms, budget, target, nullptr);
          w->EnterParallelMode(cancel, &shared_no);
        }
        return w->RunUnit(plan, plan.units[u], ctx, &unit_events[u],
                          &unit_witness[u]);
      });
  bool truncated = res.truncated;
  // A fired token may have pruned subtrees silently; the whole run counts
  // as truncated even if no visit poll tripped (mirrors the sequential
  // post-run check).
  if (cancel != nullptr && cancel->triggered()) truncated = true;
  if (res.found) {
    outcome.answer = Tri::kYes;
    outcome.witness = std::move(unit_witness[res.final_unit]);
  }
  // Like the sequential Run(): exhausted reports "no budget/cancel
  // truncation", also on kYes.
  outcome.exhausted = !truncated;
  outcome.visits = res.official_visits;
  outcome.candidates_tested = ReplayCandidatesTested(res, unit_events);
  for (const auto& w : workers) {
    if (w == nullptr) continue;
    outcome.classifier_pushes += w->classifier_pushes();
    outcome.classifier_pops += w->classifier_pops();
    const IncrementalHomomorphism::Stats& hs = w->hom_stats();
    outcome.hom.pushes += hs.pushes;
    outcome.hom.fc_rejects += hs.fc_rejects;
    outcome.hom.extends += hs.extends;
    outcome.hom.repairs += hs.repairs;
    outcome.hom.repair_fails += hs.repair_fails;
    outcome.hom.dead_prefix += hs.dead_prefix;
  }
  outcome.parallel = pool.stats();
  return outcome;
}

}  // namespace semacyc
