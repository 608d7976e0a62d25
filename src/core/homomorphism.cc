#include "core/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace semacyc {
namespace {

/// Variables and nulls map; constants map identically.
bool Mappable(Term t) { return t.IsVariable() || t.IsNull(); }

class Searcher {
 public:
  Searcher(const std::vector<Atom>& from, const Instance& to,
           const HomOptions& options)
      : from_(from), to_(to), options_(options) {}

  HomResult Run() {
    HomResult result;
    // Seed the binding with the fixed substitution.
    for (const auto& [src, dst] : options_.fixed) {
      binding_[src] = dst;
      if (options_.injective) ++used_targets_[dst];
    }
    order_ = OrderAtoms();
    Extend(0, &result);
    result.found = !result.solutions.empty();
    result.budget_exhausted = budget_exhausted_;
    return result;
  }

 private:
  /// Most-constrained-first ordering: repeatedly pick the atom with the
  /// most already-bound terms; tie-break on the smaller per-predicate
  /// candidate list. Keeps the search connected whenever possible.
  std::vector<int> OrderAtoms() {
    const int n = static_cast<int>(from_.size());
    std::vector<int> order;
    order.reserve(n);
    std::vector<bool> placed(n, false);
    std::unordered_set<Term> bound;
    for (const auto& [src, _] : options_.fixed) bound.insert(src);
    for (int step = 0; step < n; ++step) {
      int best = -1;
      long best_score = -1;
      for (int i = 0; i < n; ++i) {
        if (placed[i]) continue;
        long bound_terms = 0;
        for (Term t : from_[i].args()) {
          if (!Mappable(t) || bound.count(t)) ++bound_terms;
        }
        long candidates =
            static_cast<long>(to_.AtomsOf(from_[i].predicate()).size());
        // Higher bound_terms first; then fewer candidates.
        long score = bound_terms * 1000000 - candidates;
        if (best == -1 || score > best_score) {
          best = i;
          best_score = score;
        }
      }
      placed[best] = true;
      order.push_back(best);
      for (Term t : from_[best].args()) {
        if (Mappable(t)) bound.insert(t);
      }
    }
    return order;
  }

  /// Candidate target atoms for `atom` given the current binding.
  const std::vector<uint32_t>* Candidates(const Atom& atom,
                                          std::vector<uint32_t>* scratch) {
    // Pick the bound position with the smallest index bucket.
    const std::vector<uint32_t>* best = nullptr;
    for (size_t pos = 0; pos < atom.arity(); ++pos) {
      Term t = atom.arg(pos);
      Term image;
      if (!Mappable(t)) {
        image = t;
      } else {
        auto it = binding_.find(t);
        if (it == binding_.end()) continue;
        image = it->second;
      }
      const std::vector<uint32_t>* bucket =
          to_.FindCandidates(atom.predicate(), pos, image);
      if (bucket == nullptr) {
        scratch->clear();
        return scratch;  // empty: no candidates at all
      }
      if (best == nullptr || bucket->size() < best->size()) best = bucket;
    }
    if (best != nullptr) return best;
    return &to_.AtomsOf(atom.predicate());
  }

  bool Extend(size_t depth, HomResult* result) {
    if (options_.cancel != nullptr && options_.cancel->Poll()) {
      budget_exhausted_ = true;  // a fired token truncates the search
      return true;
    }
    if (depth == order_.size()) {
      result->solutions.push_back(binding_);
      return options_.max_solutions > 0 &&
             result->solutions.size() >= options_.max_solutions;
    }
    const Atom& atom = from_[order_[depth]];
    std::vector<uint32_t> scratch;
    const std::vector<uint32_t>* candidates = Candidates(atom, &scratch);
    for (uint32_t idx : *candidates) {
      const Atom& target = to_.atom(idx);
      if (target.predicate() != atom.predicate()) continue;
      // Try to unify argument-wise.
      std::vector<Term> newly_bound;
      bool ok = true;
      for (size_t pos = 0; pos < atom.arity() && ok; ++pos) {
        Term s = atom.arg(pos);
        Term d = target.arg(pos);
        if (!Mappable(s)) {
          auto fx = binding_.find(s);
          Term expect = fx == binding_.end() ? s : fx->second;
          if (expect != d) ok = false;
          continue;
        }
        auto it = binding_.find(s);
        if (it != binding_.end()) {
          if (it->second != d) ok = false;
          continue;
        }
        if (options_.injective) {
          auto used = used_targets_.find(d);
          if (used != used_targets_.end() && used->second > 0) {
            ok = false;
            continue;
          }
          ++used_targets_[d];
        }
        binding_.emplace(s, d);
        newly_bound.push_back(s);
      }
      if (ok && Extend(depth + 1, result)) return true;
      for (Term s : newly_bound) {
        if (options_.injective) --used_targets_[binding_[s]];
        binding_.erase(s);
      }
    }
    return false;
  }

  const std::vector<Atom>& from_;
  const Instance& to_;
  const HomOptions& options_;
  std::vector<int> order_;
  Substitution binding_;
  std::unordered_map<Term, int, TermHash> used_targets_;
  bool budget_exhausted_ = false;
};

}  // namespace

HomResult FindHomomorphisms(const std::vector<Atom>& from, const Instance& to,
                            const HomOptions& options) {
  Searcher searcher(from, to, options);
  return searcher.Run();
}

std::optional<Substitution> FindHomomorphism(const std::vector<Atom>& from,
                                             const Instance& to,
                                             const Substitution& fixed) {
  HomOptions options;
  options.fixed = fixed;
  HomResult result = FindHomomorphisms(from, to, options);
  if (!result.found) return std::nullopt;
  return result.solutions.front();
}

bool HasHomomorphism(const std::vector<Atom>& from, const Instance& to,
                     const Substitution& fixed) {
  return FindHomomorphism(from, to, fixed).has_value();
}

std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& q,
                                             const Instance& instance,
                                             size_t max_answers) {
  HomOptions options;
  options.max_solutions = 0;  // all
  HomResult result = FindHomomorphisms(q.body(), instance, options);
  std::vector<std::vector<Term>> answers;
  std::unordered_set<std::string> seen;  // dedup via printable key
  for (const Substitution& h : result.solutions) {
    std::vector<Term> tuple;
    tuple.reserve(q.head().size());
    std::string key;
    for (Term x : q.head()) {
      Term v = Apply(h, x);
      tuple.push_back(v);
      key += std::to_string(v.raw_bits()) + ",";
    }
    if (seen.insert(key).second) {
      answers.push_back(std::move(tuple));
      if (max_answers > 0 && answers.size() >= max_answers) break;
    }
  }
  return answers;
}

bool EvaluatesTo(const ConjunctiveQuery& q, const Instance& instance,
                 const std::vector<Term>& tuple, CancelToken* cancel) {
  assert(tuple.size() == q.head().size());
  Substitution fixed;
  for (size_t i = 0; i < tuple.size(); ++i) {
    Term h = q.head()[i];
    if (!h.IsVariable()) {
      if (h != tuple[i]) return false;
      continue;
    }
    auto it = fixed.find(h);
    if (it != fixed.end()) {
      if (it->second != tuple[i]) return false;
    } else {
      fixed.emplace(h, tuple[i]);
    }
  }
  HomOptions options;
  options.fixed = std::move(fixed);
  options.cancel = cancel;
  return FindHomomorphisms(q.body(), instance, options).found;
}

bool EvaluatesTrue(const ConjunctiveQuery& q, const Instance& instance) {
  return HasHomomorphism(q.body(), instance);
}

bool HomomorphicallyEquivalent(const Instance& a, const Instance& b) {
  return HasHomomorphism(a.atoms(), b) && HasHomomorphism(b.atoms(), a);
}

}  // namespace semacyc
