#include "core/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace semacyc {
namespace hom {

void CompiledTerms::Clear() {
  slots.clear();
  ground.clear();
  start.assign(1, 0);
  preds.clear();
  slot_term.clear();
  binding.clear();
  slot_ids.Clear();
}

void CompiledTerms::Compile(const std::vector<Atom>& atoms,
                            const Substitution& fixed) {
  Clear();
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      auto image = fixed.find(t);
      Term seen = image == fixed.end() ? Term() : image->second;
      if (!t.IsVariable() && !t.IsNull()) {
        slots.push_back(kGround);
        ground.push_back(seen.IsValid() && seen != t ? Term() : t);
        continue;
      }
      uint32_t slot = slot_ids.Insert(t.raw_bits());
      if (slot == slot_term.size()) {
        slot_term.push_back(t);
        binding.push_back(seen);
      }
      slots.push_back(slot);
      ground.push_back(Term());
    }
    start.push_back(static_cast<uint32_t>(slots.size()));
    preds.push_back(a.predicate());
  }
}

}  // namespace hom

namespace {

// The compiled form and scratch keep their capacity across calls on a
// thread; the searches call nothing that could re-enter this file. They
// run on the compiled initial binding directly.
thread_local hom::CompiledTerms t_source;
thread_local hom::Scratch t_scratch;

/// Is there a homomorphism from `from` into `to` extending `fixed`? Builds
/// no substitution. A cancelled search reports false.
bool Exists(const std::vector<Atom>& from, const Instance& to,
            const Substitution& fixed, CancelToken* cancel) {
  t_source.Compile(from, fixed);
  return hom::SearchInstance(t_source, to, &t_source.binding, cancel,
                             &t_scratch, [] { return true; });
}

}  // namespace

HomResult FindHomomorphisms(const std::vector<Atom>& from, const Instance& to,
                            const HomOptions& options) {
  t_source.Compile(from, options.fixed);
  HomResult result;
  auto emit = [&] {
    Substitution h = options.fixed;
    for (size_t s = 0; s < t_source.slot_term.size(); ++s) {
      h.emplace(t_source.slot_term[s], t_source.binding[s]);
    }
    result.solutions.push_back(std::move(h));
    return options.max_solutions > 0 &&
           result.solutions.size() >= options.max_solutions;
  };
  auto admits = [&](uint32_t, Term v) {
    // An injective map avoids every fixed image and every bound one.
    if (!options.injective) return true;
    for (const auto& [src, dst] : options.fixed) {
      if (dst == v) return false;
    }
    const std::vector<Term>& bound = t_source.binding;
    return std::find(bound.begin(), bound.end(), v) == bound.end();
  };
  hom::SearchInstance(t_source, to, &t_source.binding, options.cancel,
                      &t_scratch, emit, admits);
  // A fired token stopped the search (polls trip it for good).
  result.budget_exhausted =
      options.cancel != nullptr && options.cancel->triggered();
  result.found = !result.solutions.empty();
  return result;
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
  return Exists(from, to, fixed, nullptr);
}

std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& q,
                                             const Instance& instance,
                                             size_t max_answers) {
  HomOptions options;
  options.max_solutions = 0;  // all
  HomResult result = FindHomomorphisms(q.body(), instance, options);
  std::vector<std::vector<Term>> answers;
  std::set<std::vector<Term>> seen;
  for (const Substitution& h : result.solutions) {
    std::vector<Term> tuple;
    for (Term x : q.head()) tuple.push_back(Apply(h, x));
    if (!seen.insert(tuple).second) continue;
    answers.push_back(std::move(tuple));
    if (max_answers > 0 && answers.size() >= max_answers) break;
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
  return Exists(q.body(), instance, fixed, cancel);
}

bool EvaluatesTrue(const ConjunctiveQuery& q, const Instance& instance) {
  return HasHomomorphism(q.body(), instance);
}

bool HomomorphicallyEquivalent(const Instance& a, const Instance& b) {
  return HasHomomorphism(a.atoms(), b) && HasHomomorphism(b.atoms(), a);
}

}  // namespace semacyc
