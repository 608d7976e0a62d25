#include "core/homomorphism.h"

#include <algorithm>
#include <cassert>
#include <set>

namespace semacyc {
namespace hom {

void CompiledTerms::Compile(const std::vector<Atom>& atoms,
                            const Substitution& fixed) {
  slots.clear();
  ground.clear();
  slot_term.clear();
  binding.clear();
  slot_of.clear();
  start.assign(1, 0);
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      auto image = fixed.find(t);
      Term seen = image == fixed.end() ? Term() : image->second;
      if (!t.IsVariable() && !t.IsNull()) {
        slots.push_back(kGround);
        ground.push_back(seen.IsValid() && seen != t ? Term() : t);
        continue;
      }
      auto [it, inserted] =
          slot_of.emplace(t, static_cast<uint32_t>(slot_term.size()));
      if (inserted) {
        slot_term.push_back(t);
        binding.push_back(seen);
      }
      slots.push_back(it->second);
      ground.push_back(Term());
    }
    start.push_back(static_cast<uint32_t>(slots.size()));
  }
}

}  // namespace hom

namespace {

/// FindHomomorphisms' view of the search: the instance's per-predicate
/// lists are the base lists, its (predicate, position, term) index the
/// buckets; solutions are collected as substitutions.
struct InstanceTarget {
  const std::vector<Atom>& from;
  const Instance& to;
  const HomOptions& options;
  HomResult* result;
  const hom::CompiledTerms& source;

  hom::CompiledAtom<Term> AtomAt(uint32_t i) const { return source.atom(i); }
  hom::TupleSpan Base(uint32_t i) const {
    return hom::SpanOf(&to.AtomsOf(from[i].predicate()));
  }
  hom::TupleSpan Bucket(uint32_t i, size_t pos, Term v) const {
    return hom::SpanOf(to.FindCandidates(from[i].predicate(), pos, v));
  }
  Term Arg(uint32_t tuple, size_t pos) const {
    return to.atom(tuple).arg(pos);
  }
  bool Admits(uint32_t, Term v) const {
    // An injective map avoids every fixed image and every bound one.
    if (!options.injective) return true;
    for (const auto& [src, dst] : options.fixed) {
      if (dst == v) return false;
    }
    const std::vector<Term>& bound = source.binding;
    return std::find(bound.begin(), bound.end(), v) == bound.end();
  }
  bool Poll() {
    if (options.cancel == nullptr || !options.cancel->Poll()) return false;
    result->budget_exhausted = true;  // a fired token truncates the search
    return true;
  }
  bool Emit() {
    Substitution h = options.fixed;
    for (size_t s = 0; s < source.slot_term.size(); ++s) {
      h.emplace(source.slot_term[s], source.binding[s]);
    }
    result->solutions.push_back(std::move(h));
    return options.max_solutions > 0 &&
           result->solutions.size() >= options.max_solutions;
  }
};

}  // namespace

HomResult FindHomomorphisms(const std::vector<Atom>& from, const Instance& to,
                            const HomOptions& options) {
  // The compiled form and scratch keep their capacity across calls on a
  // thread; the search calls nothing that could re-enter this function.
  // It runs on the compiled initial binding directly.
  thread_local hom::CompiledTerms source;
  thread_local hom::Scratch scratch;
  source.Compile(from, options.fixed);
  HomResult result;
  InstanceTarget target{from, to, options, &result, source};
  hom::OrderAtoms(target, from.size(), source.binding, Term(), &scratch);
  hom::HomSearch<Term, InstanceTarget>(&target, scratch.order, &source.binding,
                                       &scratch.undo, Term())
      .Run();
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
  return FindHomomorphism(from, to, fixed).has_value();
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
