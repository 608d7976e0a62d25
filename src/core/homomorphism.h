#ifndef SEMACYC_CORE_HOMOMORPHISM_H_
#define SEMACYC_CORE_HOMOMORPHISM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/flat_table.h"
#include "core/instance.h"
#include "core/interrupt.h"
#include "core/query.h"

namespace semacyc {

/// Options for the homomorphism search.
struct HomOptions {
  /// Pre-bound mappings (e.g. head variables to target constants).
  /// Default empty (unconstrained search). Terms bound here are used
  /// verbatim; they need not be "mappable" kinds. Set when answer
  /// positions are pinned — evaluation, containment, witness checks.
  Substitution fixed;
  /// Require the term mapping to be injective. Default false; set true
  /// only for isomorphism checks (core computation, iso resolution).
  bool injective = false;
  /// Stop after this many solutions (count, not bytes). Default 1 — the
  /// existence check. 0 means "no cap"; raise only when enumerating
  /// answers and beware of exponential counts.
  size_t max_solutions = 1;
  /// Cooperative cancellation token polled once per backtracking step
  /// (nullptr = not cancellable, the default). A fired token stops the
  /// search — "not found" with budget_exhausted set — so no caller may
  /// treat the result as exact.
  CancelToken* cancel = nullptr;
};

/// Result of a homomorphism search.
struct HomResult {
  bool found = false;
  /// True if the search was cut short by the cancel token (found may be
  /// false merely because the search stopped early).
  bool budget_exhausted = false;
  std::vector<Substitution> solutions;
};

/// Searches for homomorphisms h from `from` into `to`: Ri(h(v̄i)) ∈ to for
/// each atom, h identity on constants (§2). Backtracking with
/// most-constrained-first atom ordering, candidates narrowed through the
/// instance's (predicate, position, term) index.
HomResult FindHomomorphisms(const std::vector<Atom>& from, const Instance& to,
                            const HomOptions& options = {});

/// First homomorphism, if any.
std::optional<Substitution> FindHomomorphism(const std::vector<Atom>& from,
                                             const Instance& to,
                                             const Substitution& fixed = {});

/// True iff a homomorphism exists.
bool HasHomomorphism(const std::vector<Atom>& from, const Instance& to,
                     const Substitution& fixed = {});

/// Evaluates q over the instance: the set of tuples h(x̄) over all
/// homomorphisms h from q into `instance` (§2). Deduplicated.
std::vector<std::vector<Term>> EvaluateQuery(const ConjunctiveQuery& q,
                                             const Instance& instance,
                                             size_t max_answers = 0);

/// Decision version: t̄ ∈ q(I)? `cancel` (nullptr = not cancellable) is
/// polled during the search; a cancelled check returns false without
/// having decided — the caller must treat the answer as unknown when the
/// token has triggered.
bool EvaluatesTo(const ConjunctiveQuery& q, const Instance& instance,
                 const std::vector<Term>& tuple,
                 CancelToken* cancel = nullptr);

/// True iff the Boolean evaluation of q over `instance` is nonempty.
bool EvaluatesTrue(const ConjunctiveQuery& q, const Instance& instance);

/// Homomorphic equivalence of instances (nulls mappable, constants fixed):
/// used for chase(q,Σ) ≡ chase(q',Σ) checks (proof of Theorem 7).
bool HomomorphicallyEquivalent(const Instance& a, const Instance& b);

/// The one compiled homomorphism search. Its callers run it over three
/// views of the target:
///   * an Instance, narrowed through its (predicate, position, term) index
///     (InstanceTarget): FindHomomorphisms, the chase's trigger, head
///     and egd-violation searches and ContainmentOracle's Lemma 1 verdict;
///   * IncrementalHomomorphism's repair — its DenseTarget (an Instance's
///     tuples over dense term ids), with each pushed atom's
///     compatible tuples as its base list, the DenseTarget's (predicate,
///     position, term) buckets as the index and domain membership as the
///     per-variable filter;
///   * ContainmentOracle's chase-free Chandra–Merlin check — a candidate
///     body, no index, per-thread scratch.
/// Source atoms are compiled to dense variable slots and ground values;
/// the binding is an array over the slots with an undo stack.
namespace hom {

/// Slot of a ground (non-mappable) position of a compiled atom.
inline constexpr uint32_t kGround = 0xffffffffu;

/// A source atom compiled to dense slots — a view over caller-owned
/// arrays. Position i carries the variable in slot[i], or, when slot[i] ==
/// kGround, must carry ground[i] in the target.
template <typename Value>
struct CompiledAtom {
  const uint32_t* slot;
  const Value* ground;
  size_t arity;
};

/// A run of target tuple ids: a base list or one index bucket.
struct TupleSpan {
  const uint32_t* data = nullptr;
  size_t size = 0;
};
inline TupleSpan SpanOf(const std::vector<uint32_t>* v) {
  return v == nullptr ? TupleSpan{} : TupleSpan{v->data(), v->size()};
}

/// Term-valued source atoms compiled to slots: each distinct mappable term
/// (variable or null) gets the next slot in first-occurrence order.
struct CompiledTerms {
  std::vector<uint32_t> slots;  // flattened positions of every atom
  std::vector<Term> ground;     // valid where slots[k] == kGround
  std::vector<uint32_t> start;  // atom i spans [start[i], start[i + 1])
  std::vector<Predicate> preds;  // atom i's predicate
  std::vector<Term> slot_term;  // slot -> source term
  std::vector<Term> binding;    // slot -> its `fixed` image, or invalid
  FlatKeyTable slot_ids;        // Compile: term bits -> slot

  /// Compile's slot of a mappable term, or kGround when none has it.
  uint32_t SlotOf(Term t) const { return slot_ids.Find(t.raw_bits()); }

  /// Replaces the compiled form. A constant that `fixed` maps elsewhere can
  /// match no target term; it compiles to the invalid Term, which equals
  /// no target argument.
  void Compile(const std::vector<Atom>& atoms, const Substitution& fixed);
  /// Empties the compiled form, keeping its capacity. Callers that number
  /// slots themselves then Add atoms one by one.
  void Clear();
  /// Appends `atom` with `slot_of_term(t)` as the slot of each of its
  /// variables and nulls; every other term is ground.
  template <typename SlotOf>
  void Add(const Atom& atom, SlotOf slot_of_term) {
    for (Term t : atom.args()) {
      bool mappable = t.IsVariable() || t.IsNull();
      slots.push_back(mappable ? slot_of_term(t) : kGround);
      ground.push_back(mappable ? Term() : t);
    }
    start.push_back(static_cast<uint32_t>(slots.size()));
    preds.push_back(atom.predicate());
  }
  size_t size() const { return preds.size(); }
  CompiledAtom<Term> atom(size_t i) const {
    return {slots.data() + start[i], ground.data() + start[i],
            start[i + 1] - start[i]};
  }
};

/// Per-search scratch; pooling it makes repeated searches allocation-free.
struct Scratch {
  std::vector<uint32_t> order;
  std::vector<uint32_t> undo;
  std::vector<char> bound;
  /// SearchInstance: each source atom's base list, looked up once.
  std::vector<TupleSpan> base;
};

/// Most-constrained-first order of `target`'s first `num_atoms` atoms,
/// into scratch->order: repeatedly the atom with the most bound positions
/// (ground, or a slot seeded in `binding` or bound by an earlier atom),
/// ties to the shorter base list, then to the lower index.
template <typename Value, typename Target>
void OrderAtoms(const Target& target, size_t num_atoms,
                const std::vector<Value>& binding, Value unbound,
                Scratch* scratch) {
  std::vector<char>& bound = scratch->bound;
  bound.resize(binding.size());
  for (size_t s = 0; s < bound.size(); ++s) bound[s] = binding[s] != unbound;
  std::vector<uint32_t>& order = scratch->order;
  order.resize(num_atoms);
  for (size_t i = 0; i < num_atoms; ++i) order[i] = static_cast<uint32_t>(i);
  for (size_t step = 0; step < num_atoms; ++step) {
    size_t best = step;
    int64_t best_score = 0;
    for (size_t k = step; k < num_atoms; ++k) {
      const CompiledAtom<Value> atom = target.AtomAt(order[k]);
      int64_t score = -static_cast<int64_t>(target.Base(order[k]).size);
      for (size_t pos = 0; pos < atom.arity; ++pos) {
        uint32_t s = atom.slot[pos];
        if (s == kGround || bound[s]) score += 1000000;
      }
      if (k == step || score > best_score) {
        best = k;
        best_score = score;
      }
    }
    // Rotating keeps the rest in index order, so ties go to the lower.
    std::rotate(order.begin() + step, order.begin() + best,
                order.begin() + best + 1);
    const CompiledAtom<Value> atom = target.AtomAt(order[step]);
    for (size_t pos = 0; pos < atom.arity; ++pos) {
      if (atom.slot[pos] != kGround) bound[atom.slot[pos]] = 1;
    }
  }
}

/// Backtracking over the atoms in `order` (OrderAtoms). Each atom takes its
/// candidates from the smallest list among its base list and the index
/// bucket of each bound or ground position (an empty bucket prunes); a
/// candidate binds when its ground positions match, its bound slots agree
/// and `Admits` accepts each newly bound slot. `Target` provides:
///   CompiledAtom<Value> AtomAt(uint32_t i);   source atom i
///   TupleSpan Base(uint32_t i);               its base candidate list
///   TupleSpan Bucket(uint32_t i, size_t pos, Value v);  candidates with
///                                             v at pos (unindexed: Base)
///   Value Arg(uint32_t tuple, size_t pos);
///   bool Admits(uint32_t slot, Value v);      per-variable filter
///   bool Poll();                              true stops (cancelled)
///   bool Emit();                              full binding; true stops
/// `binding` holds one value per slot (`unbound` = free), seeded by the
/// caller; it is restored on return unless the search stopped.
template <typename Value, typename Target>
class HomSearch {
 public:
  HomSearch(Target* target, const std::vector<uint32_t>& order,
            std::vector<Value>* binding, std::vector<uint32_t>* undo,
            Value unbound)
      : target_(target),
        order_(order),
        binding_(binding->data()),
        undo_(undo),
        unbound_(unbound) {
    undo->clear();
  }

  /// True when Emit or Poll stopped the search, false when it exhausted.
  bool Run() { return Extend(0); }
  /// Candidate tuples tried (the search's deterministic work count).
  size_t steps() const { return steps_; }

 private:
  bool Extend(size_t depth) {
    if (target_->Poll()) return true;
    if (depth == order_.size()) return target_->Emit();
    const uint32_t i = order_[depth];
    const CompiledAtom<Value> atom = target_->AtomAt(i);
    TupleSpan list = target_->Base(i);
    bool narrowed = false;
    for (size_t pos = 0; pos < atom.arity; ++pos) {
      uint32_t s = atom.slot[pos];
      Value v = s == kGround ? atom.ground[pos] : binding_[s];
      if (v == unbound_) continue;
      TupleSpan bucket = target_->Bucket(i, pos, v);
      if (bucket.size == 0) return false;
      // The first bucket wins a tie with the base list, as the index-only
      // search this replaced did: FindHomomorphisms' order is pinned.
      if (bucket.size < list.size || (!narrowed && bucket.size == list.size)) {
        list = bucket;
        narrowed = true;
      }
    }
    std::vector<uint32_t>& undo = *undo_;
    for (size_t k = 0; k < list.size; ++k) {
      const uint32_t tuple = list.data[k];
      ++steps_;
      const size_t mark = undo.size();
      bool ok = true;
      for (size_t pos = 0; pos < atom.arity && ok; ++pos) {
        Value d = target_->Arg(tuple, pos);
        uint32_t s = atom.slot[pos];
        if (s == kGround) {
          ok = atom.ground[pos] == d;
        } else if (binding_[s] != unbound_) {
          ok = binding_[s] == d;
        } else if (target_->Admits(s, d)) {
          binding_[s] = d;
          undo.push_back(s);
        } else {
          ok = false;
        }
      }
      if (ok && Extend(depth + 1)) return true;
      for (; undo.size() > mark; undo.pop_back()) {
        binding_[undo.back()] = unbound_;
      }
    }
    return false;
  }

  Target* target_;
  const std::vector<uint32_t>& order_;
  Value* binding_;
  std::vector<uint32_t>* undo_;
  Value unbound_;
  size_t steps_ = 0;
};

/// Admits every image (the default filter of SearchInstance).
struct AdmitAll {
  bool operator()(uint32_t, Term) const { return true; }
};

/// An Instance as the target of compiled term atoms: atom i's base list is
/// its predicate's atoms (`base[i]`, looked up once per search: the
/// instance does not change during one) and its buckets are the
/// instance's (predicate, position, term) index.
template <typename EmitFn, typename AdmitsFn>
struct InstanceTarget {
  const CompiledTerms& source;
  const Instance& to;
  const TupleSpan* base;
  CancelToken* cancel;
  EmitFn& emit;
  AdmitsFn& admits;
  bool cancelled = false;

  CompiledAtom<Term> AtomAt(uint32_t i) const { return source.atom(i); }
  TupleSpan Base(uint32_t i) const { return base[i]; }
  TupleSpan Bucket(uint32_t i, size_t pos, Term v) const {
    return SpanOf(to.FindCandidates(source.preds[i], pos, v));
  }
  Term Arg(uint32_t tuple, size_t pos) const {
    return to.atom(tuple).arg(pos);
  }
  bool Admits(uint32_t s, Term v) { return admits(s, v); }
  bool Poll() {
    if (cancel == nullptr || !cancel->Poll()) return false;
    cancelled = true;
    return true;
  }
  bool Emit() { return emit(); }
};

/// No source atom is skipped (SearchInstance's default).
inline constexpr uint32_t kNoAtom = 0xffffffffu;

/// Orders `source`'s atoms against `to` and searches from `binding` (one
/// term per slot, invalid = free), polling `cancel` per step. `emit()` runs
/// on each full binding and returns true to stop; `admits(slot, term)`
/// filters new images. Source atom `matched`, when given, is already
/// matched by the seeded binding and is left out of the search (the
/// chase's anchored trigger search; the other atoms keep their order).
/// Returns true when `emit` stopped the search, whose binding then stays
/// in `binding`; false when the search was exhausted (`binding` restored)
/// or `cancel` fired.
template <typename EmitFn, typename AdmitsFn = AdmitAll>
bool SearchInstance(const CompiledTerms& source, const Instance& to,
                    std::vector<Term>* binding, CancelToken* cancel,
                    Scratch* scratch, EmitFn emit, AdmitsFn admits = {},
                    uint32_t matched = kNoAtom) {
  scratch->base.resize(source.size());
  for (size_t i = 0; i < source.size(); ++i) {
    scratch->base[i] = i > 0 && source.preds[i] == source.preds[i - 1]
                           ? scratch->base[i - 1]
                           : SpanOf(&to.AtomsOf(source.preds[i]));
  }
  InstanceTarget<EmitFn, AdmitsFn> target{source, to, scratch->base.data(),
                                          cancel, emit, admits};
  OrderAtoms(target, source.size(), *binding, Term(), scratch);
  if (matched != kNoAtom) {
    // Its slots are all bound, so its place changed no other atom's.
    std::vector<uint32_t>& order = scratch->order;
    order.erase(std::find(order.begin(), order.end(), matched));
  }
  return HomSearch<Term, InstanceTarget<EmitFn, AdmitsFn>>(
             &target, scratch->order, binding, &scratch->undo, Term())
             .Run() &&
         !target.cancelled;
}

}  // namespace hom

}  // namespace semacyc

#endif  // SEMACYC_CORE_HOMOMORPHISM_H_
