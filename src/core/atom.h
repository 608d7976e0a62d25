#ifndef SEMACYC_CORE_ATOM_H_
#define SEMACYC_CORE_ATOM_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/term.h"

namespace semacyc {

/// Interned relation symbol. A predicate is identified by (name, arity);
/// the same name with different arities yields distinct predicates (this
/// is what the connecting operator of §4 relies on when it widens arities).
class Predicate {
 public:
  constexpr Predicate() : id_(kInvalidId) {}

  /// Interns (or looks up) the predicate `name/arity`.
  static Predicate Get(const std::string& name, int arity);

  bool IsValid() const { return id_ != kInvalidId; }
  uint32_t id() const { return id_; }
  const std::string& name() const;
  int arity() const;
  std::string ToString() const;  // "name/arity"

  friend bool operator==(Predicate a, Predicate b) { return a.id_ == b.id_; }
  friend bool operator!=(Predicate a, Predicate b) { return a.id_ != b.id_; }
  friend bool operator<(Predicate a, Predicate b) { return a.id_ < b.id_; }

 private:
  static constexpr uint32_t kInvalidId = 0xffffffffu;
  explicit Predicate(uint32_t id) : id_(id) {}
  uint32_t id_;
};

struct PredicateHash {
  size_t operator()(Predicate p) const {
    return std::hash<uint32_t>{}(p.id());
  }
};

/// A relational atom R(t1,...,tn). Terms may be constants, nulls or
/// variables depending on context (query bodies contain no nulls; instances
/// contain no variables).
class Atom {
 public:
  Atom() = default;
  Atom(Predicate pred, std::vector<Term> args);
  Atom(Predicate pred, std::initializer_list<Term> args);

  Predicate predicate() const { return pred_; }
  const std::vector<Term>& args() const { return args_; }
  size_t arity() const { return args_.size(); }
  Term arg(size_t i) const { return args_[i]; }

  /// True if any argument has the given kind.
  bool MentionsKind(TermKind kind) const;
  /// True if some argument equals `t`.
  bool Mentions(Term t) const;

  /// The distinct terms of the atom, in first-occurrence order.
  std::vector<Term> DistinctTerms() const;

  std::string ToString() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.pred_ == b.pred_ && a.args_ == b.args_;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
  friend bool operator<(const Atom& a, const Atom& b);

 private:
  Predicate pred_;
  std::vector<Term> args_;
};

/// A non-owning view of an atom: its predicate and `arity` arguments at
/// `args`. The witness searches push atoms whose arguments sit in pooled
/// per-depth scratch, so no Atom is built for a pushed tuple.
struct AtomView {
  Predicate pred;
  const Term* args;
  size_t arity;

  static AtomView Of(const Atom& a) {
    return {a.predicate(), a.args().data(), a.arity()};
  }
};

struct AtomHash {
  size_t operator()(const Atom& a) const {
    size_t seed = PredicateHash{}(a.predicate());
    for (Term t : a.args()) HashCombine(&seed, TermHash{}(t));
    return seed;
  }
};

/// Renders a list of atoms as "R(x,y), S(y,z)".
std::string AtomsToString(const std::vector<Atom>& atoms);

}  // namespace semacyc

#endif  // SEMACYC_CORE_ATOM_H_
