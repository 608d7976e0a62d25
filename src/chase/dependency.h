#ifndef SEMACYC_CHASE_DEPENDENCY_H_
#define SEMACYC_CHASE_DEPENDENCY_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/parser.h"
#include "core/query.h"

namespace semacyc {

/// A tuple-generating dependency φ(x̄,ȳ) → ∃z̄ ψ(x̄,z̄) (§2). Body and head
/// are conjunctions of atoms over variables and constants; head variables
/// that do not occur in the body are (implicitly) existentially quantified.
class Tgd {
 public:
  Tgd() = default;
  Tgd(std::vector<Atom> body, std::vector<Atom> head);

  const std::vector<Atom>& body() const { return body_; }
  const std::vector<Atom>& head() const { return head_; }

  /// Distinct variables of the body, in first-occurrence order.
  const std::vector<Term>& body_variables() const { return body_vars_; }
  /// Body variables that also occur in the head (the frontier x̄).
  const std::vector<Term>& frontier() const { return frontier_; }
  /// Head variables that do not occur in the body (the z̄).
  const std::vector<Term>& existential_variables() const {
    return existential_vars_;
  }

  /// No existentially quantified head variables (Datalog rule).
  bool IsFull() const { return existential_vars_.empty(); }
  /// Some body atom (a guard) contains all body variables.
  bool IsGuarded() const;
  /// Index of a guard atom, or -1.
  int GuardIndex() const;
  /// Single-atom body.
  bool IsLinear() const { return body_.size() == 1; }
  /// Linear, single head atom, and no repeated variables in body or head.
  bool IsInclusionDependency() const;
  /// The Gaifman graph of the body is connected (§3.2).
  bool IsBodyConnected() const;

  std::string ToString() const;

 private:
  std::vector<Atom> body_;
  std::vector<Atom> head_;
  std::vector<Term> body_vars_;
  std::vector<Term> frontier_;
  std::vector<Term> existential_vars_;
};

/// An equality-generating dependency φ(x̄) → x_i = x_j (§2).
class Egd {
 public:
  Egd() = default;
  Egd(std::vector<Atom> body, Term lhs, Term rhs);

  const std::vector<Atom>& body() const { return body_; }
  Term lhs() const { return lhs_; }
  Term rhs() const { return rhs_; }

  std::string ToString() const;

 private:
  std::vector<Atom> body_;
  Term lhs_;
  Term rhs_;
};

/// A functional dependency R : A → B over attribute positions (1-based in
/// the paper; 0-based here). Compiles to egds; IsKey per §2.
struct FunctionalDependency {
  Predicate predicate;
  std::vector<int> lhs;
  std::vector<int> rhs;

  /// One egd per right-hand attribute (the paper's encoding).
  std::vector<Egd> ToEgds() const;
  /// A ∪ B covers all attributes.
  bool IsKey() const;
  /// |A| = 1 (unary FD; Theorem 23's extension / [Figueira]).
  bool IsUnary() const { return lhs.size() == 1; }

  std::string ToString() const;
};

/// A finite set of dependencies: tgds and/or egds.
struct DependencySet {
  std::vector<Tgd> tgds;
  std::vector<Egd> egds;

  bool HasTgds() const { return !tgds.empty(); }
  bool HasEgds() const { return !egds.empty(); }
  size_t size() const { return tgds.size() + egds.size(); }

  /// Predicates mentioned anywhere in the set.
  std::vector<Predicate> Predicates() const;

  std::string ToString() const;
};

/// Parses one dependency: "body -> head" where head is an atom list (tgd)
/// or "x = y" (egd). See core/parser.h for the token syntax.
ParseResult<Tgd> ParseTgd(std::string_view text);
ParseResult<Egd> ParseEgd(std::string_view text);

/// Parses a whole set: statements separated by '.' or newlines; '%'
/// comments allowed.
ParseResult<DependencySet> ParseDependencySet(std::string_view text);

Tgd MustParseTgd(std::string_view text);
Egd MustParseEgd(std::string_view text);
DependencySet MustParseDependencySet(std::string_view text);

}  // namespace semacyc

#endif  // SEMACYC_CHASE_DEPENDENCY_H_
