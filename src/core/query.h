#ifndef SEMACYC_CORE_QUERY_H_
#define SEMACYC_CORE_QUERY_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/atom.h"
#include "core/instance.h"

namespace semacyc {

/// A mapping from terms to terms (homomorphisms, substitutions, freezings).
using Substitution = std::unordered_map<Term, Term, TermHash>;

/// Applies `sub` to `t`: mapped terms are replaced, all others kept.
Term Apply(const Substitution& sub, Term t);
/// Applies `sub` to every argument of `atom`.
Atom Apply(const Substitution& sub, const Atom& atom);
/// Applies `sub` to every atom.
std::vector<Atom> Apply(const Substitution& sub,
                        const std::vector<Atom>& atoms);

/// A conjunctive query q(x̄) := ∃ȳ (R1(v̄1) ∧ ... ∧ Rm(v̄m)), §2 of the
/// paper. The head lists the free variables x̄ (possibly with repetitions);
/// body atoms contain variables and constants, never nulls.
class ConjunctiveQuery {
 public:
  ConjunctiveQuery() = default;
  /// Builds a query; aborts (assert) if the body mentions nulls. A head
  /// variable missing from the body makes the query unsafe: ParseQuery
  /// rejects it, and Engine::Prepare marks it (see UnboundHeadVariable).
  ConjunctiveQuery(std::vector<Term> head, std::vector<Atom> body);

  const std::vector<Term>& head() const { return head_; }
  const std::vector<Atom>& body() const { return body_; }
  size_t arity() const { return head_.size(); }
  bool IsBoolean() const { return head_.empty(); }
  size_t size() const { return body_.size(); }  // |q| = number of atoms
  /// The first head variable that occurs in no body atom (the query is
  /// then unsafe), or nullopt for a safe query.
  std::optional<Term> UnboundHeadVariable() const;

  /// All variables of the query in first-occurrence order (head first).
  std::vector<Term> Variables() const;
  /// The distinct head variables in first-occurrence order.
  std::vector<Term> FreeVariables() const;
  /// Variables occurring in the body but not in the head.
  std::vector<Term> ExistentialVariables() const;

  /// Groups body-atom indices into Gaifman-connected components (two atoms
  /// are connected when they share a variable; constants do not connect).
  std::vector<std::vector<int>> ConnectedComponents() const;
  bool IsConnected() const { return ConnectedComponents().size() <= 1; }

  /// Applies a variable renaming/substitution to head and body.
  ConjunctiveQuery Substitute(const Substitution& sub) const;

  /// Returns a copy with fresh variable names, disjoint from any query
  /// produced earlier (used before combining two queries).
  ConjunctiveQuery RenameApart() const;

  /// Approximate heap footprint (cache byte accounting): head and body
  /// payload plus per-atom vector overhead. Deterministic, O(|q|).
  size_t ApproxBytes() const;

  std::string ToString() const;

  friend bool operator==(const ConjunctiveQuery& a, const ConjunctiveQuery& b) {
    return a.head_ == b.head_ && a.body_ == b.body_;
  }

 private:
  std::vector<Term> head_;
  std::vector<Atom> body_;
};

/// A non-owning view of a conjunctive query: `arity` head terms at `head`
/// and `size` body atoms at `body`. The witness searches hand their
/// candidates to the containment oracle as views, so no query is built for
/// a candidate the oracle refutes.
struct QueryView {
  const Term* head;
  size_t arity;
  const AtomView* body;
  size_t size;

  /// A view of `q` whose body views are written to `*atoms`.
  static QueryView Of(const ConjunctiveQuery& q, std::vector<AtomView>* atoms);
  /// The query the view shows.
  ConjunctiveQuery ToQuery() const;
};

/// The one freeze routine, behind Freeze, ChaseQuery and the containment
/// oracle's per-candidate chase. Number() numbers a query's distinct
/// variables in first-occurrence order, head first (the order of
/// ConjunctiveQuery::Variables()); Write() writes the query with variable
/// k replaced by images[k]. The numbering table keeps its capacity, so a
/// freezer reused across queries allocates only the written atoms.
class QueryFreezer {
 public:
  /// Numbers the variables of `q`; returns how many it has.
  size_t Number(QueryView q);
  /// The variables Number() found, variable k at index k.
  const std::vector<Term>& variables() const& { return vars_; }
  std::vector<Term> variables() && { return std::move(vars_); }
  /// Inserts the body of `q` (the query last numbered) into `*instance`
  /// and sets `*frozen_head` to its head, each variable replaced by its
  /// image; constants are kept.
  void Write(QueryView q, const Term* images, Instance* instance,
             std::vector<Term>* frozen_head) const;

 private:
  FlatKeyTable ids_;  // variable bits -> its number
  std::vector<Term> vars_;
};

/// A frozen query: the canonical database D_q of §2/§5 plus the image of the
/// head under the freezing substitution c(·).
struct FrozenQuery {
  Instance instance;
  std::vector<Term> frozen_head;
  Substitution var_to_frozen;  // variable -> frozen term
};

/// Freezes `q` by replacing each variable x with the canonical constant
/// c(x) (kind = kConstant) or with a fresh null (kind = kNull). Constants in
/// the body are kept. The paper freezes with "special constants treated as
/// nulls"; callers that chase with egds freeze to nulls so the chase can
/// merge them.
FrozenQuery Freeze(const ConjunctiveQuery& q,
                   TermKind freeze_kind = TermKind::kConstant);

/// Mints a fresh variable with a reserved name ("v$<n>") that the parser
/// can never produce.
Term FreshVariable();

/// Inverse of freezing: converts an instance (e.g. a sub-instance of a
/// chase) back into a query. Every null and every term in `rename` becomes
/// a variable; other constants are kept. `head_terms` lists the instance
/// terms that become the head, in order (they must occur in the instance).
ConjunctiveQuery QueryFromInstance(const Instance& instance,
                                   const std::vector<Term>& head_terms);

/// Same inverse freezing over a bare atom list — the candidate-pipeline
/// fast path: building an Instance (with its inverted indexes) per DFS
/// node just to convert it back into a query is pure overhead.
ConjunctiveQuery QueryFromAtoms(const std::vector<Atom>& atoms,
                                const std::vector<Term>& head_terms);

/// A union of conjunctive queries (§5). All disjuncts share the head arity.
class UnionQuery {
 public:
  UnionQuery() = default;
  explicit UnionQuery(std::vector<ConjunctiveQuery> disjuncts);

  const std::vector<ConjunctiveQuery>& disjuncts() const { return disjuncts_; }
  size_t size() const { return disjuncts_.size(); }
  bool empty() const { return disjuncts_.empty(); }
  void Add(ConjunctiveQuery q) { disjuncts_.push_back(std::move(q)); }

  /// The height of the UCQ: the maximal size of its disjuncts (§5).
  size_t Height() const;

  std::string ToString() const;

 private:
  std::vector<ConjunctiveQuery> disjuncts_;
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_QUERY_H_
