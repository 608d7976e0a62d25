#ifndef SEMACYC_CORE_JOIN_TREE_H_
#define SEMACYC_CORE_JOIN_TREE_H_

#include <vector>

#include "core/atom.h"

namespace semacyc {

/// A join tree of a set of atoms (§2): nodes are the atoms themselves; for
/// every connecting term t, the nodes whose atom mentions t induce a
/// connected subtree.
///
/// A view over a caller-owned atom vector: nodes reference the atoms in
/// place, so building one per evaluation costs only the integer
/// parent/children arrays (eval/yannakakis builds a view per call instead
/// of copying every atom; see the GyoResult parent array). The atom vector
/// must outlive the view. Sibling forest roots are chained under the
/// first root (distinct components share no connecting terms, so the
/// running-intersection property is preserved).
class JoinTreeView {
 public:
  JoinTreeView() = default;
  /// `parent` is a GYO join forest over indices into `atoms` (same order).
  JoinTreeView(const std::vector<Atom>& atoms, std::vector<int> parent);

  const Atom& atom(int i) const { return (*atoms_)[static_cast<size_t>(i)]; }
  const std::vector<Atom>& atoms() const { return *atoms_; }
  const std::vector<int>& parent() const { return parent_; }
  const std::vector<std::vector<int>>& children() const { return children_; }
  int root() const { return root_; }
  size_t size() const { return parent_.size(); }

  /// Nodes in a top-down (parent before child) order.
  std::vector<int> TopDownOrder() const;
  /// Nodes in a bottom-up (child before parent) order.
  std::vector<int> BottomUpOrder() const;

  /// Checks the running-intersection property for the given terms: for each
  /// term in `connecting`, the atoms mentioning it must induce a connected
  /// subtree. Returns false on any violation.
  bool Validate(const std::vector<Term>& connecting) const;

 private:
  const std::vector<Atom>* atoms_ = nullptr;
  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  int root_ = -1;
};

/// Re-roots `tree` at the node whose atom mentions the most distinct head
/// variables (ties keep the node closest to the current root — the current
/// root itself when it ties for best). A join tree is undirected, so any
/// rooting preserves the running-intersection property; the choice matters
/// for evaluation cost: Yannakakis' answer-assembly DP carries head
/// variables from wherever they occur up to the root, so a root far from
/// them materializes intermediates of size Θ(|D| · |answers-so-far|) —
/// quadratic on e.g. a path query whose one head variable sits at the far
/// end of the chain. Rooting at a head-covering atom keeps every carried
/// column local and the DP linear. Boolean queries (no head variables)
/// come back unchanged.
JoinTreeView RerootForHead(const JoinTreeView& tree,
                           const std::vector<Term>& head);

}  // namespace semacyc

#endif  // SEMACYC_CORE_JOIN_TREE_H_
