#include "core/join_tree.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace semacyc {

JoinTreeView::JoinTreeView(const std::vector<Atom>& atoms,
                           std::vector<int> parent)
    : atoms_(&atoms), parent_(std::move(parent)) {
  assert(atoms.size() == parent_.size());
  // Chain sibling forest roots under the first root.
  for (size_t i = 0; i < parent_.size(); ++i) {
    if (parent_[i] != -1) continue;
    if (root_ == -1) {
      root_ = static_cast<int>(i);
    } else {
      parent_[i] = root_;
    }
  }
  children_.resize(parent_.size());
  for (size_t i = 0; i < parent_.size(); ++i) {
    if (parent_[i] >= 0) {
      children_[static_cast<size_t>(parent_[i])].push_back(
          static_cast<int>(i));
    }
  }
}

std::vector<int> JoinTreeView::TopDownOrder() const {
  std::vector<int> order;
  if (root_ < 0) return order;
  order.reserve(parent_.size());
  std::vector<int> stack = {root_};
  while (!stack.empty()) {
    int node = stack.back();
    stack.pop_back();
    order.push_back(node);
    for (int child : children_[static_cast<size_t>(node)]) {
      stack.push_back(child);
    }
  }
  return order;
}

std::vector<int> JoinTreeView::BottomUpOrder() const {
  std::vector<int> order = TopDownOrder();
  std::reverse(order.begin(), order.end());
  return order;
}

bool JoinTreeView::Validate(const std::vector<Term>& connecting) const {
  if (parent_.empty()) return true;
  if (root_ < 0) return false;
  std::unordered_set<Term> wanted(connecting.begin(), connecting.end());
  // For each term, walk the tree once: the nodes mentioning the term are
  // connected iff exactly one of them has a parent not mentioning it (or is
  // the root).
  for (Term t : wanted) {
    int heads = 0;
    int count = 0;
    for (size_t i = 0; i < parent_.size(); ++i) {
      if (!atom(static_cast<int>(i)).Mentions(t)) continue;
      ++count;
      int p = parent_[i];
      if (p < 0 || !atom(p).Mentions(t)) ++heads;
    }
    if (count > 0 && heads != 1) return false;
  }
  return true;
}

JoinTreeView RerootForHead(const JoinTreeView& tree,
                           const std::vector<Term>& head) {
  if (tree.size() == 0 || tree.root() < 0) return tree;
  std::unordered_set<Term> head_vars;
  for (Term h : head) {
    if (h.IsVariable()) head_vars.insert(h);
  }
  if (head_vars.empty()) return tree;

  // Depth of every node (for the closest-to-root tie break).
  const size_t n = tree.size();
  std::vector<int> depth(n, 0);
  for (int node : tree.TopDownOrder()) {
    int p = tree.parent()[static_cast<size_t>(node)];
    depth[static_cast<size_t>(node)] =
        p < 0 ? 0 : depth[static_cast<size_t>(p)] + 1;
  }

  auto cover_of = [&](int i) {
    size_t cover = 0;
    for (Term v : head_vars) {
      if (tree.atom(i).Mentions(v)) ++cover;
    }
    return cover;
  };
  int best = tree.root();
  size_t best_cover = cover_of(best);
  for (size_t i = 0; i < n; ++i) {
    size_t cover = cover_of(static_cast<int>(i));
    size_t best_i = static_cast<size_t>(best);
    if (cover > best_cover ||
        (cover == best_cover && depth[i] < depth[best_i])) {
      best = static_cast<int>(i);
      best_cover = cover;
    }
  }
  if (best == tree.root()) return tree;

  // Reverse the parent pointers along the path best -> old root; every
  // other edge keeps its orientation.
  std::vector<int> parent = tree.parent();
  int node = best;
  int prev = -1;
  while (node != -1) {
    int next = parent[static_cast<size_t>(node)];
    parent[static_cast<size_t>(node)] = prev;
    prev = node;
    node = next;
  }
  return JoinTreeView(tree.atoms(), std::move(parent));
}

}  // namespace semacyc
