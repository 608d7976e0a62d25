#include "semacyc/compaction.h"

#include <cassert>
#include <unordered_set>

#include "core/homomorphism.h"

namespace semacyc {

std::optional<CompactionResult> CompactAcyclicWitness(
    const ConjunctiveQuery& q, const Instance& acyclic_instance,
    const std::vector<Term>& target_tuple) {
  std::optional<JoinTreeView> tree =
      BuildJoinTreeView(acyclic_instance.atoms(), ConnectingTerms::kAllTerms);
  if (!tree.has_value()) return std::nullopt;

  // A homomorphism witnessing c̄ ∈ q(I).
  Substitution fixed;
  assert(target_tuple.size() == q.head().size());
  for (size_t i = 0; i < target_tuple.size(); ++i) {
    Term h = q.head()[i];
    if (!h.IsVariable()) {
      if (h != target_tuple[i]) return std::nullopt;
      continue;
    }
    auto it = fixed.find(h);
    if (it != fixed.end()) {
      if (it->second != target_tuple[i]) return std::nullopt;
    } else {
      fixed.emplace(h, target_tuple[i]);
    }
  }
  std::optional<Substitution> hom =
      FindHomomorphism(q.body(), acyclic_instance, fixed);
  if (!hom.has_value()) return std::nullopt;

  // Image nodes: join-tree nodes whose atom is an image atom.
  std::unordered_set<Atom, AtomHash> image_atoms;
  for (const Atom& a : q.body()) image_atoms.insert(Apply(*hom, a));
  const size_t n = tree->size();
  std::vector<bool> in_subforest(n, false);
  std::vector<bool> image(n, false);
  for (size_t v = 0; v < n; ++v) {
    if (image_atoms.count(tree->atoms()[v])) {
      image[v] = true;
      // Mark v and its ancestors.
      int cur = static_cast<int>(v);
      while (cur >= 0 && !in_subforest[cur]) {
        in_subforest[cur] = true;
        cur = tree->parent()[cur];
      }
    }
  }

  // Children counts inside the subforest.
  std::vector<int> sub_children(n, 0);
  for (size_t v = 0; v < n; ++v) {
    if (!in_subforest[v]) continue;
    int p = tree->parent()[v];
    if (p >= 0 && in_subforest[p]) ++sub_children[p];
  }

  // Keep: image nodes, subforest roots, and branching nodes.
  std::vector<bool> keep(n, false);
  for (size_t v = 0; v < n; ++v) {
    if (!in_subforest[v]) continue;
    int p = tree->parent()[v];
    bool is_root = (p < 0) || !in_subforest[p];
    if (image[v] || is_root || sub_children[v] >= 2) keep[v] = true;
  }

  CompactionResult result;
  for (size_t v = 0; v < n; ++v) {
    if (keep[v]) result.sub_instance.Insert(tree->atoms()[v]);
  }
  result.kept_nodes = result.sub_instance.size();
  assert(result.kept_nodes <= 2 * std::max<size_t>(q.size(), 1));
  assert(IsAcyclic(result.sub_instance.atoms(), ConnectingTerms::kAllTerms));

  result.witness = QueryFromInstance(result.sub_instance, target_tuple);
  assert(IsAcyclic(result.witness));
  return result;
}

}  // namespace semacyc
