#include "acyclic/hypergraph.h"

#include <algorithm>

namespace semacyc::acyclic {

int Hypergraph::AddEdge(std::vector<int> verts) {
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  if (!verts.empty() && verts.back() >= num_vertices) {
    num_vertices = verts.back() + 1;
  }
  edges.push_back(std::move(verts));
  return static_cast<int>(edges.size()) - 1;
}

std::vector<std::vector<int>> BuildIncidence(const Hypergraph& hg) {
  std::vector<std::vector<int>> incidence(
      static_cast<size_t>(hg.num_vertices));
  for (size_t e = 0; e < hg.edges.size(); ++e) {
    for (int v : hg.edges[e]) {
      incidence[static_cast<size_t>(v)].push_back(static_cast<int>(e));
    }
  }
  return incidence;
}

}  // namespace semacyc::acyclic
