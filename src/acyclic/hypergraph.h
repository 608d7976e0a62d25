#ifndef SEMACYC_ACYCLIC_HYPERGRAPH_H_
#define SEMACYC_ACYCLIC_HYPERGRAPH_H_

#include <cstddef>
#include <vector>

namespace semacyc::acyclic {

/// The acyclicity engine's own hypergraph representation: vertices are the
/// integers [0, num_vertices), edges are sorted duplicate-free vertex lists.
///
/// This layer is deliberately below core/ — it knows nothing about terms,
/// atoms or queries. core/hypergraph.cc adapts term-keyed hypergraphs into
/// this form (interning terms as vertex ids) and delegates all acyclicity
/// reasoning here. Edge indices are preserved by every algorithm so callers
/// can map results (join forests, elimination orders) back onto their atoms.
struct Hypergraph {
  int num_vertices = 0;
  std::vector<std::vector<int>> edges;

  /// Appends an edge; the vertex list is sorted and deduplicated, and
  /// num_vertices is raised to cover every mentioned vertex. Returns the
  /// edge index.
  int AddEdge(std::vector<int> verts);

  size_t NumEdges() const { return edges.size(); }
};

/// Per-vertex incidence lists: incidence[v] = indices of edges containing v.
std::vector<std::vector<int>> BuildIncidence(const Hypergraph& hg);

}  // namespace semacyc::acyclic

#endif  // SEMACYC_ACYCLIC_HYPERGRAPH_H_
