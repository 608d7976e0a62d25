#ifndef SEMACYC_ACYCLIC_GAMMA_H_
#define SEMACYC_ACYCLIC_GAMMA_H_

#include <vector>

#include "acyclic/hypergraph.h"

namespace semacyc::acyclic {

/// Result of the γ-acyclicity decision.
///
/// γ-acyclicity (Fagin; D'Atri–Moscarini) is decided by a confluent
/// reduction that repeatedly applies five rules; the hypergraph is
/// γ-acyclic iff the reduction erases every vertex and every edge. Each
/// applied rule is recorded, so the trace is a replayable certificate.
/// None of the rules can destroy a γ-cycle (a γ-cycle never goes through
/// an isolated vertex, a singleton edge, or both twins of a duplicated
/// vertex/edge), and the exhaustive ≤4-edge cross-check in
/// tests/acyclic_test.cc pins the reduction against the literal
/// no-γ-cycle definition.
struct GammaResult {
  enum class Rule {
    kIsolatedVertex,   // vertex in at most one edge: drop it
    kDuplicateVertex,  // two vertices in exactly the same edges: drop one
    kEmptyEdge,        // edge with no vertices left: drop it
    kSingletonEdge,    // one-vertex edge: drop it
    kDuplicateEdge,    // two edges with equal vertex sets: drop one
  };
  struct Step {
    Rule rule;
    int vertex = -1;   // subject of the vertex rules
    int edge = -1;     // subject of the edge rules
    int partner = -1;  // surviving twin for the duplicate rules
  };

  bool gamma_acyclic = false;
  std::vector<Step> trace;
};

/// Worklist reduction: a vertex is re-examined only when an incident edge
/// dies (the only events that change its degree or incidence signature),
/// an edge only when it shrinks (the only event that can make it empty, a
/// singleton, or a duplicate). Near-linear on deep Berge trees, where a
/// round-based sweep of all five rules would pay O(depth) full rescans.
GammaResult DecideGamma(const Hypergraph& hg);

}  // namespace semacyc::acyclic

#endif  // SEMACYC_ACYCLIC_GAMMA_H_
