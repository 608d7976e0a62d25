#include "acyclic/gamma.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "acyclic/internal.h"

namespace semacyc::acyclic {

using internal::HashInts;

GammaResult DecideGamma(const Hypergraph& hg) {
  GammaResult result;
  std::vector<std::vector<int>> set(hg.edges);
  const size_t m = set.size();
  const size_t n = static_cast<size_t>(hg.num_vertices);
  std::vector<char> alive(m, 1);
  std::vector<char> present(n, 0);
  std::vector<int> deg(n, 0);
  std::vector<std::vector<int>> incidence = BuildIncidence(hg);
  int vertices_left = 0;
  int edges_left = static_cast<int>(m);
  for (const auto& e : hg.edges) {
    for (int v : e) {
      if (!present[static_cast<size_t>(v)]) {
        present[static_cast<size_t>(v)] = 1;
        ++vertices_left;
      }
      ++deg[static_cast<size_t>(v)];
    }
  }

  // Worklists. An edge is queued when it shrinks (may have become empty, a
  // singleton, or a duplicate of another edge); a vertex when an incident
  // edge dies (its degree drops and its incidence signature changes — the
  // only events that can make it isolated or a duplicate). Everything is
  // queued once up front.
  std::vector<char> equeued(m, 0);
  std::vector<char> vqueued(n, 0);
  std::vector<int> equeue;
  std::vector<int> vqueue;
  auto push_edge = [&](int e) {
    if (alive[static_cast<size_t>(e)] && !equeued[static_cast<size_t>(e)]) {
      equeued[static_cast<size_t>(e)] = 1;
      equeue.push_back(e);
    }
  };
  auto push_vertex = [&](int v) {
    if (present[static_cast<size_t>(v)] && !vqueued[static_cast<size_t>(v)]) {
      vqueued[static_cast<size_t>(v)] = 1;
      vqueue.push_back(v);
    }
  };

  auto drop_vertex = [&](int v, GammaResult::Rule rule, int partner) {
    // Removing v shrinks every alive incident edge; those edges are the
    // only objects whose rule status changes.
    std::vector<int>& inc = incidence[static_cast<size_t>(v)];
    size_t out = 0;
    for (int e : inc) {
      if (!alive[static_cast<size_t>(e)]) continue;
      inc[out++] = e;
      std::vector<int>& s = set[static_cast<size_t>(e)];
      auto it = std::lower_bound(s.begin(), s.end(), v);
      if (it != s.end() && *it == v) {
        s.erase(it);
        push_edge(e);
      }
    }
    inc.resize(out);
    present[static_cast<size_t>(v)] = 0;
    deg[static_cast<size_t>(v)] = 0;
    --vertices_left;
    result.trace.push_back({rule, v, -1, partner});
  };
  auto drop_edge = [&](int e, GammaResult::Rule rule, int partner) {
    alive[static_cast<size_t>(e)] = 0;
    --edges_left;
    for (int v : set[static_cast<size_t>(e)]) {
      --deg[static_cast<size_t>(v)];
      push_vertex(v);
    }
    result.trace.push_back({rule, -1, e, partner});
  };

  /// The alive incident edges of v, ascending (BuildIncidence emits edges
  /// in index order and compaction preserves it). While v is present every
  /// alive incident edge still contains v, so this is exactly v's
  /// incidence signature.
  auto signature_of = [&](int v) {
    std::vector<int>& inc = incidence[static_cast<size_t>(v)];
    size_t out = 0;
    for (int e : inc) {
      if (alive[static_cast<size_t>(e)]) inc[out++] = e;
    }
    inc.resize(out);
    return inc;  // by value of the compacted list
  };

  // Duplicate detection buckets. Entries go stale as sets/signatures
  // shrink (a changed object is requeued and re-inserted under its new
  // hash), so candidates are always re-verified against current content.
  std::unordered_map<uint64_t, std::vector<int>> edge_buckets;
  std::unordered_map<uint64_t, std::vector<int>> vertex_buckets;

  for (size_t e = 0; e < m; ++e) push_edge(static_cast<int>(e));
  for (size_t v = 0; v < n; ++v) push_vertex(static_cast<int>(v));

  size_t ehead = 0;
  size_t vhead = 0;
  while (ehead < equeue.size() || vhead < vqueue.size()) {
    if (ehead < equeue.size()) {
      int e = equeue[ehead++];
      equeued[static_cast<size_t>(e)] = 0;
      if (!alive[static_cast<size_t>(e)]) continue;
      const std::vector<int>& s = set[static_cast<size_t>(e)];
      if (s.empty()) {
        drop_edge(e, GammaResult::Rule::kEmptyEdge, -1);
        continue;
      }
      if (s.size() == 1) {
        drop_edge(e, GammaResult::Rule::kSingletonEdge, -1);
        continue;
      }
      std::vector<int>& twins = edge_buckets[HashInts(s)];
      int rep = -1;
      for (int r : twins) {
        if (r != e && alive[static_cast<size_t>(r)] &&
            set[static_cast<size_t>(r)] == s) {
          rep = r;
          break;
        }
      }
      if (rep >= 0) {
        drop_edge(e, GammaResult::Rule::kDuplicateEdge, rep);
      } else {
        twins.push_back(e);
      }
      continue;
    }
    int v = vqueue[vhead++];
    vqueued[static_cast<size_t>(v)] = 0;
    if (!present[static_cast<size_t>(v)]) continue;
    if (deg[static_cast<size_t>(v)] <= 1) {
      drop_vertex(v, GammaResult::Rule::kIsolatedVertex, -1);
      continue;
    }
    const std::vector<int> sig = signature_of(v);
    std::vector<int>& twins = vertex_buckets[HashInts(sig)];
    int rep = -1;
    for (int r : twins) {
      if (r != v && present[static_cast<size_t>(r)] &&
          signature_of(r) == sig) {
        rep = r;
        break;
      }
    }
    if (rep >= 0) {
      drop_vertex(v, GammaResult::Rule::kDuplicateVertex, rep);
    } else {
      twins.push_back(v);
    }
  }

  result.gamma_acyclic = (vertices_left == 0 && edges_left == 0);
  return result;
}

}  // namespace semacyc::acyclic
