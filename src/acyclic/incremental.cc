#include "acyclic/incremental.h"

#include <algorithm>
#include <cassert>

#include "acyclic/internal.h"

namespace semacyc::acyclic {

IncrementalClassifier::IncrementalClassifier(AcyclicityClass target)
    : target_(target),
      hereditary_(static_cast<int>(target) >=
                  static_cast<int>(AcyclicityClass::kBeta)),
      eager_(hereditary_),
      // Any two edges are mutually GYO-reducible (their shared vertices
      // are contained in either one), so α/β violations need >= 3 edges;
      // a γ-cycle needs three distinct edges too. A Berge cycle already
      // exists with two edges sharing two vertices.
      min_violating_edges_(target == AcyclicityClass::kBerge ? 2 : 3) {}

int IncrementalClassifier::Find(int v) const {
  // No path compression: rollback must be able to restore parents exactly.
  while (parent_[static_cast<size_t>(v)] != v) {
    v = parent_[static_cast<size_t>(v)];
  }
  return v;
}

void IncrementalClassifier::EnsureVertex(int v) {
  while (static_cast<size_t>(v) >= parent_.size()) {
    parent_.push_back(static_cast<int>(parent_.size()));
    size_.push_back(1);
    bad_.push_back(0);
    edge_count_.push_back(0);
    dense_id_.push_back(0);
    dense_epoch_.push_back(0);
  }
}

bool IncrementalClassifier::ComponentMeets(int root) {
  if (target_ == AcyclicityClass::kCyclic) return true;
  // Collect the component's edges and remap its vertices densely (epoch
  // stamps avoid clearing the map between calls).
  ++epoch_;
  int next_id = 0;
  work_count_ = 0;
  for (size_t f = 0; f < depth_; ++f) {
    const std::vector<int>& edge = frames_[f].edge;
    if (edge.empty() || Find(edge[0]) != root) continue;
    if (work_count_ == work_sets_.size()) work_sets_.emplace_back();
    std::vector<int>& verts = work_sets_[work_count_++];
    verts.clear();
    for (int v : edge) {
      if (dense_epoch_[static_cast<size_t>(v)] != epoch_) {
        dense_epoch_[static_cast<size_t>(v)] = epoch_;
        dense_id_[static_cast<size_t>(v)] = next_id++;
      }
      verts.push_back(dense_id_[static_cast<size_t>(v)]);
    }
    std::sort(verts.begin(), verts.end());
  }
  return ScratchMeets(next_id);
}

bool IncrementalClassifier::LazyMeets() {
  if (target_ == AcyclicityClass::kCyclic) return true;
  if (depth_ < static_cast<size_t>(min_violating_edges_)) return true;
  // One vertex bitmask per edge over dense ids (epoch stamps avoid
  // clearing the id map between calls); the path's vertex occurrences
  // bound its distinct vertices, hence the words a mask needs.
  size_t occurrences = 0;
  for (size_t f = 0; f < depth_; ++f) occurrences += frames_[f].edge.size();
  const size_t words = std::max<size_t>(1, (occurrences + 63) / 64);
  // Edge masks, then the two masks BitsetAlpha counts alive edges into.
  scr_masks_.resize((depth_ + 2) * words);
  std::fill_n(scr_masks_.begin(), depth_ * words, uint64_t{0});
  ++epoch_;
  int nv = 0;
  for (size_t f = 0; f < depth_; ++f) {
    uint64_t* mask = &scr_masks_[f * words];
    for (int v : frames_[f].edge) {
      const size_t u = static_cast<size_t>(v);
      if (dense_epoch_[u] != epoch_) {
        dense_epoch_[u] = epoch_;
        dense_id_[u] = nv++;
      }
      const size_t id = static_cast<size_t>(dense_id_[u]);
      mask[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
  return BitsetAlpha(words);
}

bool IncrementalClassifier::BitsetAlpha(size_t words) {
  // GYO reduction: drop every vertex that lies in only one alive edge,
  // then every alive edge contained in another alive edge; repeat. The
  // edges are α-acyclic iff at most one survives (the result does not
  // depend on the removal order). Masks are reduced in place; scr_live_
  // lists the alive edges.
  uint64_t* masks = scr_masks_.data();
  uint64_t* once = masks + depth_ * words;
  uint64_t* twice = once + words;  // vertices of >= 2 alive edges
  scr_live_.resize(depth_);
  for (size_t e = 0; e < depth_; ++e) scr_live_[e] = static_cast<int>(e);
  size_t alive = depth_;
  auto mask = [&](size_t i) {
    return masks + static_cast<size_t>(scr_live_[i]) * words;
  };
  while (alive > 1) {
    std::fill_n(once, 2 * words, uint64_t{0});
    for (size_t i = 0; i < alive; ++i) {
      const uint64_t* em = mask(i);
      for (size_t w = 0; w < words; ++w) {
        twice[w] |= once[w] & em[w];
        once[w] |= em[w];
      }
    }
    for (size_t i = 0; i < alive; ++i) {
      uint64_t* em = mask(i);
      for (size_t w = 0; w < words; ++w) em[w] &= twice[w];
    }
    // A removal only turns shared vertices of the removed edge into
    // private ones of its container, which the next round drops, so the
    // containment tests may run against this round's reduced masks.
    const size_t before = alive;
    for (size_t i = 0; i < alive && alive > 1;) {
      const uint64_t* em = mask(i);
      bool contained = false;
      for (size_t j = 0; j < alive && !contained; ++j) {
        if (j == i) continue;
        const uint64_t* fm = mask(j);
        contained = true;
        for (size_t w = 0; w < words && contained; ++w) {
          contained = (em[w] & ~fm[w]) == 0;
        }
      }
      if (contained) {
        scr_live_[i] = scr_live_[--alive];
      } else {
        ++i;
      }
    }
    if (alive == before) return false;
  }
  return true;
}

bool IncrementalClassifier::ScratchMeets(int nv) {
  scr_alive_.assign(work_count_, 1);
  scr_present_.assign(static_cast<size_t>(nv), 1);
  scr_deg_.assign(static_cast<size_t>(nv), 0);
  for (size_t e = 0; e < work_count_; ++e) {
    for (int v : work_sets_[e]) ++scr_deg_[static_cast<size_t>(v)];
  }
  switch (target_) {
    case AcyclicityClass::kCyclic:
    case AcyclicityClass::kAlpha:
      // Lazy targets: verdicts come from LazyMeets, never per component.
      return true;
    case AcyclicityClass::kBeta:
      return ScratchBeta(nv);
    case AcyclicityClass::kGamma:
      return ScratchGamma(nv);
    case AcyclicityClass::kBerge:
      return ScratchBerge(nv);
  }
  return false;
}

bool IncrementalClassifier::ScratchBeta(int nv) {
  int remaining = nv;
  bool progress = true;
  while (progress && remaining > 0) {
    progress = false;
    for (int v = 0; v < nv; ++v) {
      if (!scr_present_[static_cast<size_t>(v)]) continue;
      // Incident edge sets must form a chain under inclusion.
      scr_inc_.clear();
      for (size_t e = 0; e < work_count_; ++e) {
        if (std::binary_search(work_sets_[e].begin(), work_sets_[e].end(),
                               v)) {
          scr_inc_.push_back(static_cast<int>(e));
        }
      }
      std::sort(scr_inc_.begin(), scr_inc_.end(), [this](int a, int b) {
        return work_sets_[static_cast<size_t>(a)].size() <
               work_sets_[static_cast<size_t>(b)].size();
      });
      bool chain = true;
      for (size_t i = 0; i + 1 < scr_inc_.size() && chain; ++i) {
        chain = internal::IsSubsetSorted(
            work_sets_[static_cast<size_t>(scr_inc_[i])],
            work_sets_[static_cast<size_t>(scr_inc_[i + 1])]);
      }
      if (!chain) continue;
      for (int e : scr_inc_) {
        std::vector<int>& s = work_sets_[static_cast<size_t>(e)];
        s.erase(std::lower_bound(s.begin(), s.end(), v));
      }
      scr_present_[static_cast<size_t>(v)] = 0;
      --remaining;
      progress = true;
    }
  }
  return remaining == 0;
}

bool IncrementalClassifier::ScratchGamma(int nv) {
  int verts_left = nv;
  int edges_left = static_cast<int>(work_count_);
  auto drop_edge = [&](size_t e) {
    scr_alive_[e] = 0;
    --edges_left;
    for (int v : work_sets_[e]) --scr_deg_[static_cast<size_t>(v)];
  };
  auto drop_vertex = [&](int v) {
    for (size_t e = 0; e < work_count_; ++e) {
      if (!scr_alive_[e]) continue;
      std::vector<int>& s = work_sets_[e];
      auto it = std::lower_bound(s.begin(), s.end(), v);
      if (it != s.end() && *it == v) s.erase(it);
    }
    scr_present_[static_cast<size_t>(v)] = 0;
    scr_deg_[static_cast<size_t>(v)] = 0;
    --verts_left;
  };
  bool changed = true;
  while (changed && (verts_left > 0 || edges_left > 0)) {
    changed = false;
    for (size_t e = 0; e < work_count_; ++e) {
      if (!scr_alive_[e]) continue;
      if (work_sets_[e].size() <= 1) {
        drop_edge(e);
        changed = true;
        continue;
      }
      for (size_t f = 0; f < e; ++f) {
        if (scr_alive_[f] && work_sets_[f] == work_sets_[e]) {
          drop_edge(e);
          changed = true;
          break;
        }
      }
    }
    for (int v = 0; v < nv; ++v) {
      if (scr_present_[static_cast<size_t>(v)] &&
          scr_deg_[static_cast<size_t>(v)] <= 1) {
        drop_vertex(v);
        changed = true;
      }
    }
    for (int v = 0; v < nv; ++v) {
      if (!scr_present_[static_cast<size_t>(v)]) continue;
      for (int u = v + 1; u < nv; ++u) {
        if (!scr_present_[static_cast<size_t>(u)]) continue;
        bool twins = true;
        for (size_t e = 0; e < work_count_ && twins; ++e) {
          if (!scr_alive_[e]) continue;
          twins = std::binary_search(work_sets_[e].begin(),
                                     work_sets_[e].end(), v) ==
                  std::binary_search(work_sets_[e].begin(),
                                     work_sets_[e].end(), u);
        }
        if (twins) {
          drop_vertex(u);
          changed = true;
        }
      }
    }
  }
  return verts_left == 0 && edges_left == 0;
}

bool IncrementalClassifier::ScratchBerge(int nv) {
  // Union-find over vertices ∪ edges without path compression; a closing
  // incidence is a Berge cycle.
  scr_parent_.resize(static_cast<size_t>(nv) + work_count_);
  for (size_t i = 0; i < scr_parent_.size(); ++i) {
    scr_parent_[i] = static_cast<int>(i);
  }
  auto find = [&](int x) {
    while (scr_parent_[static_cast<size_t>(x)] != x) {
      x = scr_parent_[static_cast<size_t>(x)];
    }
    return x;
  };
  for (size_t e = 0; e < work_count_; ++e) {
    int edge_node = nv + static_cast<int>(e);
    for (int v : work_sets_[e]) {
      int rv = find(v);
      int re = find(edge_node);
      if (rv == re) return false;
      scr_parent_[static_cast<size_t>(rv)] = re;
    }
  }
  return true;
}

bool IncrementalClassifier::PushEdge(const std::vector<int>& verts) {
  ++pushes_;
  const bool skip_decider = CannotRecover();
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& f = frames_[depth_];
  ++depth_;
  f.edge.assign(verts.begin(), verts.end());
  f.unions.clear();
  f.old_roots.clear();
  f.new_root = -1;
  f.new_bad = 0;
  for (int v : f.edge) {
    assert(v >= 0);
    EnsureVertex(v);
  }
  // Lazy targets keep only the edge stack; verdicts are computed on
  // demand in Meets().
  if (!eager_) return true;
  std::sort(f.edge.begin(), f.edge.end());
  f.edge.erase(std::unique(f.edge.begin(), f.edge.end()), f.edge.end());

  // An empty edge (an atom with no connecting terms) is its own trivial
  // component and satisfies every class — even as a duplicate.
  if (f.edge.empty()) return Meets();

  // Distinct pre-push roots among the edge's vertices, with their state.
  int merged_edges = 1;
  for (int v : f.edge) {
    int r = Find(v);
    bool seen = false;
    for (const RootState& s : f.old_roots) {
      if (s.root == r) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    f.old_roots.push_back({r, bad_[static_cast<size_t>(r)],
                           edge_count_[static_cast<size_t>(r)]});
    merged_edges += edge_count_[static_cast<size_t>(r)];
  }

  // Merge everything into one component (union by size, logged).
  int acc = Find(f.edge[0]);
  for (size_t i = 1; i < f.edge.size(); ++i) {
    int r = Find(f.edge[i]);
    if (r == acc) continue;
    if (size_[static_cast<size_t>(acc)] < size_[static_cast<size_t>(r)]) {
      std::swap(acc, r);
    }
    parent_[static_cast<size_t>(r)] = acc;
    size_[static_cast<size_t>(acc)] += size_[static_cast<size_t>(r)];
    f.unions.push_back({r, acc});
  }
  f.new_root = acc;

  if (skip_decider) {
    // Hereditary target already violated: this frame pops before the
    // violating one (stack discipline), so the merged component's verdict
    // is only needed for consistent accounting — and hereditarily, a
    // component absorbing a bad one stays bad.
    for (const RootState& s : f.old_roots) {
      if (s.bad) f.new_bad = 1;
    }
  } else if (merged_edges < min_violating_edges_) {
    // Too few edges to contain any cycle of the target kind. (No merged
    // root can be bad either: bad components run the decider, which needs
    // at least min_violating_edges_ edges.)
    f.new_bad = 0;
  } else {
    f.new_bad = ComponentMeets(f.new_root) ? 0 : 1;
  }

  for (const RootState& s : f.old_roots) {
    if (s.bad) --bad_components_;
  }
  bad_[static_cast<size_t>(f.new_root)] = f.new_bad;
  edge_count_[static_cast<size_t>(f.new_root)] = merged_edges;
  if (f.new_bad) ++bad_components_;
  return Meets();
}

void IncrementalClassifier::PopEdge() {
  assert(depth_ > 0);
  ++pops_;
  Frame& f = frames_[depth_ - 1];
  if (!f.edge.empty()) {
    if (f.new_bad) --bad_components_;
    for (auto it = f.unions.rbegin(); it != f.unions.rend(); ++it) {
      const auto& [child, par] = *it;
      parent_[static_cast<size_t>(child)] = child;
      size_[static_cast<size_t>(par)] -= size_[static_cast<size_t>(child)];
    }
    for (const RootState& s : f.old_roots) {
      bad_[static_cast<size_t>(s.root)] = s.bad;
      edge_count_[static_cast<size_t>(s.root)] = s.edge_count;
      if (s.bad) ++bad_components_;
    }
  }
  --depth_;
}

}  // namespace semacyc::acyclic
