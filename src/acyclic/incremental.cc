#include "acyclic/incremental.h"

#include <algorithm>
#include <cassert>

#include "acyclic/internal.h"

namespace semacyc::acyclic {

IncrementalClassifier::IncrementalClassifier(AcyclicityClass target)
    : target_(target),
      hereditary_(static_cast<int>(target) >=
                  static_cast<int>(AcyclicityClass::kBeta)),
      // Any two edges are mutually GYO-reducible (their shared vertices
      // are contained in either one), so α/β violations need >= 3 edges;
      // a γ-cycle needs three distinct edges too. A Berge cycle already
      // exists with two edges sharing two vertices.
      min_violating_edges_(target == AcyclicityClass::kBerge ? 2 : 3) {}

void IncrementalClassifier::EnsureVertex(int v) {
  if (static_cast<size_t>(v) >= vertices_.size()) {
    vertices_.resize(static_cast<size_t>(v) + 1);
  }
}

bool IncrementalClassifier::StackMeets() {
  // Intern the stack's edges with dense vertex ids (epoch stamps avoid
  // clearing the map between calls).
  ++epoch_;
  int next_id = 0;
  work_count_ = 0;
  for (size_t f = 0; f < depth_; ++f) {
    if (work_count_ == work_sets_.size()) work_sets_.emplace_back();
    std::vector<int>& verts = work_sets_[work_count_++];
    verts.clear();
    for (int v : edges_[f].verts) {
      VertexSlot& slot = vertices_[static_cast<size_t>(v)];
      if (slot.epoch != epoch_) {
        slot.epoch = epoch_;
        slot.dense_id = next_id++;
      }
      verts.push_back(slot.dense_id);
    }
    std::sort(verts.begin(), verts.end());
  }
  return ScratchMeets(next_id);
}

bool IncrementalClassifier::LazyMeets() {
  if (target_ == AcyclicityClass::kCyclic) return true;
  const size_t small = static_cast<size_t>(min_violating_edges_);
  if (depth_ < small) return true;
  Verdict& verdict = edges_[depth_ - 1].alpha;
  if (verdict == Verdict::kUnknown) {
    // The stack below: too small to violate, or decided since its top
    // edge was pushed.
    const Verdict below = depth_ - 1 < small ? Verdict::kMeets
                                             : edges_[depth_ - 2].alpha;
    if (below != Verdict::kUnknown && TopIsEar()) {
      verdict = below;
      ++alpha_inherited_;
    } else {
      verdict = AlphaRun() ? Verdict::kMeets : Verdict::kFails;
      ++alpha_gyo_runs_;
    }
  }
  return verdict == Verdict::kMeets;
}

bool IncrementalClassifier::TopIsEar() const {
  const std::vector<int>& top = edges_[depth_ - 1].verts;
  for (size_t f = 0; f + 1 < depth_; ++f) {
    const std::vector<int>& below = edges_[f].verts;
    bool holds = true;
    for (size_t i = 0; i < top.size() && holds; ++i) {
      const int v = top[i];
      holds = vertices_[static_cast<size_t>(v)].edges == 1 ||
              std::find(below.begin(), below.end(), v) != below.end();
    }
    if (holds) return true;
  }
  return false;
}

bool IncrementalClassifier::AlphaRun() {
  // One vertex bitmask per edge over dense ids (epoch stamps avoid
  // clearing the id map between calls); the path's vertex occurrences
  // bound its distinct vertices, hence the words a mask needs.
  size_t occurrences = 0;
  for (size_t f = 0; f < depth_; ++f) occurrences += edges_[f].verts.size();
  const size_t words = std::max<size_t>(1, (occurrences + 63) / 64);
  // Edge masks, then the two masks BitsetAlpha counts alive edges into.
  scr_masks_.resize((depth_ + 2) * words);
  std::fill_n(scr_masks_.begin(), depth_ * words, uint64_t{0});
  ++epoch_;
  int nv = 0;
  for (size_t f = 0; f < depth_; ++f) {
    uint64_t* mask = &scr_masks_[f * words];
    for (int v : edges_[f].verts) {
      VertexSlot& slot = vertices_[static_cast<size_t>(v)];
      if (slot.epoch != epoch_) {
        slot.epoch = epoch_;
        slot.dense_id = nv++;
      }
      const size_t id = static_cast<size_t>(slot.dense_id);
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
      // Lazy targets: verdicts come from LazyMeets.
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
  if (depth_ == edges_.size()) edges_.emplace_back();
  Edge& slot = edges_[depth_];
  ++depth_;
  // Edges are a handful of vertices: a linear scan deduplicates them.
  std::vector<int>& edge = slot.verts;
  edge.clear();
  for (int v : verts) {
    if (v < 0 || std::find(edge.begin(), edge.end(), v) != edge.end()) {
      continue;
    }
    edge.push_back(v);
    EnsureVertex(v);
    ++vertices_[static_cast<size_t>(v)].edges;
  }
  slot.alpha = Verdict::kUnknown;
  // Lazy targets keep only the edge stack; verdicts are computed on
  // demand in Meets().
  if (!hereditary_) return true;
  // Once violated, every deeper stack is a superset and stays violated.
  if (violated_at_ == 0 &&
      depth_ >= static_cast<size_t>(min_violating_edges_) && MayCloseCycle() &&
      !StackMeets()) {
    violated_at_ = depth_;
  }
  return violated_at_ == 0;
}

bool IncrementalClassifier::MayCloseCycle() const {
  // The stack below met the target, so a violation now is a β-, γ- or
  // Berge cycle through the top edge: the cycle enters and leaves it
  // through two distinct vertices that lie in other edges.
  int shared = 0;
  for (int v : edges_[depth_ - 1].verts) {
    if (vertices_[static_cast<size_t>(v)].edges > 1 && ++shared == 2) {
      return true;
    }
  }
  return false;
}

void IncrementalClassifier::PopEdge() {
  assert(depth_ > 0);
  ++pops_;
  if (violated_at_ == depth_) violated_at_ = 0;
  --depth_;
  for (int v : edges_[depth_].verts) {
    --vertices_[static_cast<size_t>(v)].edges;
  }
}

}  // namespace semacyc::acyclic
