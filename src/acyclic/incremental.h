#ifndef SEMACYC_ACYCLIC_INCREMENTAL_H_
#define SEMACYC_ACYCLIC_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "acyclic/classify.h"

namespace semacyc::acyclic {

/// Acyclicity classification maintained incrementally under a *stack* of
/// edges — the access pattern of DFS candidate enumeration (witness
/// search): PushEdge when the DFS descends, PopEdge when it backtracks.
///
/// Invariants exploited:
///  * Every class decides component-wise, so a push re-runs the target
///    decider only on the connected component the new edge lands in; all
///    other components keep their cached verdict.
///  * Small components cannot violate: any two edges are mutually
///    GYO-reducible and a γ-cycle needs three distinct edges, so α/β/γ
///    need no decider run until a component reaches 3 edges (Berge: 2).
///    This skips the decider for the bulk of DFS pushes.
///  * β-, γ- and Berge-acyclicity are *hereditary* (closed under taking a
///    subset of the edges; Fagin, Brault-Baron), so once the current edge
///    set violates such a target no extension can recover —
///    `CannotRecover()` lets the DFS prune the whole subtree, and pushes
///    made in a violated state skip the decider entirely (the verdict is
///    forced). α-acyclicity is not hereditary (an edge covering a cycle
///    repairs it), so for kAlpha `CannotRecover()` is always false, a
///    push only records the edge, and Meets() decides the whole path on
///    demand (bitset GYO; paths of fewer than 3 edges need no run).
///
/// Vertices are caller-chosen non-negative ids; the universe grows on
/// demand. Connectivity is tracked by a union-find with rollback (union by
/// size, no path compression), so PopEdge restores the exact prior state.
/// Frames are pooled: steady-state push/pop cycles allocate nothing.
class IncrementalClassifier {
 public:
  explicit IncrementalClassifier(AcyclicityClass target);

  /// Pushes an edge (vertex list; duplicates within the list are ignored).
  /// Returns Meets() for hereditary targets (for lazy targets the return
  /// value is always true; query Meets() when the verdict is needed).
  bool PushEdge(const std::vector<int>& verts);
  /// Undoes the most recent PushEdge. Must not be called at depth 0.
  void PopEdge();

  /// True iff the current edge set lies in `target` (or stricter). For
  /// hereditary targets this is O(1) (maintained eagerly so the DFS can
  /// prune); for α — where pushes can repair violations, making eager
  /// maintenance pay on every push for verdicts rarely consulted — it is
  /// computed on demand over the pushed (pre-interned) edges.
  bool Meets() {
    return eager_ ? bad_components_ == 0 : LazyMeets();
  }

  /// True when no extension of the current edge set can reach `target`:
  /// the target is hereditary (kBeta/kGamma/kBerge) and already violated.
  bool CannotRecover() const { return hereditary_ && bad_components_ > 0; }

  size_t depth() const { return depth_; }
  AcyclicityClass target() const { return target_; }

  /// Lifetime push/pop totals (observability counters; never reset —
  /// traces report deltas). pops() counts PopEdge calls, so at any moment
  /// pushes() - pops() == depth().
  size_t pushes() const { return pushes_; }
  size_t pops() const { return pops_; }

 private:
  int Find(int v) const;
  void EnsureVertex(int v);
  /// Runs the target decider on the component rooted at `root`.
  bool ComponentMeets(int root);
  /// Batch verdict over all pushed edges (the lazy α path): interns the
  /// path's vertices to epoch-dense ids, builds one bitmask of as many
  /// 64-bit words as the path's vertex occurrences need per edge, and runs
  /// BitsetAlpha.
  bool LazyMeets();
  /// GYO reduction over the per-edge bitmasks in scr_masks_ (the ear
  /// characterisation of α-acyclicity; Brault-Baron): allocation-free once
  /// the scratch has grown to the path's size.
  bool BitsetAlpha(size_t words);
  /// Allocation-free deciders for the eager (hereditary) targets over
  /// work_sets_[0..work_count_) with dense vertex ids [0, nv) — the
  /// components seen here are DFS-path-sized, so scratch-reusing
  /// O(m²)-ish sweeps beat the engine deciders' setup cost by an order of
  /// magnitude. Verdicts of every target agree with acyclic::Meets
  /// (pinned by the cross-checks in witness_pipeline_test).
  bool ScratchMeets(int nv);
  bool ScratchBeta(int nv);
  bool ScratchGamma(int nv);
  bool ScratchBerge(int nv);

  struct RootState {
    int root = -1;
    char bad = 0;
    int edge_count = 0;
  };
  struct Frame {
    std::vector<int> edge;  // sorted, deduplicated vertex list
    /// Union log: (child_root, parent_root) pairs, applied in order.
    std::vector<std::pair<int, int>> unions;
    /// Pre-push state of the distinct roots this push merged.
    std::vector<RootState> old_roots;
    int new_root = -1;
    char new_bad = 0;
  };

  AcyclicityClass target_;
  bool hereditary_;
  /// Eager per-push maintenance (hereditary targets); lazy otherwise.
  bool eager_;
  /// Components with fewer edges than this cannot violate the target.
  int min_violating_edges_;
  std::vector<int> parent_;
  std::vector<int> size_;
  /// Per-root component state; meaningful only at the index of a current
  /// root, restored exactly on PopEdge.
  std::vector<char> bad_;
  std::vector<int> edge_count_;
  int bad_components_ = 0;
  /// Pooled frame stack: frames_[0..depth_) are live; slots above depth_
  /// keep their buffers for reuse.
  std::vector<Frame> frames_;
  size_t depth_ = 0;
  size_t pushes_ = 0;
  size_t pops_ = 0;
  /// Scratch for ComponentMeets: dense vertex remapping by epoch stamps.
  std::vector<int> dense_id_;
  std::vector<unsigned> dense_epoch_;
  unsigned epoch_ = 0;
  /// Scratch edge sets for the allocation-free deciders. Inner vectors
  /// keep their capacity across calls; work_count_ bounds the live ones.
  std::vector<std::vector<int>> work_sets_;
  size_t work_count_ = 0;
  std::vector<char> scr_alive_;
  std::vector<char> scr_present_;
  std::vector<int> scr_deg_;
  std::vector<int> scr_parent_;
  std::vector<int> scr_inc_;
  /// Scratch of the lazy α path: the per-edge vertex bitmasks (`words`
  /// words each) followed by the masks of vertices in >= 1 and >= 2 alive
  /// edges, and the list of alive edges.
  std::vector<uint64_t> scr_masks_;
  std::vector<int> scr_live_;
};

}  // namespace semacyc::acyclic

#endif  // SEMACYC_ACYCLIC_INCREMENTAL_H_
