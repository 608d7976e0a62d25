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
///  * β-, γ- and Berge-acyclicity are *hereditary* (closed under taking a
///    subset of the edges; Fagin, Brault-Baron), so once the stack
///    violates such a target every deeper stack does too. The classifier
///    keeps one number, the depth of the push that first violated the
///    target (0 while none has): `CannotRecover()` lets the DFS prune the
///    whole subtree, pushes above that depth skip the decider (the verdict
///    is forced), and popping that push clears it.
///  * A push in an unviolated state runs the target decider on the whole
///    stack (scratch-reusing sweeps; DFS stacks hold a handful of edges),
///    unless the push cannot have closed a cycle: small stacks cannot
///    violate (any two edges are mutually GYO-reducible and a γ-cycle
///    needs three distinct edges, so α/β/γ need no decider run below 3
///    edges, Berge below 2), and a new cycle runs through the new edge,
///    which then shares two vertices with the edges below it.
///  * α-acyclicity is not hereditary (an edge covering a cycle repairs
///    it), so for kAlpha `CannotRecover()` is always false, a push only
///    records the edge, and Meets() decides the stack on demand, once per
///    depth: the verdict is cached beside the depth's edge until the next
///    push to that depth. Stacks of fewer than 3 edges need no decision.
///    When the top edge is an *ear* — its vertices that occur in an edge
///    below it all lie in one edge below it — and the stack below has a
///    verdict, that verdict is inherited: GYO reduction is confluent
///    (Brault-Baron), and removing the top edge's private vertices leaves
///    it contained in that edge, so it goes too and exactly the stack
///    below remains. Otherwise a bitset GYO run decides the whole stack.
///    Per-vertex edge counts (kept with every target) find the shared
///    vertices.
///
/// Vertices are caller-chosen non-negative ids; the universe grows on
/// demand. A negative id stands for a term that connects nothing (a
/// constant) and is left out of the edge. Edge buffers are pooled: steady-state push/pop cycles allocate
/// nothing.
class IncrementalClassifier {
 public:
  explicit IncrementalClassifier(AcyclicityClass target);

  /// Pushes an edge (vertex list; duplicates within the list and
  /// negative ids are ignored).
  /// Returns Meets() for hereditary targets (for lazy targets the return
  /// value is always true; query Meets() when the verdict is needed).
  bool PushEdge(const std::vector<int>& verts);
  /// Undoes the most recent PushEdge. Must not be called at depth 0.
  void PopEdge();

  /// True iff the current edge set lies in `target` (or stricter). For
  /// hereditary targets this is O(1) (decided on push so the DFS can
  /// prune); for α — where pushes can repair violations, making per-push
  /// decisions pay for verdicts rarely consulted — it is computed on
  /// demand over the pushed (pre-interned) edges.
  bool Meets() { return hereditary_ ? violated_at_ == 0 : LazyMeets(); }

  /// True when no extension of the current edge set can reach `target`:
  /// the target is hereditary (kBeta/kGamma/kBerge) and already violated.
  bool CannotRecover() const { return hereditary_ && violated_at_ != 0; }

  size_t depth() const { return depth_; }
  AcyclicityClass target() const { return target_; }

  /// Lifetime push/pop totals (observability counters; never reset —
  /// traces report deltas). pops() counts PopEdge calls, so at any moment
  /// pushes() - pops() == depth().
  size_t pushes() const { return pushes_; }
  size_t pops() const { return pops_; }
  /// Lifetime α verdicts by route (lazy path only; cached repeats count
  /// in neither): decided by a bitset GYO run, or inherited from the
  /// stack below an ear push.
  size_t alpha_gyo_runs() const { return alpha_gyo_runs_; }
  size_t alpha_inherited() const { return alpha_inherited_; }

 private:
  enum class Verdict : uint8_t { kUnknown, kMeets, kFails };
  /// One pooled stack slot: the edge's distinct vertices and, for the
  /// lazy α path, the verdict of the stack up to and including it.
  struct Edge {
    std::vector<int> verts;
    Verdict alpha = Verdict::kUnknown;
  };
  /// Per vertex id: the dense-id remapping by epoch stamps (StackMeets,
  /// LazyMeets) and the number of live edges that contain the vertex.
  struct VertexSlot {
    int dense_id = 0;
    unsigned epoch = 0;
    int edges = 0;
  };

  void EnsureVertex(int v);
  /// False when the top edge shares fewer than two vertices with the
  /// edges below it: it then closes no cycle, and a hereditary verdict
  /// that held below still holds.
  bool MayCloseCycle() const;
  /// True when the top edge's vertices that occur in an edge below it all
  /// lie in one edge below it (there is one: depth_ >= 2).
  bool TopIsEar() const;
  /// Runs the target decider on the whole stack: interns its edges into
  /// work_sets_ with epoch-dense vertex ids.
  bool StackMeets();
  /// The lazy α verdict of the stack: cached per depth, inherited across
  /// an ear push, else AlphaRun.
  bool LazyMeets();
  /// Batch verdict over all pushed edges: interns the path's vertices to
  /// epoch-dense ids, builds one bitmask of as many 64-bit words as the
  /// path's vertex occurrences need per edge, and runs BitsetAlpha.
  bool AlphaRun();
  /// GYO reduction over the per-edge bitmasks in scr_masks_ (the ear
  /// characterisation of α-acyclicity; Brault-Baron): allocation-free once
  /// the scratch has grown to the path's size.
  bool BitsetAlpha(size_t words);
  /// Allocation-free deciders for the hereditary targets over
  /// work_sets_[0..work_count_) with dense vertex ids [0, nv) — the
  /// stacks seen here are DFS-path-sized, so scratch-reusing
  /// O(m²)-ish sweeps beat the engine deciders' setup cost by an order of
  /// magnitude. Verdicts of every target agree with acyclic::Meets
  /// (pinned by the cross-checks in witness_pipeline_test).
  bool ScratchMeets(int nv);
  bool ScratchBeta(int nv);
  bool ScratchGamma(int nv);
  bool ScratchBerge(int nv);

  AcyclicityClass target_;
  bool hereditary_;
  /// Stacks with fewer edges than this cannot violate the target.
  int min_violating_edges_;
  /// Depth of the push that first violated the (hereditary) target; 0
  /// while the stack meets it.
  size_t violated_at_ = 0;
  /// Pooled edge stack: edges_[0..depth_) are live; slots above depth_
  /// keep their buffers for reuse.
  std::vector<Edge> edges_;
  size_t depth_ = 0;
  size_t pushes_ = 0;
  size_t pops_ = 0;
  size_t alpha_gyo_runs_ = 0;
  size_t alpha_inherited_ = 0;
  std::vector<VertexSlot> vertices_;
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
