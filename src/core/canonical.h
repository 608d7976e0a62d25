#ifndef SEMACYC_CORE_CANONICAL_H_
#define SEMACYC_CORE_CANONICAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/query.h"

namespace semacyc {

/// Exact isomorphism test between two CQs: a bijective variable renaming
/// mapping head position-wise and body onto body. Used to deduplicate
/// rewriting frontiers and witness candidates, and to resolve
/// decision-cache probes.
bool AreIsomorphic(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

/// The canonical key of a query: a 128-bit hash of a renaming/reordering
/// invariant — each variable's occurrence multiset and first head
/// position, each atom's equality pattern, the atom multiset and the head
/// size. Isomorphic queries get equal keys; unequal keys imply
/// non-isomorphic. The converse fails: the invariant does not encode how
/// atoms link, so some non-isomorphic queries share a key (see
/// ExhaustiveWitnessSearch). Exact stores resolve a key hit with
/// AreIsomorphic; pure-hash dedup (Key128Set) accepts the conflations.
///
/// Computed by pushing q through a per-thread IncrementalCandidateKey, so
/// it equals the incremental key of the same query under any vertex
/// numbering: batch and push/pop keys compare directly. A steady-state
/// call allocates nothing.
std::pair<uint64_t, uint64_t> CanonicalFingerprint128(
    const ConjunctiveQuery& q);

/// The first 64 bits of CanonicalFingerprint128(q), for stores that
/// resolve hits with AreIsomorphic (the decision cache, the rewriter's
/// disjunct store).
uint64_t CanonicalFingerprint(const ConjunctiveQuery& q);

/// The canonical key, maintained under a stack of atom pushes (the
/// witness searches' DFS path) instead of recomputed per candidate. The
/// caller numbers the candidate's variables as small vertex ids and hands
/// each pushed atom's per-position ids (-1 for a constant, keyed by its
/// raw bits).
///
/// Per vertex, two commutative accumulators (one per 64-bit half) start
/// from a hash of the vertex's first head position and sum a mixed
/// (predicate, position) hash over its occurrences — Push adds and Pop
/// subtracts, so the occurrence multiset is kept exactly — next to an
/// occurrence count. Key() folds them: each atom key chains the predicate
/// and, per position, (first equal position, the vertex's accumulator)
/// or the constant's hash; atom keys are summed and the head size mixed
/// in. Key() is the only place the canonical key is folded. A
/// steady-state push, pop or Key() allocates nothing.
class IncrementalCandidateKey {
 public:
  /// Empties the stack and sets the head: `head[i]` is the vertex at head
  /// position i, or -1 for a constant (which only counts toward the
  /// head size).
  void Reset(const std::vector<int>& head);

  /// Pushes `atom`, whose position i holds vertex `verts[i]` (-1 = the
  /// constant atom.args[i]).
  void Push(AtomView atom, const int* verts);

  /// Undoes the most recent Push. Must not be called at depth 0.
  void Pop();

  size_t depth() const { return atoms_.size(); }

  /// Occurrences of vertex `v` in the pushed atoms.
  uint32_t Count(int v) const {
    return static_cast<size_t>(v) < count_.size() ? count_[v] : 0;
  }

  /// The key of the pushed atoms under the head.
  std::pair<uint64_t, uint64_t> Key() const;

 private:
  /// One pushed position: its vertex (-1 for a constant), its first equal
  /// position in the atom, and per chain the occurrence hash it added to
  /// the vertex's accumulator, or the constant's hash.
  struct Position {
    int vertex;
    uint32_t first;
    uint64_t code[2];
  };
  /// A pushed atom: where its positions start, and per chain the hash of
  /// its predicate that its key starts from.
  struct PushedAtom {
    uint32_t begin;
    uint64_t seed[2];
  };

  void Grow(size_t vertex);

  std::vector<std::array<uint64_t, 2>> acc_;
  std::vector<uint32_t> count_;
  size_t head_size_ = 0;
  std::vector<PushedAtom> atoms_;
  std::vector<Position> positions_;
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_CANONICAL_H_
