#include "core/canonical.h"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <vector>

#include "core/flat_table.h"
#include "core/homomorphism.h"

namespace semacyc {

bool AreIsomorphic(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (q1.arity() != q2.arity()) return false;
  if (q1.body().size() != q2.body().size()) return false;
  if (q1.Variables().size() != q2.Variables().size()) return false;

  // Head correspondence must be position-wise; constants and nulls must
  // agree. A head null is also mappable in the body, so it is pinned to
  // itself there.
  Substitution fixed;
  for (size_t i = 0; i < q1.head().size(); ++i) {
    Term a = q1.head()[i];
    Term b = q2.head()[i];
    if (a.IsVariable() != b.IsVariable()) return false;
    if (!a.IsVariable()) {
      if (a != b) return false;
      if (a.IsNull()) fixed.emplace(a, a);
      continue;
    }
    auto it = fixed.find(a);
    if (it != fixed.end()) {
      if (it->second != b) return false;
    } else {
      fixed.emplace(a, b);
    }
  }

  Instance target;
  target.InsertAll(q2.body());
  HomOptions options;
  options.fixed = std::move(fixed);
  options.injective = true;
  HomResult result = FindHomomorphisms(q1.body(), target, options);
  if (!result.found) return false;
  // Injective on terms + equal atom counts: check the atom map is onto.
  const Substitution& h = result.solutions.front();
  std::unordered_set<Atom, AtomHash> image;
  for (const Atom& a : q1.body()) image.insert(Apply(h, a));
  return image.size() == q2.body().size();
}

namespace {

/// One salt per chain: each perturbs every leaf of its chain's hash, so
/// the two 64-bit halves of a key collide independently.
constexpr uint64_t kKeySalts[2] = {0, 0x9e3779b97f4a7c15ull};
constexpr uint64_t kKeyTag = 0x53454d4143594331ull;
/// Stands in for the predicate in a head-position hash: no predicate id
/// reaches 2^32, so head seeds and occurrence hashes never share a
/// Mix chain.
constexpr uint64_t kHeadDomain = uint64_t{1} << 32;

/// Chain n's hash of one occurrence at (pred, pos).
uint64_t OccurrenceHash(size_t n, uint64_t pred, uint64_t pos) {
  return Mix(Mix(kKeyTag ^ kKeySalts[n], pred), pos);
}

/// Both chains' starting accumulators of a vertex whose first head
/// position is `head_pos` (~0 = not in the head).
std::array<uint64_t, 2> VertexSeeds(uint64_t head_pos) {
  return {OccurrenceHash(0, kHeadDomain, head_pos),
          OccurrenceHash(1, kHeadDomain, head_pos)};
}

}  // namespace

void IncrementalCandidateKey::Grow(size_t vertex) {
  if (vertex < count_.size()) return;
  acc_.resize(vertex + 1, VertexSeeds(~0ull));
  count_.resize(vertex + 1, 0);
}

void IncrementalCandidateKey::Reset(const std::vector<int>& head) {
  atoms_.clear();
  positions_.clear();
  std::fill(acc_.begin(), acc_.end(), VertexSeeds(~0ull));
  std::fill(count_.begin(), count_.end(), 0);
  head_size_ = head.size();
  // Backwards, so the last write to a vertex is its first head position.
  for (size_t i = head.size(); i-- > 0;) {
    if (head[i] < 0) continue;
    Grow(static_cast<size_t>(head[i]));
    acc_[head[i]] = VertexSeeds(i);
  }
}

void IncrementalCandidateKey::Push(AtomView atom, const int* verts) {
  const uint64_t pred = atom.pred.id();
  atoms_.push_back({static_cast<uint32_t>(positions_.size()),
                    {Mix(kKeySalts[0], pred), Mix(kKeySalts[1], pred)}});
  for (size_t pos = 0; pos < atom.arity; ++pos) {
    const int v = verts[pos];
    if (v < 0) {
      const uint64_t bits = atom.args[pos].raw_bits();
      positions_.push_back({-1,
                            0,
                            {Mix(Mix(kKeySalts[0], 0xc0ull), bits),
                             Mix(Mix(kKeySalts[1], 0xc0ull), bits)}});
      continue;
    }
    uint32_t first = static_cast<uint32_t>(pos);
    for (size_t k = 0; k < pos; ++k) {
      if (verts[k] == v) {
        first = static_cast<uint32_t>(k);
        break;
      }
    }
    Position p{v, first, {OccurrenceHash(0, pred, pos),
                          OccurrenceHash(1, pred, pos)}};
    Grow(static_cast<size_t>(v));
    acc_[v][0] += p.code[0];
    acc_[v][1] += p.code[1];
    ++count_[v];
    positions_.push_back(p);
  }
}

void IncrementalCandidateKey::Pop() {
  const uint32_t begin = atoms_.back().begin;
  for (size_t i = begin; i < positions_.size(); ++i) {
    const Position& p = positions_[i];
    if (p.vertex < 0) continue;
    acc_[p.vertex][0] -= p.code[0];
    acc_[p.vertex][1] -= p.code[1];
    --count_[p.vertex];
  }
  positions_.resize(begin);
  atoms_.pop_back();
}

std::pair<uint64_t, uint64_t> IncrementalCandidateKey::Key() const {
  uint64_t sum0 = 0;
  uint64_t sum1 = 0;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    const size_t end =
        i + 1 < atoms_.size() ? atoms_[i + 1].begin : positions_.size();
    uint64_t key0 = atoms_[i].seed[0];
    uint64_t key1 = atoms_[i].seed[1];
    for (size_t j = atoms_[i].begin; j < end; ++j) {
      const Position& p = positions_[j];
      if (p.vertex < 0) {
        key0 = Mix(key0, p.code[0]);
        key1 = Mix(key1, p.code[1]);
      } else {
        // The accumulator is the vertex's signature. Xoring in the first
        // equal position (below the arity) instead of chaining it saves
        // a Mix: two (first, signature) pairs then meet only if their
        // signatures differ by that small xor, a hash conflation like
        // any other.
        key0 = Mix(key0, acc_[p.vertex][0] ^ p.first);
        key1 = Mix(key1, acc_[p.vertex][1] ^ p.first);
      }
    }
    sum0 += key0;
    sum1 += key1;
  }
  return {Mix(Mix(kKeySalts[0], head_size_), sum0),
          Mix(Mix(kKeySalts[1], head_size_), sum1)};
}

uint64_t CanonicalFingerprint(const ConjunctiveQuery& q) {
  return CanonicalFingerprint128(q).first;
}

std::pair<uint64_t, uint64_t> CanonicalFingerprint128(
    const ConjunctiveQuery& q) {
  // Per-thread scratch that keeps its capacity: a steady-state call
  // allocates nothing.
  struct Scratch {
    FlatKeyTable vertices;  // term bits -> vertex id, first occurrence first
    std::vector<int> verts;
    IncrementalCandidateKey key;
  };
  thread_local Scratch s;
  s.vertices.Clear();
  auto vertex = [](Term t) {
    return static_cast<int>(s.vertices.Insert(t.raw_bits()));
  };
  // As in AreIsomorphic, a head position is a vertex only for a variable,
  // while the body maps variables and nulls alike.
  s.verts.clear();
  for (Term t : q.head()) s.verts.push_back(t.IsVariable() ? vertex(t) : -1);
  s.key.Reset(s.verts);
  for (const Atom& a : q.body()) {
    s.verts.clear();
    for (Term t : a.args()) s.verts.push_back(t.IsConstant() ? -1 : vertex(t));
    s.key.Push(AtomView::Of(a), s.verts.data());
  }
  return s.key.Key();
}

}  // namespace semacyc
