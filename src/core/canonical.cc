#include "core/canonical.h"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <vector>

#include "core/homomorphism.h"

namespace semacyc {

bool AreIsomorphic(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  if (q1.arity() != q2.arity()) return false;
  if (q1.body().size() != q2.body().size()) return false;
  if (q1.Variables().size() != q2.Variables().size()) return false;

  // Head correspondence must be position-wise; constants must agree.
  Substitution fixed;
  for (size_t i = 0; i < q1.head().size(); ++i) {
    Term a = q1.head()[i];
    Term b = q2.head()[i];
    if (a.IsVariable() != b.IsVariable()) return false;
    if (!a.IsVariable()) {
      if (a != b) return false;
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

/// splitmix64 avalanche step, the mixing primitive for all fingerprints.
uint64_t Mix(uint64_t h, uint64_t x) {
  x += 0x9e3779b97f4a7c15ull + h;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace

namespace {

/// One body occurrence of a variable: (var, pred, pos) is the sort key,
/// with var and pred packed into `var_pred`; `slot` is the flattened body
/// position it came from.
struct Occurrence {
  uint64_t var_pred;
  uint32_t pos;
  uint32_t slot;

  uint32_t var() const { return static_cast<uint32_t>(var_pred >> 32); }
  uint32_t pred() const { return static_cast<uint32_t>(var_pred); }
};

/// Per-thread flat scratch of FingerprintChains: every buffer keeps its
/// capacity across calls, so a steady-state call allocates nothing.
template <size_t N>
struct FingerprintScratch {
  std::vector<Occurrence> occ;
  /// (variable, head position) pairs of the head, sorted.
  std::vector<std::pair<uint32_t, uint32_t>> head;
  /// Per flattened body position holding a variable: its index in `sigs`.
  std::vector<uint32_t> slot_sig;
  std::vector<std::array<uint64_t, N>> sigs;
  std::vector<std::array<uint64_t, N>> atom_keys;
};

/// The renaming/reordering invariant, hash-mixed: per-variable occurrence
/// signatures (sorted (pred, pos) multiset plus first head position),
/// folded into per-atom hashes over the intra-atom equality pattern,
/// combined order-independently by sorting.
/// N independent salted chains are computed in one walk; each salt
/// perturbs every leaf, so the chains collide independently.
/// One sort of the (var, pred, pos) occurrences groups each variable's
/// occurrences into a run already in (pred, pos) order, so the
/// signatures need no per-variable table; each run writes its signature
/// index back to the body positions it came from.
template <size_t N>
std::array<uint64_t, N> FingerprintChains(
    const std::vector<Term>& head, const std::vector<Atom>& body,
    const std::array<uint64_t, N>& salts) {
  thread_local FingerprintScratch<N> scratch;
  FingerprintScratch<N>& s = scratch;
  s.occ.clear();
  uint32_t slots = 0;
  for (const Atom& a : body) {
    for (size_t pos = 0; pos < a.arity(); ++pos, ++slots) {
      Term t = a.arg(pos);
      if (t.IsVariable()) {
        s.occ.push_back({uint64_t{t.raw_bits()} << 32 | a.predicate().id(),
                         static_cast<uint32_t>(pos), slots});
      }
    }
  }
  std::sort(s.occ.begin(), s.occ.end(),
            [](const Occurrence& x, const Occurrence& y) {
              if (x.var_pred != y.var_pred) return x.var_pred < y.var_pred;
              return x.pos < y.pos;
            });
  s.head.clear();
  for (size_t i = 0; i < head.size(); ++i) {
    if (head[i].IsVariable()) {
      s.head.push_back({head[i].raw_bits(), static_cast<uint32_t>(i)});
    }
  }
  std::sort(s.head.begin(), s.head.end());
  s.slot_sig.resize(slots);
  s.sigs.clear();
  size_t h = 0;
  for (size_t i = 0; i < s.occ.size();) {
    const uint32_t var = s.occ[i].var();
    std::array<uint64_t, N> sig;
    for (size_t n = 0; n < N; ++n) {
      sig[n] = Mix(0x53454d4143594331ull, salts[n]);  // salted domain tag
    }
    const uint32_t index = static_cast<uint32_t>(s.sigs.size());
    for (; i < s.occ.size() && s.occ[i].var() == var; ++i) {
      for (size_t n = 0; n < N; ++n) {
        sig[n] = Mix(sig[n], s.occ[i].pred());
        sig[n] = Mix(sig[n], s.occ[i].pos);
      }
      s.slot_sig[s.occ[i].slot] = index;
    }
    // Both arrays are sorted by variable: the first head entry of `var`
    // carries its first head position.
    while (h < s.head.size() && s.head[h].first < var) ++h;
    uint64_t hp = h < s.head.size() && s.head[h].first == var
                      ? static_cast<uint64_t>(s.head[h].second)
                      : ~0ull;
    for (size_t n = 0; n < N; ++n) sig[n] = Mix(sig[n], hp);
    s.sigs.push_back(sig);
  }
  s.atom_keys.clear();
  uint32_t slot = 0;
  for (const Atom& a : body) {
    std::array<uint64_t, N> key;
    for (size_t n = 0; n < N; ++n) key[n] = Mix(salts[n], a.predicate().id());
    for (size_t pos = 0; pos < a.arity(); ++pos, ++slot) {
      Term t = a.arg(pos);
      if (t.IsConstant()) {
        for (size_t n = 0; n < N; ++n) {
          key[n] = Mix(key[n], 0xc0ull);
          key[n] = Mix(key[n], t.raw_bits());
        }
        continue;
      }
      size_t first = pos;
      for (size_t k = 0; k < pos; ++k) {
        if (a.arg(k) == t) {
          first = k;
          break;
        }
      }
      // A term that is neither constant nor variable has no occurrence
      // run; it contributes the all-zero signature.
      std::array<uint64_t, N> sig{};
      if (t.IsVariable()) sig = s.sigs[s.slot_sig[slot]];
      for (size_t n = 0; n < N; ++n) {
        key[n] = Mix(key[n], static_cast<uint64_t>(first));
        key[n] = Mix(key[n], sig[n]);
      }
    }
    s.atom_keys.push_back(key);
  }
  // Lexicographic, as std::array's operator< (spelled out: it inlines).
  std::sort(s.atom_keys.begin(), s.atom_keys.end(),
            [](const std::array<uint64_t, N>& x,
               const std::array<uint64_t, N>& y) {
              for (size_t n = 0; n < N; ++n) {
                if (x[n] != y[n]) return x[n] < y[n];
              }
              return false;
            });
  std::array<uint64_t, N> key;
  for (size_t n = 0; n < N; ++n) key[n] = Mix(salts[n], head.size());
  for (const auto& k : s.atom_keys) {
    for (size_t n = 0; n < N; ++n) key[n] = Mix(key[n], k[n]);
  }
  return key;
}

}  // namespace

uint64_t CanonicalFingerprint(const ConjunctiveQuery& q, uint64_t salt) {
  return FingerprintChains<1>(q.head(), q.body(), {salt})[0];
}

std::pair<uint64_t, uint64_t> CanonicalFingerprint128(
    const ConjunctiveQuery& q) {
  std::array<uint64_t, 2> key =
      FingerprintChains<2>(q.head(), q.body(), {0, kSecondFingerprintSalt});
  return {key[0], key[1]};
}

namespace {

constexpr uint64_t kKeySalts[2] = {0, kSecondFingerprintSalt};
constexpr uint64_t kKeyTag = 0x53454d4143594331ull;
/// Stands in for the predicate in a head-position hash: no predicate id
/// reaches 2^32, so head seeds and occurrence hashes never share a
/// Mix chain.
constexpr uint64_t kHeadDomain = uint64_t{1} << 32;

/// Chain n's hash of one occurrence at (pred, pos). Mix(h, x) depends on
/// h + x only, so the predicate and the position are chained, never
/// added into one operand.
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

}  // namespace semacyc
