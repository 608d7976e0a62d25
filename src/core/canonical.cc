#include "core/canonical.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>

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

/// The renaming/reordering invariant, hash-mixed: per-variable occurrence
/// signatures (sorted (pred, pos) multiset plus head position), folded
/// into per-atom hashes over the intra-atom equality pattern, combined
/// order-independently by sorting.
/// N independent salted chains are computed in one walk; each salt
/// perturbs every leaf, so the chains collide independently.
template <size_t N>
std::array<uint64_t, N> FingerprintChains(
    const ConjunctiveQuery& q, const std::array<uint64_t, N>& salts) {
  std::unordered_map<Term, int> head_pos;
  for (size_t i = 0; i < q.head().size(); ++i) {
    head_pos.emplace(q.head()[i], static_cast<int>(i));
  }
  std::unordered_map<Term, std::vector<std::pair<uint32_t, int>>> occ;
  for (const Atom& a : q.body()) {
    for (size_t pos = 0; pos < a.arity(); ++pos) {
      Term t = a.arg(pos);
      if (t.IsVariable()) {
        occ[t].push_back({a.predicate().id(), static_cast<int>(pos)});
      }
    }
  }
  std::unordered_map<Term, std::array<uint64_t, N>> var_sig;
  var_sig.reserve(occ.size());
  for (auto& [v, list] : occ) {
    std::sort(list.begin(), list.end());
    std::array<uint64_t, N> s;
    for (size_t n = 0; n < N; ++n) {
      s[n] = Mix(0x53454d4143594331ull, salts[n]);  // salted domain tag
    }
    for (auto& [p, i] : list) {
      for (size_t n = 0; n < N; ++n) {
        s[n] = Mix(s[n], p);
        s[n] = Mix(s[n], static_cast<uint64_t>(i));
      }
    }
    auto it = head_pos.find(v);
    uint64_t hp =
        it == head_pos.end() ? ~0ull : static_cast<uint64_t>(it->second);
    for (size_t n = 0; n < N; ++n) s[n] = Mix(s[n], hp);
    var_sig[v] = s;
  }
  std::vector<std::array<uint64_t, N>> atom_keys;
  atom_keys.reserve(q.body().size());
  for (const Atom& a : q.body()) {
    std::array<uint64_t, N> s;
    for (size_t n = 0; n < N; ++n) s[n] = Mix(salts[n], a.predicate().id());
    for (size_t pos = 0; pos < a.arity(); ++pos) {
      Term t = a.arg(pos);
      if (t.IsConstant()) {
        for (size_t n = 0; n < N; ++n) {
          s[n] = Mix(s[n], 0xc0ull);
          s[n] = Mix(s[n], t.raw_bits());
        }
      } else {
        size_t first = pos;
        for (size_t k = 0; k < pos; ++k) {
          if (a.arg(k) == t) {
            first = k;
            break;
          }
        }
        const std::array<uint64_t, N>& sig = var_sig[t];
        for (size_t n = 0; n < N; ++n) {
          s[n] = Mix(s[n], static_cast<uint64_t>(first));
          s[n] = Mix(s[n], sig[n]);
        }
      }
    }
    atom_keys.push_back(s);
  }
  std::sort(atom_keys.begin(), atom_keys.end());
  std::array<uint64_t, N> key;
  for (size_t n = 0; n < N; ++n) key[n] = Mix(salts[n], q.arity());
  for (const auto& s : atom_keys) {
    for (size_t n = 0; n < N; ++n) key[n] = Mix(key[n], s[n]);
  }
  return key;
}

}  // namespace

uint64_t CanonicalFingerprint(const ConjunctiveQuery& q, uint64_t salt) {
  return FingerprintChains<1>(q, {salt})[0];
}

std::pair<uint64_t, uint64_t> CanonicalFingerprint128(
    const ConjunctiveQuery& q) {
  std::array<uint64_t, 2> key =
      FingerprintChains<2>(q, {0, kSecondFingerprintSalt});
  return {key[0], key[1]};
}

}  // namespace semacyc
