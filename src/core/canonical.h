#ifndef SEMACYC_CORE_CANONICAL_H_
#define SEMACYC_CORE_CANONICAL_H_

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

/// A hash-interned canonical form: a 64-bit fingerprint of a
/// renaming/reordering invariant — per-variable occurrence signatures
/// folded over each atom's equality pattern (isomorphic queries get equal
/// fingerprints; unequal fingerprints imply non-isomorphic). No string
/// building and no hash table: one sorted (var, pred, pos) occurrence
/// array yields the per-variable signatures, and every buffer is
/// per-thread flat scratch that keeps its capacity, so a steady-state
/// call allocates nothing. Exact stores
/// resolve fingerprint collisions with AreIsomorphic; pure-hash dedup
/// should combine two fingerprints with different `salt`s (the salt
/// perturbs every leaf of the hash, so the two values collide
/// independently — a 128-bit key whose conflation probability is
/// negligible against the invariant's own conflations, which candidate
/// dedup accepts).
uint64_t CanonicalFingerprint(const ConjunctiveQuery& q, uint64_t salt = 0);

/// A 128-bit key computed in one walk of the query (for pure-hash dedup
/// stores): the first component equals CanonicalFingerprint(q); the
/// second is an independent salted chain over the same invariant (its
/// fold order follows the combined sort, so it is its own invariant, not
/// literally CanonicalFingerprint(q, salt)).
inline constexpr uint64_t kSecondFingerprintSalt = 0x9e3779b97f4a7c15ull;
std::pair<uint64_t, uint64_t> CanonicalFingerprint128(
    const ConjunctiveQuery& q);
/// The same key for the query with this head and body, without building
/// it (the witness searches fingerprint a candidate before constructing
/// it, and only dedup survivors are built).
std::pair<uint64_t, uint64_t> CanonicalFingerprint128(
    const std::vector<Term>& head, const std::vector<Atom>& body);

}  // namespace semacyc

#endif  // SEMACYC_CORE_CANONICAL_H_
