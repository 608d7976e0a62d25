#ifndef SEMACYC_CORE_CANONICAL_H_
#define SEMACYC_CORE_CANONICAL_H_

#include <cstdint>
#include <utility>

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
/// building, no allocation beyond small scratch vectors. Exact stores
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

}  // namespace semacyc

#endif  // SEMACYC_CORE_CANONICAL_H_
