#ifndef SEMACYC_ACYCLIC_INTERNAL_H_
#define SEMACYC_ACYCLIC_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/flat_table.h"

/// Helpers shared by the engine's translation units. Not part of the
/// subsystem's public surface.
namespace semacyc::acyclic::internal {

/// True iff sorted `a` ⊆ sorted `b`. Galloping lower_bound keeps the check
/// cheap when |a| << |b|.
inline bool IsSubsetSorted(const std::vector<int>& a,
                           const std::vector<int>& b) {
  if (a.size() > b.size()) return false;
  size_t j = 0;
  for (int x : a) {
    auto it = std::lower_bound(b.begin() + static_cast<long>(j), b.end(), x);
    if (it == b.end() || *it != x) return false;
    j = static_cast<size_t>(it - b.begin()) + 1;
  }
  return true;
}

/// Order-sensitive hash of an int sequence, one splitmix step per element
/// (used to bucket sorted edge sets and incidence signatures).
inline uint64_t HashInts(const std::vector<int>& xs) {
  uint64_t h = 0x9e3779b97f4a7c15ull + xs.size();
  for (int v : xs) h = Mix(h, static_cast<uint64_t>(v));
  return h;
}

}  // namespace semacyc::acyclic::internal

#endif  // SEMACYC_ACYCLIC_INTERNAL_H_
