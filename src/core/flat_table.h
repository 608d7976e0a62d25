#ifndef SEMACYC_CORE_FLAT_TABLE_H_
#define SEMACYC_CORE_FLAT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace semacyc {

/// One splitmix64 step folding `x` into the chain value `h`: the mixing
/// primitive of the canonical query keys (core/canonical.h) and of the
/// acyclicity engine's int-sequence buckets. The output depends on h + x
/// only, so callers chain two values, never add them into one operand.
inline uint64_t Mix(uint64_t h, uint64_t x) {
  x += 0x9e3779b97f4a7c15ull + h;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The one hash kernel of the library: an open-addressing map from 64-bit
/// keys to dense group ids, handed out 0, 1, 2, … in first-insert order.
/// Callers keep per-group payload in plain vectors indexed by the group id
/// — a dictionary's terms, a CSR row list, a dedup arena, an Instance's
/// atoms and index buckets, the chase's fired triggers.
///
/// The slot array holds 4-byte group ids, and the keys sit in a dense
/// array indexed by group, so clearing a table sized for a whole selection
/// is cheap and the keys a probe compares stay in cache when few are
/// distinct. Capacity is a power of two of at least twice the keys
/// inserted; slots are probed linearly from the murmur3 finalizer of the
/// key (one-column keys are small dense value ids and would cluster
/// unmixed). A table sized for its keys up front never grows, and no
/// insert or lookup allocates.
///
/// Keys are either exact (the packed tuple itself) or hashes. For hashed
/// keys the caller passes `same(g)`, which decides whether group g holds
/// the probing tuple; distinct tuples with equal hashes get distinct
/// groups, so a hash collision never merges two keys.
class FlatKeyTable {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// An empty table with room for `expected` keys before it grows.
  explicit FlatKeyTable(size_t expected = 0) {
    if (expected > 0) {
      keys_.reserve(expected);
      Rehash(CapacityFor(expected));
    }
  }

  /// The group of `key`; a new key gets group id size().
  uint32_t Insert(uint64_t key) { return Insert(key, AnyGroup{}); }
  template <typename Same>
  uint32_t Insert(uint64_t key, Same same) {
    if ((keys_.size() + 1) * 2 > slots_.size()) {
      Rehash(CapacityFor(keys_.size() + 1));
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      uint32_t g = slots_[i];
      if (g == kNone) {
        g = static_cast<uint32_t>(keys_.size());
        slots_[i] = g;
        keys_.push_back(key);
        return g;
      }
      if (keys_[g] == key && same(g)) return g;
    }
  }

  /// The group of `key`, or kNone when it was never inserted.
  uint32_t Find(uint64_t key) const { return Find(key, AnyGroup{}); }
  template <typename Same>
  uint32_t Find(uint64_t key, Same same) const {
    if (keys_.empty()) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Mix(key) & mask;; i = (i + 1) & mask) {
      uint32_t g = slots_[i];
      if (g == kNone) return kNone;
      if (keys_[g] == key && same(g)) return g;
    }
  }

  /// Room for `n` keys in all before the table grows.
  void Reserve(size_t n) {
    keys_.reserve(n);
    if (n * 2 > slots_.size()) Rehash(CapacityFor(n));
  }

  /// Forgets every key. A small table keeps its capacity, so refilling it
  /// does not allocate; a large one is released, so a table reused for
  /// many small key sets does not pay for clearing its largest one.
  void Clear() {
    if (slots_.size() > kKeepSlots) {
      slots_ = {};
      keys_ = {};
    } else {
      std::fill(slots_.begin(), slots_.end(), kNone);
      keys_.clear();
    }
  }

  /// Number of groups (distinct keys) inserted.
  size_t size() const { return keys_.size(); }
  size_t capacity() const { return slots_.size(); }
  size_t ApproxBytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           keys_.capacity() * sizeof(uint64_t);
  }

  /// murmur3's 64-bit finalizer: every input bit reaches every output bit.
  static uint64_t Mix(uint64_t k) {
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdull;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ull;
    k ^= k >> 33;
    return k;
  }

 private:
  static constexpr size_t kKeepSlots = 1024;

  struct AnyGroup {
    bool operator()(uint32_t) const { return true; }
  };

  static size_t CapacityFor(size_t keys) {
    size_t cap = 8;
    while (cap < keys * 2) cap *= 2;
    return cap;
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, kNone);
    const size_t mask = capacity - 1;
    for (size_t g = 0; g < keys_.size(); ++g) {
      size_t i = Mix(keys_[g]) & mask;
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(g);
    }
  }

  std::vector<uint32_t> slots_;  // group id per slot, kNone when empty
  std::vector<uint64_t> keys_;   // key of each group
};

/// A set of 128-bit keys (the witness searches' candidate fingerprints)
/// on FlatKeyTable: the low word is the table key and the high word,
/// kept per group, is compared by same(g), so two keys meet only when all
/// 128 bits do.
class Key128Set {
 public:
  using Key = std::pair<uint64_t, uint64_t>;

  /// True iff `key` was not in the set.
  bool Insert(const Key& key) {
    uint32_t g = table_.Insert(
        key.first, [&](uint32_t h) { return high_[h] == key.second; });
    if (g < high_.size()) return false;
    high_.push_back(key.second);
    return true;
  }

  bool Contains(const Key& key) const {
    return table_.Find(key.first, [&](uint32_t h) {
             return high_[h] == key.second;
           }) != FlatKeyTable::kNone;
  }

 private:
  FlatKeyTable table_;
  std::vector<uint64_t> high_;  // high word of each group's key
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_FLAT_TABLE_H_
