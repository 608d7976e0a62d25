#ifndef SEMACYC_CORE_FINGERPRINT_CACHE_H_
#define SEMACYC_CORE_FINGERPRINT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/canonical.h"
#include "core/query.h"

namespace semacyc {

/// Observable counters of one FingerprintCache, snapshot under the cache
/// lock (entries/bytes) and from the atomic counters (the rest).
struct CacheStats {
  size_t entries = 0;
  size_t bytes = 0;
  size_t hits = 0;
  size_t misses = 0;
  /// Entries added: one per miss whose value was admitted (an entry
  /// larger than the budget is declined and counted as an eviction
  /// instead).
  size_t inserts = 0;
  size_t evictions = 0;
  /// Configured budget, echoed so one snapshot is self-describing.
  size_t max_bytes = 0;
};

/// The policy-bearing memo behind the Engine's decision cache, for values
/// that are valid verbatim for every query isomorphic to their key.
///
/// Keys are ConjunctiveQuerys bucketed by canonical fingerprint
/// (isomorphism-invariant, so every variant of a query lands in one
/// bucket); within a bucket, a probe resolves by exact query equality
/// first and then by isomorphism, and the cached value is served
/// unchanged either way.
///
/// Eviction is one LRU under one byte budget (max_bytes; 0 = unbounded).
/// Every entry is charged once at insert time with key.ApproxBytes() +
/// value->ApproxBytes() + bookkeeping; values are immutable once
/// inserted, so that charge stays exact and the resident total never
/// exceeds the budget. Values are handed out as shared_ptr<const Value>,
/// so eviction never invalidates a value a caller still holds.
///
/// Thread safety: all methods are safe to call concurrently. Lookups and
/// inserts take the one mutex for a hash lookup and a list splice;
/// computations AND isomorphism searches run outside the lock (the
/// isomorphism pass snapshots the bucket's key/value pairs first, so an
/// expensive search never serializes the cache). A racing computation of
/// the same key keeps the first inserted value, so all callers observe
/// one result; racing probes of two isomorphic-but-distinct keys may each
/// insert their own entry, which is benign duplication bounded by LRU.
template <typename Value>
class FingerprintCache {
 public:
  /// max_bytes: byte budget of ApproxBytes accounting, 0 = unbounded.
  explicit FingerprintCache(size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  FingerprintCache(const FingerprintCache&) = delete;
  FingerprintCache& operator=(const FingerprintCache&) = delete;

  /// Returns the cached value for q (whose canonical fingerprint is fp),
  /// or computes and inserts it. `compute` must return
  /// std::shared_ptr<const Value>; it runs outside the lock. A compute
  /// that returns nullptr (a computation aborted by cancellation —
  /// caching its truncated artifact would poison later lookups) is
  /// counted as a miss, inserts nothing, and nullptr is returned to the
  /// caller.
  template <typename Compute>
  std::shared_ptr<const Value> GetOrCompute(uint64_t fp,
                                            const ConjunctiveQuery& q,
                                            Compute&& compute) {
    if (auto served = Probe(fp, q)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return served;
    }
    std::shared_ptr<const Value> computed = compute();
    if (computed == nullptr) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(mu_);
    // Exact-only recheck: a racing computation of the same key keeps the
    // first insert. (A racing isomorphic-but-distinct key may insert its
    // own entry — benign duplication, not worth an iso search per insert.)
    if (auto served = ExactFindLocked(fp, q)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return served;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    InsertLocked(fp, q, computed);
    return computed;
  }

  CacheStats Stats() const {
    CacheStats s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s.entries = lru_.size();
      s.bytes = bytes_;
    }
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.max_bytes = max_bytes_;
    return s;
  }

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Drops every entry; counters survive, the drops count as evictions.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    evictions_.fetch_add(lru_.size(), std::memory_order_relaxed);
    lru_.clear();
    buckets_.clear();
    bytes_ = 0;
  }

 private:
  struct Entry {
    uint64_t fp = 0;
    ConjunctiveQuery key;
    std::shared_ptr<const Value> value;
    size_t bytes = 0;
  };
  using EntryList = std::list<Entry>;

  /// Exact-equality scan under the lock; touches LRU.
  std::shared_ptr<const Value> ExactFindLocked(uint64_t fp,
                                               const ConjunctiveQuery& q) {
    auto bucket_it = buckets_.find(fp);
    if (bucket_it == buckets_.end()) return nullptr;
    for (auto it : bucket_it->second) {
      if (it->key == q) {
        lru_.splice(lru_.begin(), lru_, it);
        return it->value;
      }
    }
    return nullptr;
  }

  /// Full probe: exact pass under the lock, then the isomorphism pass on
  /// a snapshot of the bucket *outside* the lock, so the search never
  /// serializes the cache.
  std::shared_ptr<const Value> Probe(uint64_t fp, const ConjunctiveQuery& q) {
    std::vector<std::pair<ConjunctiveQuery, std::shared_ptr<const Value>>>
        candidates;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto served = ExactFindLocked(fp, q)) return served;
      auto bucket_it = buckets_.find(fp);
      if (bucket_it == buckets_.end()) return nullptr;
      candidates.reserve(bucket_it->second.size());
      for (auto it : bucket_it->second) {
        candidates.emplace_back(it->key, it->value);
      }
    }
    for (const auto& [key, value] : candidates) {
      if (!AreIsomorphic(key, q)) continue;
      // Touch the source entry if it is still resident (the snapshot may
      // have outlived it); the value is served either way.
      std::lock_guard<std::mutex> lock(mu_);
      ExactFindLocked(fp, key);
      return value;
    }
    return nullptr;
  }

  void InsertLocked(uint64_t fp, const ConjunctiveQuery& q,
                    const std::shared_ptr<const Value>& value) {
    Entry entry;
    entry.fp = fp;
    entry.key = q;
    entry.value = value;
    entry.bytes = sizeof(Entry) + q.ApproxBytes() + value->ApproxBytes();
    if (max_bytes_ != 0 && entry.bytes > max_bytes_) {
      // An entry that alone exceeds the budget is never kept: admitting
      // it would flush every resident entry for a value that still could
      // not stay. The caller keeps its shared_ptr; the declined insert
      // counts as an eviction so the thrash is observable.
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bytes_ += entry.bytes;
    lru_.push_front(std::move(entry));
    buckets_[fp].push_back(lru_.begin());
    inserts_.fetch_add(1, std::memory_order_relaxed);
    while (max_bytes_ != 0 && bytes_ > max_bytes_) EvictTailLocked();
  }

  void EvictTailLocked() {
    auto victim = std::prev(lru_.end());
    auto bucket_it = buckets_.find(victim->fp);
    auto& vec = bucket_it->second;
    for (size_t i = 0; i < vec.size(); ++i) {
      if (vec[i] == victim) {
        vec[i] = vec.back();
        vec.pop_back();
        break;
      }
    }
    if (vec.empty()) buckets_.erase(bucket_it);
    bytes_ -= victim->bytes;
    lru_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  const size_t max_bytes_;
  mutable std::mutex mu_;
  /// Front = most recently used. std::list iterators are stable, so the
  /// fingerprint buckets can hold them across splices.
  EntryList lru_;
  std::unordered_map<uint64_t, std::vector<typename EntryList::iterator>>
      buckets_;
  size_t bytes_ = 0;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
  std::atomic<size_t> inserts_{0};
  std::atomic<size_t> evictions_{0};
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_FINGERPRINT_CACHE_H_
