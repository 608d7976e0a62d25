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

/// Per-cache policy knobs. The default is the pre-eviction behavior
/// (unbounded, everything cached); a byte budget turns on LRU eviction.
struct CacheConfig {
  /// Default true. Disabled caches compute on every call and store
  /// nothing. Disable per cache only to measure the layer beneath it.
  bool enabled = true;
  /// Byte budget across the whole cache (bytes of ApproxBytes accounting;
  /// 0 = unbounded, the default). Enforced per shard at
  /// max_bytes / shards, so a skewed fingerprint distribution can evict
  /// slightly before the global budget is reached. Set on long-running or
  /// multi-tenant engines; leave 0 for one-shot workloads.
  size_t max_bytes = 0;
  /// Number of mutex-guarded shards (count; rounded up to a power of
  /// two, minimum 1). Default 8 — fine up to a few dozen threads. More
  /// shards = less lock contention, coarser budgets; raise only when
  /// profiling shows shard contention.
  size_t shards = 8;
};

/// Observable counters of one FingerprintCache, snapshot under the shard
/// locks (entries/bytes) and from the atomic counters (the rest).
struct CacheStats {
  size_t entries = 0;
  size_t bytes = 0;
  size_t hits = 0;
  size_t misses = 0;
  /// Entries added: one per miss whose value was admitted (an entry
  /// larger than the shard budget is declined and counted as an
  /// eviction instead).
  size_t inserts = 0;
  size_t evictions = 0;
  /// Configured budget, echoed so one snapshot is self-describing.
  size_t max_bytes = 0;
  bool enabled = true;
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
/// Eviction is LRU per shard, driven by the byte budget of CacheConfig.
/// Every entry is charged once at insert time with key.ApproxBytes() +
/// value->ApproxBytes() + bookkeeping; values are immutable once
/// inserted, so that charge stays exact. Values are handed out as
/// shared_ptr<const Value>, so eviction never invalidates a value a
/// caller still holds.
///
/// Thread safety: all methods are safe to call concurrently. Lookups and
/// inserts take one shard mutex; computations AND isomorphism searches
/// run outside every lock (the isomorphism pass snapshots the bucket's
/// key/value pairs first, so an expensive search never serializes the
/// shard). A racing computation of the same key keeps the first inserted
/// value, so all callers observe one result; racing probes of two
/// isomorphic-but-distinct keys may each insert their own entry, which is
/// benign duplication bounded by LRU.
template <typename Value>
class FingerprintCache {
 public:
  FingerprintCache() : FingerprintCache(CacheConfig{}) {}
  explicit FingerprintCache(const CacheConfig& config) : config_(config) {
    size_t shards = 1;
    while (shards < config_.shards && shards < 64) shards <<= 1;
    shards_ = std::vector<Shard>(shards);
    byte_budget_ = config_.max_bytes == 0
                       ? 0
                       : std::max<size_t>(1, config_.max_bytes / shards);
  }

  FingerprintCache(const FingerprintCache&) = delete;
  FingerprintCache& operator=(const FingerprintCache&) = delete;

  const CacheConfig& config() const { return config_; }

  /// Returns the cached value for q, or computes and inserts it.
  /// `compute` must return std::shared_ptr<const Value>; it runs outside
  /// every lock. A compute that returns nullptr (a computation aborted by
  /// cancellation — caching its truncated artifact would poison later
  /// lookups) is counted as a miss, inserts nothing, and nullptr is
  /// returned to the caller.
  template <typename Compute>
  std::shared_ptr<const Value> GetOrCompute(uint64_t fp,
                                            const ConjunctiveQuery& q,
                                            Compute&& compute) {
    if (!config_.enabled) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return compute();
    }
    Shard& shard = ShardFor(fp);
    if (auto served = Probe(shard, fp, q)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return served;
    }
    std::shared_ptr<const Value> computed = compute();
    if (computed == nullptr) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    std::lock_guard<std::mutex> lock(shard.mu);
    // Exact-only recheck: a racing computation of the same key keeps the
    // first insert. (A racing isomorphic-but-distinct key may insert its
    // own entry — benign duplication, not worth an iso search per insert.)
    if (auto served = ExactFindLocked(shard, fp, q)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return served;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    InsertLocked(shard, fp, q, computed);
    return computed;
  }

  /// Convenience overload computing the fingerprint itself.
  template <typename Compute>
  std::shared_ptr<const Value> GetOrCompute(const ConjunctiveQuery& q,
                                            Compute&& compute) {
    return GetOrCompute(CanonicalFingerprint(q), q,
                        std::forward<Compute>(compute));
  }

  CacheStats Stats() const {
    CacheStats s;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      s.entries += shard.lru.size();
      s.bytes += shard.bytes;
    }
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.max_bytes = config_.max_bytes;
    s.enabled = config_.enabled;
    return s;
  }

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Evicts LRU entries until the cache holds at most target_bytes
  /// (enforced per shard at target_bytes / shards). Trim(0) drops every
  /// entry; counters survive, the drops count as evictions.
  void Trim(size_t target_bytes) {
    size_t per_shard = target_bytes / shards_.size();
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      while (!shard.lru.empty() && shard.bytes > per_shard) {
        EvictTailLocked(shard);
      }
    }
  }

 private:
  struct Entry {
    uint64_t fp = 0;
    ConjunctiveQuery key;
    std::shared_ptr<const Value> value;
    size_t bytes = 0;
  };
  using EntryList = std::list<Entry>;
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used. std::list iterators are stable, so
    /// the fingerprint buckets can hold them across splices.
    EntryList lru;
    std::unordered_map<uint64_t, std::vector<typename EntryList::iterator>>
        buckets;
    size_t bytes = 0;
  };

  Shard& ShardFor(uint64_t fp) {
    // The low fingerprint bits index the bucket map already; fold the
    // high half in so shard choice is not correlated with bucket choice.
    return shards_[(fp ^ (fp >> 32)) & (shards_.size() - 1)];
  }

  /// Exact-equality scan under the shard lock; touches LRU.
  std::shared_ptr<const Value> ExactFindLocked(Shard& shard, uint64_t fp,
                                               const ConjunctiveQuery& q) {
    auto bucket_it = shard.buckets.find(fp);
    if (bucket_it == shard.buckets.end()) return nullptr;
    for (auto it : bucket_it->second) {
      if (it->key == q) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        return it->value;
      }
    }
    return nullptr;
  }

  /// Full probe: exact pass under the lock, then the isomorphism pass on
  /// a snapshot of the bucket *outside* the lock, so the search never
  /// serializes the shard.
  std::shared_ptr<const Value> Probe(Shard& shard, uint64_t fp,
                                     const ConjunctiveQuery& q) {
    std::vector<std::pair<ConjunctiveQuery, std::shared_ptr<const Value>>>
        candidates;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (auto served = ExactFindLocked(shard, fp, q)) return served;
      auto bucket_it = shard.buckets.find(fp);
      if (bucket_it == shard.buckets.end()) return nullptr;
      candidates.reserve(bucket_it->second.size());
      for (auto it : bucket_it->second) {
        candidates.emplace_back(it->key, it->value);
      }
    }
    for (const auto& [key, value] : candidates) {
      if (!AreIsomorphic(key, q)) continue;
      std::lock_guard<std::mutex> lock(shard.mu);
      TouchByKeyLocked(shard, fp, key);
      return value;
    }
    return nullptr;
  }

  /// Moves the entry with this exact key (if still resident) to the MRU
  /// position; the isomorphism pass works on a snapshot, so the source
  /// entry may have been evicted meanwhile.
  void TouchByKeyLocked(Shard& shard, uint64_t fp,
                        const ConjunctiveQuery& key) {
    auto bucket_it = shard.buckets.find(fp);
    if (bucket_it == shard.buckets.end()) return;
    for (auto it : bucket_it->second) {
      if (it->key == key) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        return;
      }
    }
  }

  void InsertLocked(Shard& shard, uint64_t fp, const ConjunctiveQuery& q,
                    const std::shared_ptr<const Value>& value) {
    Entry entry;
    entry.fp = fp;
    entry.key = q;
    entry.value = value;
    entry.bytes = sizeof(Entry) + q.ApproxBytes() + value->ApproxBytes();
    if (byte_budget_ != 0 && entry.bytes > byte_budget_) {
      // An entry that alone exceeds the shard budget is never kept:
      // admitting it would flush every resident entry for a value that
      // still could not stay. The caller keeps its shared_ptr; the
      // declined insert counts as an eviction so the thrash is
      // observable.
      evictions_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    shard.bytes += entry.bytes;
    shard.lru.push_front(std::move(entry));
    shard.buckets[fp].push_back(shard.lru.begin());
    inserts_.fetch_add(1, std::memory_order_relaxed);
    while (byte_budget_ != 0 && shard.bytes > byte_budget_) {
      EvictTailLocked(shard);
    }
  }

  void EvictTailLocked(Shard& shard) {
    auto victim = std::prev(shard.lru.end());
    auto bucket_it = shard.buckets.find(victim->fp);
    auto& vec = bucket_it->second;
    for (size_t i = 0; i < vec.size(); ++i) {
      if (vec[i] == victim) {
        vec[i] = vec.back();
        vec.pop_back();
        break;
      }
    }
    if (vec.empty()) shard.buckets.erase(bucket_it);
    shard.bytes -= victim->bytes;
    shard.lru.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  CacheConfig config_;
  std::vector<Shard> shards_;
  size_t byte_budget_ = 0;
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
  mutable std::atomic<size_t> inserts_{0};
  mutable std::atomic<size_t> evictions_{0};
};

}  // namespace semacyc

#endif  // SEMACYC_CORE_FINGERPRINT_CACHE_H_
