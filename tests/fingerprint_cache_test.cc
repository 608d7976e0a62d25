#include "core/fingerprint_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/canonical.h"
#include "core/parser.h"

namespace semacyc {
namespace {

/// A value with a controllable byte report, so budgets can be exercised
/// without depending on the ApproxBytes estimates of real payloads.
struct Payload {
  int id = 0;
  size_t bytes = 0;
  size_t ApproxBytes() const { return bytes; }
};

ConjunctiveQuery Q(const std::string& text) { return MustParseQuery(text); }

/// Distinct (non-isomorphic) queries: chain of n atoms over predicate Pn.
ConjunctiveQuery ChainQuery(int n) {
  std::string body;
  for (int i = 0; i < n; ++i) {
    if (i > 0) body += ", ";
    body += "P" + std::to_string(n) + "(x" + std::to_string(i) + ",x" +
            std::to_string(i + 1) + ")";
  }
  return Q(body);
}

/// GetOrCompute keyed by q's canonical fingerprint, as the Engine keys
/// its decision cache.
template <typename Compute>
std::shared_ptr<const Payload> Get(FingerprintCache<Payload>& cache,
                                   const ConjunctiveQuery& q,
                                   Compute&& compute) {
  return cache.GetOrCompute(CanonicalFingerprint(q), q,
                            std::forward<Compute>(compute));
}

/// The bytes one entry (key q, a payload reporting `payload` bytes) is
/// charged, read off an unbounded cache — byte budgets are sized in
/// entries through it.
size_t EntryBytes(const ConjunctiveQuery& q, size_t payload) {
  FingerprintCache<Payload> probe;
  Get(probe, q, [payload]() {
    return std::make_shared<const Payload>(Payload{0, payload});
  });
  return probe.Stats().bytes;
}

TEST(FingerprintCacheTest, HitMissInsertAccounting) {
  FingerprintCache<Payload> cache;
  int computes = 0;
  auto compute = [&](int id) {
    return [&computes, id]() {
      ++computes;
      return std::make_shared<const Payload>(Payload{id, 64});
    };
  };
  ConjunctiveQuery a = ChainQuery(1);
  ConjunctiveQuery b = ChainQuery(2);

  EXPECT_EQ(Get(cache, a, compute(1))->id, 1);
  EXPECT_EQ(Get(cache, a, compute(99))->id, 1);  // hit, not recomputed
  EXPECT_EQ(Get(cache, b, compute(2))->id, 2);
  EXPECT_EQ(computes, 2);

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.bytes, 2u * 64u);  // payload plus key/bookkeeping charge
}

TEST(FingerprintCacheTest, LruEvictionUnderByteBudget) {
  ConjunctiveQuery a = ChainQuery(1), b = ChainQuery(2), c = ChainQuery(3);
  // One byte short of all three entries: a and b fit, inserting c must
  // evict exactly one entry, and a + c fit again.
  FingerprintCache<Payload> cache(EntryBytes(a, 16) + EntryBytes(b, 16) +
                                  EntryBytes(c, 16) - 1);
  int computes = 0;
  auto value = [&computes](int id) {
    return [&computes, id]() {
      ++computes;
      return std::make_shared<const Payload>(Payload{id, 16});
    };
  };

  Get(cache, a, value(1));
  Get(cache, b, value(2));
  Get(cache, a, value(1));  // touch a: b becomes LRU
  Get(cache, c, value(3));  // evicts b

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(computes, 3);
  // Residency: a and c are served without computing; b, probed last so
  // its re-insert evicts nothing checked above, was evicted.
  Get(cache, a, value(1));
  Get(cache, c, value(3));
  EXPECT_EQ(computes, 3);
  Get(cache, b, value(2));
  EXPECT_EQ(computes, 4);
}

TEST(FingerprintCacheTest, ByteBudgetEvictsAndNeverBreaksCallers) {
  // Below any single entry: every insert is declined.
  FingerprintCache<Payload> cache(1);
  ConjunctiveQuery a = ChainQuery(1);
  std::shared_ptr<const Payload> first = Get(cache, a, []() {
    return std::make_shared<const Payload>(Payload{7, 4096});
  });
  // The value survives in the caller's hands even though the cache
  // declined to keep it.
  EXPECT_EQ(first->id, 7);
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  // And the next probe recomputes (a miss, not a crash).
  std::shared_ptr<const Payload> second = Get(cache, a, []() {
    return std::make_shared<const Payload>(Payload{8, 4096});
  });
  EXPECT_EQ(second->id, 8);
}

TEST(FingerprintCacheTest, ClearDropsEntriesAndCountsEvictions) {
  FingerprintCache<Payload> cache;
  for (int i = 1; i <= 4; ++i) {
    Get(cache, ChainQuery(i), [i]() {
      return std::make_shared<const Payload>(Payload{i, 32});
    });
  }
  EXPECT_EQ(cache.Stats().entries, 4u);
  cache.Clear();
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 4u);
  EXPECT_EQ(stats.misses, 4u);  // counters survive the trim
}

TEST(FingerprintCacheTest, ServesRenamedVariantsVerbatim) {
  FingerprintCache<Payload> cache;
  ConjunctiveQuery q = Q("R(x,y), S(y,z)");
  ConjunctiveQuery renamed = Q("R(u,v), S(v,w)");
  Get(cache, q, []() {
    return std::make_shared<const Payload>(Payload{1, 16});
  });
  std::shared_ptr<const Payload> hit = Get(cache, renamed, []() {
    ADD_FAILURE() << "isomorphic probe should not recompute";
    return std::make_shared<const Payload>(Payload{2, 16});
  });
  EXPECT_EQ(hit->id, 1);
  EXPECT_EQ(cache.Stats().hits, 1u);
  EXPECT_EQ(cache.Stats().entries, 1u);  // served verbatim, no new entry
}

TEST(FingerprintCacheTest, ConcurrentGetOrComputeKeepsFirstInsert) {
  FingerprintCache<Payload> cache;
  ConjunctiveQuery a = ChainQuery(4);
  constexpr size_t kThreads = 8;
  std::atomic<int> computes{0};
  std::vector<std::shared_ptr<const Payload>> seen(kThreads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      seen[t] = Get(cache, a, [&]() {
        return std::make_shared<const Payload>(
            Payload{computes.fetch_add(1) + 1, 16});
      });
    });
  }
  for (auto& t : pool) t.join();
  // Whatever raced, every thread observed one shared value object.
  for (size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(cache.Stats().entries, 1u);
}

/// Eviction under contention: 8 threads over a two-entry byte budget;
/// the cache must stay within budget, never serve a wrong value, and end
/// coherent.
TEST(FingerprintCacheTest, ConcurrentEvictionStaysCoherent) {
  constexpr size_t kPayload = 4096;  // dominates the key charge
  std::vector<ConjunctiveQuery> keys;
  for (int i = 1; i <= 6; ++i) keys.push_back(ChainQuery(i));
  // Any two entries fit (the largest key twice), no three do.
  const size_t max_bytes = 2 * EntryBytes(keys.back(), kPayload);
  ASSERT_GT(3 * EntryBytes(keys.front(), kPayload), max_bytes);
  FingerprintCache<Payload> cache(max_bytes);
  constexpr size_t kThreads = 8;
  std::vector<std::thread> pool;
  std::atomic<bool> mismatch{false};
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t]() {
      for (size_t k = 0; k < 60; ++k) {
        size_t i = (k + t) % keys.size();
        auto v = Get(cache, keys[i], [i]() {
          return std::make_shared<const Payload>(
              Payload{static_cast<int>(i), kPayload});
        });
        if (v->id != static_cast<int>(i)) mismatch.store(true);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_FALSE(mismatch.load());
  CacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_LE(stats.bytes, max_bytes);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.misses, stats.inserts);
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 60u);
}

}  // namespace
}  // namespace semacyc
