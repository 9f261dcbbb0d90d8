#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "reference_lru_cache.hpp"
#include "serve/plan_cache.hpp"

namespace fusecu {
namespace {

/// Each test uses a distinct metric prefix so the global-registry counters
/// the cache reports through start at zero for that test.
ShardedLruCache<int>::Options options_for(const std::string& prefix, int shards,
                                          std::size_t capacity) {
  ShardedLruCache<int>::Options o;
  o.shards = shards;
  o.capacity_bytes = capacity;
  o.metric_prefix = prefix;
  return o;
}

/// Bookkeeping overhead charged per entry on top of the caller's cost; the
/// tests size capacities relative to it so eviction points are exact.
std::size_t overhead(const std::string& key) {
  ShardedLruCache<int> probe(options_for("test/cache/probe/" + key, 1, 1));
  probe.put(key, 0, 0);
  return probe.stats().bytes;
}

TEST(ShardedLruCache, HitMissAndRecency) {
  ShardedLruCache<int> cache(options_for("test/cache/hitmiss", 4, 1 << 20));
  EXPECT_EQ(cache.get("a"), std::nullopt);
  cache.put("a", 1, 8);
  cache.put("b", 2, 8);
  EXPECT_EQ(cache.get("a"), std::optional<int>(1));
  EXPECT_EQ(cache.get("b"), std::optional<int>(2));
  EXPECT_EQ(cache.get("c"), std::nullopt);

  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.misses, 2);
  EXPECT_EQ(s.insertions, 2);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ShardedLruCache, EvictsLeastRecentlyUsedFirst) {
  // One shard so the whole budget is a single LRU list.  Capacity fits
  // exactly three entries of cost 100 (plus fixed per-entry overhead).
  const std::size_t per_entry = 100 + overhead("a");
  ShardedLruCache<int> cache(options_for("test/cache/evict", 1, 3 * per_entry));
  cache.put("a", 1, 100);
  cache.put("b", 2, 100);
  cache.put("c", 3, 100);
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch "a": recency order is now a, c, b — "b" is the LRU victim.
  EXPECT_TRUE(cache.get("a").has_value());
  cache.put("d", 4, 100);
  EXPECT_EQ(cache.get("b"), std::nullopt) << "LRU entry should have been evicted";
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_TRUE(cache.get("d").has_value());
  EXPECT_EQ(cache.stats().evictions, 1);

  // Inserting two more evicts in strict recency order: c, then a.
  cache.put("e", 5, 100);
  cache.put("f", 6, 100);
  EXPECT_EQ(cache.get("c"), std::nullopt);
  EXPECT_EQ(cache.get("a"), std::nullopt);
  EXPECT_TRUE(cache.get("d").has_value());
  EXPECT_EQ(cache.stats().evictions, 3);
}

TEST(ShardedLruCache, KeepsAtLeastOneEntryWhenOversized) {
  ShardedLruCache<int> cache(options_for("test/cache/oversize", 1, 16));
  cache.put("huge", 7, 1 << 20);  // cost far beyond capacity
  EXPECT_EQ(cache.get("huge"), std::optional<int>(7))
      << "a single oversized entry must survive (never evict below one entry)";
  cache.put("huge2", 8, 1 << 20);
  EXPECT_EQ(cache.get("huge"), std::nullopt);
  EXPECT_EQ(cache.get("huge2"), std::optional<int>(8));
}

TEST(ShardedLruCache, ConcurrentMixedTrafficStaysConsistent) {
  // Hammer a small cache from several threads; the assertion is internal
  // consistency (every successful get returns the value put under that key),
  // and under TSan this is the data-race check for the shard locking.
  ShardedLruCache<int> cache(options_for("test/cache/hammer", 4, 4096));
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kIters; ++i) {
        const int slot = (t * 7 + i) % 13;
        const std::string key = "key" + std::to_string(slot);
        if (std::optional<int> v = cache.get(key)) {
          ASSERT_EQ(*v, slot * 11);
        } else {
          cache.put(key, slot * 11, 64);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kIters);
  EXPECT_GE(s.entries, 1u);
}

/// One seeded random sequence of get/put driven through the flat cache and
/// the list+map reference model: every operation must give the same hit or
/// miss, value and existed flag, and the same stats(), so the two evict the
/// same entries in the same order.
/// \p oversized_per_mille of the writes cost twice a whole shard, and
/// the run must reach \p min_peak_entries live entries at some point.
void run_differential(int shards, std::size_t capacity, int key_count, int oversized_per_mille,
                      std::size_t min_peak_entries, std::uint64_t seed) {
  SCOPED_TRACE("shards=" + std::to_string(shards) + " capacity=" + std::to_string(capacity) +
               " keys=" + std::to_string(key_count));
  const std::string prefix = "test/cache/differential/" + std::to_string(shards) + "/" +
                             std::to_string(capacity) + "/" + std::to_string(key_count);
  ShardedLruCache<int> flat(options_for(prefix, shards, capacity));
  ReferenceLruCache<int> model(shards, capacity, overhead(""));

  std::vector<std::string> keys;
  for (int i = 0; i < key_count; ++i) {
    // Short keys stay in the string's inline buffer; long ones allocate.
    keys.push_back(std::string(i % 3 == 0 ? 40 : 1, i % 3 == 0 ? 'x' : 'k') + std::to_string(i));
  }
  // Mixed costs, with an occasional entry larger than a whole shard.
  const std::size_t oversized = 2 * capacity / static_cast<std::size_t>(shards);
  const std::size_t costs[] = {0, 16, 64, 200, 700};
  std::mt19937_64 rng(seed);
  const auto pick_cost = [&] {
    if (static_cast<int>(rng() % 1000) < oversized_per_mille) return oversized;
    return costs[rng() % 5];
  };
  constexpr int kOps = 30000;
  std::size_t peak_entries = 0;
  for (int op = 0; op < kOps; ++op) {
    const std::string& key = keys[rng() % keys.size()];
    if (rng() % 100 < 45) {
      ASSERT_EQ(flat.get(key), model.get(key)) << "op " << op << " get " << key;
    } else {
      const int value = static_cast<int>(rng() % 1000);
      const std::size_t cost = pick_cost();
      ASSERT_EQ(flat.put(key, value, cost), model.put(key, value, cost))
          << "op " << op << " put " << key;
    }
    const CacheStats a = flat.stats();
    const CacheStats b = model.stats();
    ASSERT_EQ(a.hits, b.hits) << "op " << op;
    ASSERT_EQ(a.misses, b.misses) << "op " << op;
    ASSERT_EQ(a.insertions, b.insertions) << "op " << op;
    ASSERT_EQ(a.evictions, b.evictions) << "op " << op;
    ASSERT_EQ(a.entries, b.entries) << "op " << op;
    ASSERT_EQ(a.bytes, b.bytes) << "op " << op;
    peak_entries = std::max(peak_entries, a.entries);
  }
  EXPECT_GE(peak_entries, min_peak_entries);
  EXPECT_GT(flat.stats().evictions, 0);
  // Every key, in one sweep, is where the model says it is.
  for (const std::string& key : keys) ASSERT_EQ(flat.get(key), model.get(key)) << key;
}

TEST(ShardedLruCache, MatchesReferenceModelUnderEviction) {
  // A few dozen entries per shard: constant eviction, small tables, and
  // 2% of writes larger than a shard, which empty it down to themselves.
  for (const int shards : {1, 2, 8}) {
    run_differential(shards, static_cast<std::size_t>(shards) * 6000, 300, 20,
                     static_cast<std::size_t>(shards) * 15, 12);
  }
}

TEST(ShardedLruCache, MatchesReferenceModelAcrossTableGrowth) {
  // Hundreds of live entries per shard: repeated doublings, long probe runs
  // and backward-shift deletes across the table's wrap-around.
  for (const int shards : {1, 2, 8}) {
    run_differential(shards, static_cast<std::size_t>(shards) * 150000, 4000, 1,
                     static_cast<std::size_t>(shards) * 300, 13);
  }
}

TEST(ShardedLruCache, KeysWhoseTagsCollideStayDistinct) {
  // Two keys whose hashes share their low 32 bits get the same tag and the
  // same home slot, so only a key compare tells them apart.  Find such a
  // pair by the birthday bound (about 80k keys for 32 bits).
  std::unordered_map<std::uint32_t, std::string> by_tag;
  std::string first;
  std::string second;
  for (int i = 0; i < 1000000 && second.empty(); ++i) {
    std::string key = "collide" + std::to_string(i);
    const auto tag = static_cast<std::uint32_t>(std::hash<std::string_view>{}(key));
    auto [it, fresh] = by_tag.emplace(tag, key);
    if (!fresh) {
      first = it->second;
      second = std::move(key);
    }
  }
  if (second.empty()) GTEST_SKIP() << "no 32-bit tag collision among the keys tried";

  ShardedLruCache<int> cache(options_for("test/cache/collide", 1, 1 << 20));
  cache.put(first, 1, 8);
  EXPECT_EQ(cache.get(second), std::nullopt) << first << " and " << second;
  cache.put(second, 2, 8);
  EXPECT_EQ(cache.get(first), std::optional<int>(1));
  EXPECT_EQ(cache.get(second), std::optional<int>(2));
  EXPECT_EQ(cache.stats().entries, 2u);
}

}  // namespace
}  // namespace fusecu
