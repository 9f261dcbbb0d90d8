#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

/// \file plan_cache.hpp
/// Sharded, thread-safe LRU cache for optimizer results.
///
/// Planning a transformer layer issues hundreds of optimize_* calls, most of
/// them repeats (every decoder layer shares the projection shapes).  The
/// cache makes repeats O(key hash) under concurrency: keys are distributed
/// across N independent shards, each with its own mutex, LRU list and byte
/// budget, so threads planning different shapes never contend.
///
/// Accounting is by caller-declared entry cost (bytes); when a shard
/// overflows its budget (capacity_bytes / shards) it evicts from the
/// least-recently-used end.  Hits, misses, insertions and evictions are
/// reported through the obs metrics registry under `<metric_prefix>/...`.

namespace fusecu {

/// Point-in-time cache statistics (shared across value-type instantiations).
struct CacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;

  CacheStats& operator+=(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    insertions += o.insertions;
    evictions += o.evictions;
    entries += o.entries;
    bytes += o.bytes;
    return *this;
  }
};

template <typename Value>
class ShardedLruCache {
 public:
  struct Options {
    int shards = 8;
    std::size_t capacity_bytes = 64ull * 1024 * 1024;
    std::string metric_prefix = "serve/cache";
    MetricsRegistry* registry = &MetricsRegistry::global();
  };

  using Stats = CacheStats;

  explicit ShardedLruCache(Options options)
      : options_(std::move(options)),
        hits_(options_.registry->counter(options_.metric_prefix + "/hits")),
        misses_(options_.registry->counter(options_.metric_prefix + "/misses")),
        insertions_(options_.registry->counter(options_.metric_prefix + "/insertions")),
        evictions_(options_.registry->counter(options_.metric_prefix + "/evictions")) {
    FCU_CHECK(options_.shards >= 1, "cache needs at least one shard");
    shards_ = std::vector<Shard>(static_cast<std::size_t>(options_.shards));
    shard_capacity_ = options_.capacity_bytes / static_cast<std::size_t>(options_.shards);
  }

  /// The one counted probe.  Under the shard lock, \p pick reads the
  /// stored value and returns what the caller needs from it (a pointer or
  /// an optional).  A non-empty result counts one hit and refreshes the
  /// entry's recency; an absent key, or an empty result — an entry that
  /// exists but does not answer this request, such as a transpose class
  /// whose other orientation is cached — counts one miss.  \p pick runs
  /// under the shard mutex, so it must be quick and must only read.
  template <typename Pick>
  auto find(const std::string& key, Pick&& pick) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    decltype(pick(std::declval<const Value&>())) found{};
    if (it != shard.index.end()) found = pick(static_cast<const Value&>(it->second->value));
    if (!found) {
      misses_.add();
      return found;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    hits_.add();
    return found;
  }

  /// Copy of the cached value (a find() that picks the whole value).
  std::optional<Value> get(const std::string& key) {
    return find(key, [](const Value& v) { return std::optional<Value>(v); });
  }

  /// Insert or overwrite; evicts LRU entries until the shard fits.
  void put(const std::string& key, Value value, std::size_t cost_bytes) {
    upsert(
        key, [&](Value& stored, bool) { stored = std::move(value); }, cost_bytes);
  }

  /// Find-or-create \p key under the shard lock and apply \p mutate to the
  /// stored value (second argument: true when the entry already existed).
  /// This is how multi-slot entries (one plan per transpose orientation) are
  /// extended without a lost-update window between get() and put().
  template <typename Fn>
  void upsert(const std::string& key, Fn&& mutate, std::size_t cost_bytes) {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      shard.bytes -= it->second->cost;
      mutate(it->second->value, true);
      it->second->cost = entry_cost(key, cost_bytes);
      shard.bytes += it->second->cost;
    } else {
      shard.lru.push_front(Entry{key, Value{}, entry_cost(key, cost_bytes)});
      mutate(shard.lru.front().value, false);
      shard.index.emplace(shard.lru.front().key, shard.lru.begin());
      shard.bytes += shard.lru.front().cost;
      insertions_.add();
    }
    while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.cost;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      evictions_.add();
    }
  }

  /// Aggregate statistics across all shards (counters are process totals for
  /// this cache instance's metric prefix).
  Stats stats() const {
    Stats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.insertions = insertions_.value();
    s.evictions = evictions_.value();
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      s.entries += shard.lru.size();
      s.bytes += shard.bytes;
    }
    return s;
  }

  int shards() const { return options_.shards; }
  std::size_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  struct Entry {
    std::string key;
    Value value;
    std::size_t cost = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    /// Keys view the list nodes' own key strings (list nodes never move),
    /// so each key is stored once.
    std::unordered_map<std::string_view, typename std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  /// Every entry is charged at least its key plus bookkeeping, so a
  /// zero-cost caller still triggers eviction eventually.
  static std::size_t entry_cost(const std::string& key, std::size_t cost_bytes) {
    return cost_bytes + key.size() + sizeof(Entry);
  }

  Shard& shard_for(const std::string& key) {
    return shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  Options options_;
  std::size_t shard_capacity_ = 0;
  std::vector<Shard> shards_;
  Counter& hits_;
  Counter& misses_;
  Counter& insertions_;
  Counter& evictions_;
};

}  // namespace fusecu
