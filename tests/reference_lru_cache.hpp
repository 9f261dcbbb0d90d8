#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/plan_cache.hpp"

/// \file reference_lru_cache.hpp
/// Reference model of ShardedLruCache for differential tests: the same
/// semantics built the obvious way, one std::list in recency order plus an
/// std::unordered_map index per shard, single-threaded and with its own
/// counters.  It shards keys by the rule the flat cache documents (the high
/// 32 bits of the key's std::hash, modulo the shard count) and charges each
/// entry its value cost, its key and a fixed \p bookkeeping, so it evicts
/// the same entries in the same order.

namespace fusecu {

template <typename Value>
class ReferenceLruCache {
 public:
  ReferenceLruCache(int shards, std::size_t capacity_bytes, std::size_t bookkeeping)
      : shards_(static_cast<std::size_t>(shards)),
        shard_capacity_(capacity_bytes / static_cast<std::size_t>(shards)),
        bookkeeping_(bookkeeping) {}

  std::optional<Value> get(const std::string& key) {
    Shard& shard = shard_for(key);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++stats_.hits;
    return it->second->value;
  }

  bool put(const std::string& key, Value value, std::size_t cost_bytes) {
    Shard& shard = shard_for(key);
    auto it = shard.index.find(key);
    const bool existed = it != shard.index.end();
    if (existed) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      shard.bytes -= it->second->cost;
    } else {
      shard.lru.push_front(Entry{key, Value{}, 0});
      shard.index.emplace(shard.lru.front().key, shard.lru.begin());
      ++stats_.insertions;
    }
    Entry& entry = shard.lru.front();
    entry.value = std::move(value);
    entry.cost = cost_bytes + key.size() + bookkeeping_;
    shard.bytes += entry.cost;
    while (shard.bytes > shard_capacity_ && shard.lru.size() > 1) {
      const Entry& victim = shard.lru.back();
      shard.bytes -= victim.cost;
      shard.index.erase(victim.key);
      shard.lru.pop_back();
      ++stats_.evictions;
    }
    return existed;
  }

  CacheStats stats() const {
    CacheStats s = stats_;
    for (const Shard& shard : shards_) {
      s.entries += shard.lru.size();
      s.bytes += shard.bytes;
    }
    return s;
  }

 private:
  struct Entry {
    std::string key;
    Value value;
    std::size_t cost = 0;
  };

  struct Shard {
    std::list<Entry> lru;  ///< front = most recently used
    std::unordered_map<std::string_view, typename std::list<Entry>::iterator> index;
    std::size_t bytes = 0;
  };

  Shard& shard_for(const std::string& key) {
    const std::uint64_t hash = std::hash<std::string_view>{}(key);
    return shards_[(hash >> 32) % shards_.size()];
  }

  std::vector<Shard> shards_;
  std::size_t shard_capacity_;
  std::size_t bookkeeping_;
  CacheStats stats_;
};

}  // namespace fusecu
