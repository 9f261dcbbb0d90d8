#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

/// \file plan_cache.hpp
/// Sharded, thread-safe LRU cache for optimizer results.
///
/// Planning a transformer layer issues hundreds of optimize_* calls, most of
/// them repeats (every decoder layer shares the projection shapes).  The
/// cache makes repeats one hash and a short probe under concurrency: keys
/// are distributed across N independent shards, each with its own mutex,
/// LRU order and byte budget, so threads planning different shapes never
/// contend.
///
/// Layout.  A shard is flat: its entries live in one slab vector, and the
/// LRU order is a doubly linked list of uint32 slab indices stored in the
/// entries themselves, so an entry costs no node of its own.  Evicted
/// entries go on a free list and are reused by later inserts.  The index
/// is an open-addressed table of (tag, entry index) slots probed linearly;
/// it doubles when half full and deletes by backward shift, so it never
/// holds tombstones.  A slot's tag is the low 32 bits of the key's hash:
/// it names the slot's home, so moving slots on a delete or a doubling
/// never reads an entry, and the key bytes are compared only when a tag
/// matches.  An empty shard allocates nothing until its first insert.
///
/// One hash per call.  Each get/put hashes its key once; the shard comes
/// from the hash's high 32 bits and the home slot from its low bits.  An
/// entry stores its hash, so evicting the LRU tail finds the victim's slot
/// from that hash and the victim's index: no re-hash, no key compare.
///
/// Cost rule.  Accounting is by caller-declared cost (bytes): an entry is
/// charged its key, its bookkeeping (sizeof(Entry)) and the cost put
/// declares for its value.  When a shard overflows its budget
/// (capacity_bytes / shards) it evicts from the least-recently-used end,
/// but never its last entry.  Hits, misses, insertions and evictions are
/// reported through the obs metrics registry under `<metric_prefix>/...`.
///
/// Values.  PlanService stores one counted reference to an answer block
/// per entry (one block per plan: its record and rendered body), so a hit
/// copies a reference and an eviction drops one.  The charges are those the
/// entries had when they held typed results, and a reference is as large
/// as the shared_ptr it replaced, so sizeof(Entry) and with it the number
/// of entries a budget holds are unchanged.

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

  /// The one counted probe: a copy of \p key's value, taken under the
  /// shard lock, counting one hit and refreshing the entry's recency, or
  /// nullopt counting one miss.
  std::optional<Value> get(const std::string& key) {
    const std::uint64_t hash = hash_of(key);
    Shard& shard = shard_for(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::uint32_t at = shard.lookup(key, hash);
    if (at == kNil) {
      misses_.add();
      return std::nullopt;
    }
    shard.touch(at);
    hits_.add();
    return shard.entries[at].value;
  }

  /// Store \p value under \p key at \p cost_bytes, replacing the value and
  /// charge of an entry already there, as the most recently used entry;
  /// then evict LRU entries until the shard fits.  Returns true when the
  /// key already existed.
  bool put(const std::string& key, Value value, std::size_t cost_bytes) {
    const std::uint64_t hash = hash_of(key);
    Shard& shard = shard_for(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint32_t at = shard.lookup(key, hash);
    const bool existed = at != kNil;
    if (existed) {
      shard.touch(at);
      shard.bytes -= shard.entries[at].cost;
    } else {
      at = shard.insert(key, hash);
      insertions_.add();
    }
    Entry& entry = shard.entries[at];
    entry.value = std::move(value);
    entry.cost = cost_bytes + key.size() + sizeof(Entry);
    shard.bytes += entry.cost;
    while (shard.bytes > shard_capacity_ && shard.live > 1) {
      shard.evict_tail();
      evictions_.add();
    }
    return existed;
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
      s.entries += shard.live;
      s.bytes += shard.bytes;
    }
    return s;
  }

  int shards() const { return options_.shards; }
  std::size_t capacity_bytes() const { return options_.capacity_bytes; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// Cache-line aligned, with what an eviction reads (the hash, the
  /// links, the cost and the value) in its first line; a lookup reads the
  /// key only on a tag match.
  struct alignas(64) Entry {
    std::uint64_t hash = 0;
    std::uint32_t prev = kNil;  ///< toward the most recently used end
    std::uint32_t next = kNil;  ///< toward the LRU end; the free list's link
    std::size_t cost = 0;
    Value value{};
    std::string key;
  };

  /// One index slot: the low 32 bits of the key's hash and the entry's
  /// slab index (kNil when the slot is empty).
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t entry = kNil;
  };

  struct Shard {
    mutable std::mutex mu;
    std::vector<Entry> entries;      ///< the slab: live and free entries
    std::vector<Slot> table;         ///< power-of-two size, at most half full
    std::uint32_t head = kNil;       ///< most recently used
    std::uint32_t tail = kNil;       ///< least recently used
    std::uint32_t free_head = kNil;  ///< free list, linked through next
    std::size_t live = 0;
    std::size_t bytes = 0;

    std::size_t mask() const { return table.size() - 1; }

    /// The entry holding \p key, or kNil.
    std::uint32_t lookup(const std::string& key, std::uint64_t hash) const {
      if (table.empty()) return kNil;
      const auto tag = static_cast<std::uint32_t>(hash);
      for (std::size_t i = tag & mask();; i = (i + 1) & mask()) {
        const Slot& slot = table[i];
        if (slot.entry == kNil) return kNil;
        if (slot.tag == tag && entries[slot.entry].key == key) return slot.entry;
      }
    }

    /// Place (tag, entry) in its first free slot from its home.
    void place(Slot slot) {
      std::size_t i = slot.tag & mask();
      while (table[i].entry != kNil) i = (i + 1) & mask();
      table[i] = slot;
    }

    /// A new most-recently-used entry for \p key, indexed; its value is
    /// default-constructed and its cost is the caller's to set.
    std::uint32_t insert(const std::string& key, std::uint64_t hash) {
      if (2 * (live + 1) > table.size()) grow();
      std::uint32_t at = free_head;
      if (at != kNil) {
        free_head = entries[at].next;
      } else {
        FCU_CHECK(entries.size() < kNil, "cache shard entry count overflows uint32");
        at = static_cast<std::uint32_t>(entries.size());
        entries.emplace_back();
      }
      Entry& entry = entries[at];
      entry.key.assign(key);
      entry.hash = hash;
      link_front(at);
      place(Slot{static_cast<std::uint32_t>(hash), at});
      ++live;
      return at;
    }

    /// Double the table and re-place every slot.  First use allocates 16
    /// slots and room for the 8 entries they index.
    void grow() {
      if (table.empty()) entries.reserve(8);
      std::vector<Slot> old(std::max<std::size_t>(16, 2 * table.size()));
      old.swap(table);
      for (const Slot& slot : old) {
        if (slot.entry != kNil) place(slot);
      }
    }

    void link_front(std::uint32_t at) {
      Entry& entry = entries[at];
      entry.prev = kNil;
      entry.next = head;
      if (head != kNil) entries[head].prev = at;
      head = at;
      if (tail == kNil) tail = at;
    }

    void unlink(std::uint32_t at) {
      Entry& entry = entries[at];
      (entry.prev != kNil ? entries[entry.prev].next : head) = entry.next;
      (entry.next != kNil ? entries[entry.next].prev : tail) = entry.prev;
    }

    /// Make \p at the most recently used entry.
    void touch(std::uint32_t at) {
      if (at == head) return;
      unlink(at);
      link_front(at);
    }

    /// Drop the least recently used entry: find its slot from its stored
    /// hash and index, close the gap by backward shift, release its value
    /// and its key's buffer, and put it on the free list.  (A key buffer
    /// kept for reuse would pin a small block amid the victim's freed plan
    /// memory, and the heap would fragment around it.)
    void evict_tail() {
      const std::uint32_t at = tail;
      Entry& victim = entries[at];
      std::size_t i = static_cast<std::uint32_t>(victim.hash) & mask();
      while (table[i].entry != at) i = (i + 1) & mask();
      for (std::size_t j = (i + 1) & mask(); table[j].entry != kNil; j = (j + 1) & mask()) {
        // table[j] may fill the hole at i unless its home lies in (i, j].
        const std::size_t home = table[j].tag & mask();
        if (((j - home) & mask()) >= ((j - i) & mask())) {
          table[i] = table[j];
          i = j;
        }
      }
      table[i] = Slot{};
      unlink(at);
      bytes -= victim.cost;
      victim.value = Value{};
      std::string().swap(victim.key);
      victim.next = free_head;
      free_head = at;
      --live;
    }
  };

  static std::uint64_t hash_of(const std::string& key) {
    return std::hash<std::string_view>{}(key);
  }

  Shard& shard_for(std::uint64_t hash) { return shards_[(hash >> 32) % shards_.size()]; }

  Options options_;
  std::size_t shard_capacity_ = 0;
  std::vector<Shard> shards_;
  Counter& hits_;
  Counter& misses_;
  Counter& insertions_;
  Counter& evictions_;
};

}  // namespace fusecu
