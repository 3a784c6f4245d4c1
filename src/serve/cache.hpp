// Sharded LRU memoization cache for serving responses.
//
// Tuning and cost evaluation are pure queries (request.hpp), so the
// service memoizes them.  The cache is sharded by the high word of the
// 128-bit key: each shard is an independent lock + LRU list + index, so
// concurrent lookups on different shards never contend, and a scan-heavy
// tenant can evict at most its shards' share of the capacity.
//
// Values are shared_ptr<const Response> — hits hand back a reference to
// the immutable cached object (no copy of a potentially large
// SearchResult under the shard lock); the service copies only to stamp
// per-waiter latency.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/request.hpp"

namespace harmony::serve {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t entries = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups ? static_cast<double>(hits) /
                         static_cast<double>(lookups)
                   : 0.0;
  }
};

class ResultCache {
 public:
  /// `capacity` is the total entry budget, split across `shards` with
  /// the remainder distributed one entry each to the first
  /// `capacity % shards` shards — the shard caps always sum to exactly
  /// `capacity` (shard count is clamped so each holds at least one
  /// entry).
  explicit ResultCache(std::size_t capacity, std::size_t shards = 8);

  /// Hit: bumps the entry to most-recently-used and returns it.
  [[nodiscard]] std::shared_ptr<const Response> get(const CacheKey& key);

  /// Inserts or refreshes; evicts the shard's LRU entry when full.
  void put(const CacheKey& key, std::shared_ptr<const Response> value);

  /// Aggregated over shards (each counter internally consistent; the
  /// cross-shard sum is a point-in-time composite).
  [[nodiscard]] CacheStats stats() const;

  /// Every (key, value) pair, shard by shard, least-recently-used
  /// first — put() in this order rebuilds each shard's recency order.
  /// Touches neither the hit/miss counters nor recency.
  [[nodiscard]] std::vector<
      std::pair<CacheKey, std::shared_ptr<const Response>>>
  entries() const;

  void clear();

  /// The total entry budget as requested at construction.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<CacheKey, std::shared_ptr<const Response>>> lru;
    std::unordered_map<CacheKey, decltype(lru)::iterator, CacheKeyHash>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// This shard's slice of the total budget.
    std::size_t cap = 0;
  };

  Shard& shard_for(const CacheKey& key) {
    return *shards_[key.hi % shards_.size()];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_;
};

}  // namespace harmony::serve
