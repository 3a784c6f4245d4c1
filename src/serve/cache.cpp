#include "serve/cache.hpp"

#include <algorithm>

namespace harmony::serve {

ResultCache::ResultCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity) {
  HARMONY_REQUIRE(capacity > 0, "ResultCache: capacity must be positive");
  shards = std::clamp<std::size_t>(shards, 1, capacity);
  // Distribute the budget exactly: base entries per shard, with the
  // remainder handed out one each to the leading shards, so the caps
  // sum to `capacity` (neither truncated nor over-provisioned).
  const std::size_t base = capacity / shards;
  const std::size_t extra = capacity % shards;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->cap = base + (s < extra ? 1 : 0);
    shards_.push_back(std::move(sh));
  }
}

std::shared_ptr<const Response> ResultCache::get(const CacheKey& key) {
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lk(sh.mu);
  const auto it = sh.index.find(key);
  if (it == sh.index.end()) {
    ++sh.misses;
    return nullptr;
  }
  ++sh.hits;
  sh.lru.splice(sh.lru.begin(), sh.lru, it->second);  // bump to MRU
  return it->second->second;
}

void ResultCache::put(const CacheKey& key,
                      std::shared_ptr<const Response> value) {
  HARMONY_REQUIRE(value != nullptr, "ResultCache::put: null value");
  Shard& sh = shard_for(key);
  std::lock_guard<std::mutex> lk(sh.mu);
  if (const auto it = sh.index.find(key); it != sh.index.end()) {
    it->second->second = std::move(value);
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    return;
  }
  if (sh.lru.size() >= sh.cap) {
    sh.index.erase(sh.lru.back().first);
    sh.lru.pop_back();
    ++sh.evictions;
  }
  sh.lru.emplace_front(key, std::move(value));
  sh.index.emplace(key, sh.lru.begin());
}

CacheStats ResultCache::stats() const {
  CacheStats total;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    total.hits += sh->hits;
    total.misses += sh->misses;
    total.evictions += sh->evictions;
    total.entries += sh->lru.size();
  }
  return total;
}

std::vector<std::pair<CacheKey, std::shared_ptr<const Response>>>
ResultCache::entries() const {
  std::vector<std::pair<CacheKey, std::shared_ptr<const Response>>> out;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    out.insert(out.end(), sh->lru.rbegin(), sh->lru.rend());
  }
  return out;
}

void ResultCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->lru.clear();
    sh->index.clear();
  }
}

}  // namespace harmony::serve
