// Cache snapshot / warm-start for worker shards (DESIGN.md §17).
//
// A shard restart without its caches is a stampede in waiting: every
// key it owned storms the oracles at once when traffic returns.  Every
// query a shard answers is pure (request.hpp), so its warm state is
// exactly its result cache: CacheSnapshot is that cache's contents —
// each entry a make_cache_key and the encoded Response it maps to,
// shard by shard and least-recently-used first (ResultCache::entries).
// Worker::restore() decodes every entry before warming any (a corrupt
// snapshot restores nothing) and puts each response back under its key
// (Service::warm).  A restore compiles nothing: a replayed key is a
// result-cache hit and never reaches the compile path (pinned by
// tests/serve_dist_test.cpp and the warm-restart phase of
// bench_e25_distributed).
//
// The format is versioned and self-delimiting —
// `[u32 version][u32 count]` then per entry
// `[u64 key.hi][u64 key.lo][bytes response]` — so a snapshot taken by
// one build can be rejected cleanly (WireError) rather than misparsed
// by another.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/request.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {

struct SnapshotEntry {
  CacheKey key;                        ///< make_cache_key of the query
  std::vector<std::uint8_t> response;  ///< encoded Response (wire.hpp)
};

struct CacheSnapshot {
  /// 4: responses carry the stochastic (strategy) and pipeline tiers,
  /// which a version-3 entry would restore as empty defaults.
  static constexpr std::uint32_t kVersion = 4;
  std::vector<SnapshotEntry> entries;
};

[[nodiscard]] std::vector<std::uint8_t> encode(const CacheSnapshot& snap);
[[nodiscard]] CacheSnapshot decode_snapshot(
    const std::vector<std::uint8_t>& bytes);

}  // namespace harmony::serve
