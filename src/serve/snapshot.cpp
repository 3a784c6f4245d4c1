#include "serve/snapshot.hpp"

#include <algorithm>

namespace harmony::serve {

std::vector<std::uint8_t> encode(const CacheSnapshot& snap) {
  Writer w;
  w.u32(CacheSnapshot::kVersion);
  w.u32(static_cast<std::uint32_t>(snap.entries.size()));
  for (const SnapshotEntry& e : snap.entries) {
    w.u64(e.key.hi);
    w.u64(e.key.lo);
    w.bytes(e.response);
  }
  return w.take();
}

CacheSnapshot decode_snapshot(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  const std::uint32_t version = r.u32();
  if (version != CacheSnapshot::kVersion) {
    throw WireError("CacheSnapshot: version " + std::to_string(version) +
                    " (expected " +
                    std::to_string(CacheSnapshot::kVersion) + ")");
  }
  const std::uint32_t count = r.u32();
  CacheSnapshot snap;
  snap.entries.reserve(std::min<std::size_t>(count, 4096));
  for (std::uint32_t i = 0; i < count; ++i) {
    SnapshotEntry e;
    e.key.hi = r.u64();
    e.key.lo = r.u64();
    e.response = r.bytes();
    snap.entries.push_back(std::move(e));
  }
  r.expect_end();
  return snap;
}

}  // namespace harmony::serve
