// Worker shard of the distributed serve tier (DESIGN.md §17).
//
// A Worker is one shard's whole backend: a private Service (its own
// result cache, CompiledSpec cache, scheduler pool — *affinity state*
// that the router's consistent-hash routing keeps hot), a SpecCatalog
// rebuilding named specs off the wire, and a serve() loop speaking the
// frame protocol over one Channel.
//
// serve() never blocks the receive loop on an oracle: each kSubmit is
// decoded, submitted to the Service (which answers cache hits
// instantly and queues the rest), and handed with its future to a
// small responder pool that waits, records the snapshot log, and sends
// the kReply.  Replies therefore return in completion order, not
// arrival order — the correlation id, not position, matches them up.
//
// The snapshot log retains the encoded (request, response) pair of
// every *converged* non-hit answer, deduplicated by routing key.
// snapshot()/restore() round-trip it so a restarted shard starts warm:
// restore replays results into the result cache (Service::warm) and
// recompiles each distinct tune triple once (Service::precompile) —
// the snapshot's miss set, paid at restore time instead of as a
// stampede when traffic returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {

struct WorkerConfig {
  ServiceConfig service;
  /// Responder threads waiting on Service futures and sending replies.
  /// 2 keeps a slow tune from head-of-line-blocking a stream of cheap
  /// cost evals without meaningfully adding threads.
  unsigned responders = 2;
  /// Snapshot-log entries retained (FIFO beyond; 0 disables logging).
  std::size_t snapshot_capacity = 4096;
};

class Worker {
 public:
  explicit Worker(WorkerConfig cfg = {});
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Serves frames from `channel` until kShutdown arrives or the peer
  /// closes.  Blocking — run on a dedicated thread (or as a child
  /// process's main loop).  Reentrant serve() calls are not supported.
  void serve(std::shared_ptr<Channel> channel);

  /// The shard's semantic cache state (see file comment).
  [[nodiscard]] CacheSnapshot snapshot() const;

  /// Replays a snapshot into this shard's caches; returns the number of
  /// entries restored.  Also primes the local snapshot log, so a
  /// restored shard re-snapshots what it knows.
  std::uint64_t restore(const CacheSnapshot& snap);

  /// Direct access for in-process tests and benches.
  [[nodiscard]] Service& service() { return service_; }
  [[nodiscard]] SpecCatalog& catalog() { return catalog_; }

 private:
  struct Reply {
    std::uint64_t id = 0;
    std::uint64_t begin_ns = 0;
    CacheKey key;  ///< routing key (snapshot-log dedup)
    std::vector<std::uint8_t> request;  ///< canonical encoding (QoS zeroed)
    /// The Service's answer, or an already-ready error reply when the
    /// frame failed to decode or convert before submit.
    std::future<Response> future;
  };

  void responder_loop(Channel& channel);

  WorkerConfig cfg_;
  SpecCatalog catalog_;
  Service service_;
  BoundedQueue<std::unique_ptr<Reply>> replies_;

  mutable std::mutex snap_mu_;
  std::vector<SnapshotEntry> snap_entries_;
  std::unordered_map<CacheKey, std::size_t, CacheKeyHash> snap_index_;
};

}  // namespace harmony::serve
