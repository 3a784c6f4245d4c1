// Worker shard of the distributed serve tier (DESIGN.md §17).
//
// A Worker is one shard's whole backend: a private Service (its own
// result cache, CompiledSpec cache, scheduler pool — *affinity state*
// that the router's consistent-hash routing keeps hot), a SpecCatalog
// rebuilding named specs and pipelines off the wire, and a serve() loop
// speaking the frame protocol over one Channel.
//
// serve() never blocks the receive loop on an oracle: each kSubmit is
// decoded, submitted to the Service (which answers cache hits
// instantly and queues the rest), and handed with its future to a
// small responder pool that waits and sends the kReply.  Replies
// therefore return in completion order, not arrival order — the
// correlation id, not position, matches them up.
//
// The shard's warm state is its Service's result cache, and nothing
// else: snapshot() encodes the cache's entries (Service::cache_entries)
// and restore() puts them back by key (Service::warm), all or nothing.
// A restore runs no catalog rebuild and no compile — replayed keys are
// result-cache hits.  Every request kind and strategy crosses the wire,
// and the Response codec carries every tier's answer (the exhaustive
// search abridged to its top-1 candidate and counters, wire.hpp), so a
// snapshot holds the same answers the shard would have served.
#pragma once

#include <cstdint>
#include <future>
#include <memory>

#include "serve/catalog.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {

class Worker {
 public:
  explicit Worker(ServiceConfig cfg = {});
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Serves frames from `channel` until kShutdown arrives or the peer
  /// closes.  Blocking — run on a dedicated thread (or as a child
  /// process's main loop).  Reentrant serve() calls are not supported.
  void serve(std::shared_ptr<Channel> channel);

  /// The shard's semantic cache state (see file comment).
  [[nodiscard]] CacheSnapshot snapshot() const;

  /// Puts a snapshot's entries into this shard's result cache, in
  /// snapshot order; returns the number restored.  Every response is
  /// decoded (and must be an answer the cache would store: ok and
  /// converged) before any is warmed, so a snapshot that throws
  /// WireError leaves the cache untouched.
  std::uint64_t restore(const CacheSnapshot& snap);

  /// Direct access for in-process tests and benches.
  [[nodiscard]] Service& service() { return service_; }
  [[nodiscard]] SpecCatalog& catalog() { return catalog_; }

 private:
  struct Reply {
    std::uint64_t id = 0;
    std::uint64_t begin_ns = 0;
    /// The Service's answer, or an already-ready error reply when the
    /// frame failed to decode before submit.
    std::future<Response> future;
  };

  void responder_loop(Channel& channel);

  /// Responder threads waiting on Service futures and sending replies.
  /// 2 keeps a slow tune from head-of-line-blocking a stream of cheap
  /// cost evals without meaningfully adding threads.
  static constexpr unsigned kResponders = 2;

  SpecCatalog catalog_;
  Service service_;
  BoundedQueue<std::unique_ptr<Reply>> replies_;
};

}  // namespace harmony::serve
