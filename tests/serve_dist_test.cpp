// Router + worker-shard integration: the distributed serve tier end to
// end over the in-process loopback transport (DESIGN.md §17).
//
// Everything here runs the *full* wire path — encode, frame, decode,
// rebuild, Service, reply — with no fork, so the suite is TSan-clean
// and deterministic.  The acceptance properties pinned:
//   * every request kind and strategy crosses the wire (loopback and
//     socketpair) with its cache key intact, and its answer is
//     semantically identical to a direct Service call's — stolen or
//     not;
//   * repeat queries hit the affinity shard's result cache;
//   * duplicate in-flight queries coalesce onto one shard ask;
//   * stolen requests return byte-identical semantic payloads;
//   * drain completes with zero dropped or errored in-flight requests,
//     and rejoin restores the exact pre-drain placement;
//   * snapshot/restore warm-starts a fresh shard: the snapshot is the
//     result cache (evicted and deadline-cut answers are absent), a
//     restore re-snapshots byte for byte, compiles nothing, and is all
//     or nothing; replayed keys are cache hits;
//   * a shard that dies fails its pending asks, their coalesced
//     followers and in-flight control RPCs within a bound — nothing
//     waits forever;
//   * fleet metrics are merged (counters summed, histograms added),
//     not averaged;
//   * hostile frames (unknown or over-budget names, oversized grids,
//     zero-extent maps) come back as kError and the shard keeps
//     serving; requests that cannot cross are answered kError at the
//     router, and a rejection callback may call back into the router.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace harmony::serve {
namespace {

using namespace std::chrono_literals;

constexpr Status kOk = Status::kOk;
constexpr Status kError = Status::kError;
constexpr Status kRejected = Status::kRejected;

ServiceConfig small_worker() {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  return cfg;
}

/// A router fronting `n` in-process workers over loopback channels.
/// start=false leaves the workers idle with frames queuing in the
/// loopback — the deterministic setup for the coalesce/steal tests.
struct Fleet {
  Router router;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::shared_ptr<Channel>> channels;
  std::vector<std::thread> threads;

  explicit Fleet(std::size_t n, RouterConfig rcfg = {}, bool start = true,
                 ChannelPair (*make_pair)() = make_loopback_pair)
      : router(rcfg) {
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<Worker>(small_worker()));
      ChannelPair pair = make_pair();
      channels.push_back(pair.right);
      router.add_shard("shard" + std::to_string(i), pair.left);
      if (start) start_worker(i);
    }
  }

  void start_worker(std::size_t i) {
    threads.emplace_back(
        [w = workers[i].get(), ch = channels[i]] { w->serve(ch); });
  }

  void start_all() {
    for (std::size_t i = 0; i < workers.size(); ++i) start_worker(i);
  }

  ~Fleet() {
    router.shutdown();
    for (std::thread& t : threads) t.join();
  }

  /// Where this fleet's requests get their specs and pipelines.
  SpecCatalog& catalog() { return router.catalog(); }
};

Request cost_req(SpecCatalog& catalog, std::int64_t n, std::int64_t m,
                 int pes) {
  Request req;
  req.kind = RequestKind::kCostEval;
  req.spec =
      catalog.spec("editdist:" + std::to_string(n) + "x" + std::to_string(m));
  req.machine = fm::make_machine(pes, 1);
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = pes, .rows = 1};
  return req;
}

Request tune_req(SpecCatalog& catalog, const std::string& spec, int pes) {
  Request req;
  req.kind = RequestKind::kTune;
  req.spec = catalog.spec(spec);
  req.machine = fm::make_machine(pes, 1);
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.search.quick_sample = 16;
  req.search.top_k = 2;
  return req;
}

/// A small anneal or beam kTune over an irregular DAG.
Request stochastic_req(SpecCatalog& catalog, fm::StrategyKind strategy) {
  Request req;
  req.kind = RequestKind::kTune;
  req.spec = catalog.spec("irregular:12,3,7");
  req.machine = fm::make_machine(2, 2);
  req.inputs = {InputPlacement::at({0, 0})};
  req.strategy = strategy;
  req.strategy_opts.chains = 2;
  req.strategy_opts.epochs = 4;
  req.strategy_opts.iters_per_epoch = 32;
  req.strategy_opts.beam_width = 4;
  req.strategy_opts.beam_moves = 8;
  return req;
}

/// A kPipelineTune over one of the catalog's canned chains; the
/// irregular chain tunes with anneal, the others exhaustively.
Request pipeline_req(SpecCatalog& catalog, const std::string& name,
                     bool paired) {
  Request req;
  req.kind = RequestKind::kPipelineTune;
  req.pipeline = catalog.pipeline(name);
  req.machine = fm::make_machine(2, 1);
  req.pipeline_paired = paired;
  req.pipeline_pair_candidates = 2;
  req.search.quick_sample = 16;
  req.search.top_k = 2;
  if (name.rfind("irregular:", 0) == 0) {
    req.strategy = fm::StrategyKind::kAnneal;
    req.strategy_opts.chains = 2;
    req.strategy_opts.epochs = 4;
    req.strategy_opts.iters_per_epoch = 32;
  }
  return req;
}

TEST(ServeDist, CostEvalMatchesDirectServiceCall) {
  Fleet fleet(2);
  const Request req = cost_req(fleet.catalog(), 8, 6, 4);

  // Direct oracle: the same Request through an in-process Service.
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  const Response expect = direct.call(req);
  ASSERT_TRUE(expect.ok());

  const Response got = fleet.router.call(req).response;
  EXPECT_EQ(got.status, kOk);
  EXPECT_EQ(semantic_bytes(got), semantic_bytes(expect));
  EXPECT_EQ(got.cost.makespan_cycles, expect.cost.makespan_cycles);
}

TEST(ServeDist, TuneMatchesDirectServiceCall) {
  Fleet fleet(2);
  const Request req = tune_req(fleet.catalog(), "editdist:4x4", 4);

  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  const Response expect = direct.call(req);
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(expect.search.found);

  const Response got = fleet.router.call(req).response;
  EXPECT_EQ(got.status, kOk);
  EXPECT_TRUE(got.search.found);
  EXPECT_EQ(got.search.best.cost.makespan_cycles,
            expect.search.best.cost.makespan_cycles);
  EXPECT_EQ(semantic_bytes(got), semantic_bytes(expect));
}

/// Every RequestKind x StrategyKind the Service answers, built from
/// `catalog`: cost_eval, legality, tune x {exhaustive, anneal, beam},
/// and pipeline_tune x {fft, scanchain, diamond, irregular (anneal)} x
/// {paired, greedy}.
std::vector<std::pair<std::string, Request>> every_kind(SpecCatalog& catalog) {
  std::vector<std::pair<std::string, Request>> cases;
  cases.emplace_back("cost_eval", cost_req(catalog, 6, 5, 4));
  Request legality = cost_req(catalog, 6, 5, 4);
  legality.kind = RequestKind::kLegality;
  legality.map.t0 = -3;  // illegal: diagnostics cross too
  legality.verify.max_messages = 3;
  cases.emplace_back("legality", legality);
  cases.emplace_back("tune/exhaustive", tune_req(catalog, "editdist:4x4", 4));
  cases.emplace_back("tune/anneal",
                     stochastic_req(catalog, fm::StrategyKind::kAnneal));
  cases.emplace_back("tune/beam",
                     stochastic_req(catalog, fm::StrategyKind::kBeam));
  for (const char* name : {"fft:4", "scanchain:6", "diamond:4",
                           "irregular:8,2,3"}) {
    for (const bool paired : {true, false}) {
      cases.emplace_back(std::string("pipeline/") + name +
                             (paired ? "/paired" : "/greedy"),
                         pipeline_req(catalog, name, paired));
    }
  }
  return cases;
}

TEST(ServeDist, EveryKindAndStrategyCrossesTheWire) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  SpecCatalog local;
  const auto cases = every_kind(local);
  std::vector<std::vector<std::uint8_t>> expect;
  for (const auto& [what, req] : cases) {
    // Codec: the key survives the round trip into a fresh catalog, and
    // re-encoding is byte-identical.
    Writer w;
    encode(w, req, local);
    SpecCatalog shard;
    Reader r(w.data());
    const Request back = decode_request(r, shard);
    EXPECT_NO_THROW(r.expect_end()) << what;
    EXPECT_EQ(make_cache_key(back), make_cache_key(req)) << what;
    Writer again;
    encode(again, back, shard);
    EXPECT_EQ(again.data(), w.data()) << what;

    const Response answer = direct.call(req);
    ASSERT_TRUE(answer.ok()) << what << ": " << answer.error;
    // Each tier answered in earnest, so its reply fields are not all
    // defaults.
    switch (req.kind) {
      case RequestKind::kCostEval:
        EXPECT_GT(answer.cost.makespan_cycles, 0) << what;
        break;
      case RequestKind::kLegality:
        EXPECT_FALSE(answer.legality.ok) << what;
        EXPECT_EQ(answer.legality.diagnostics.size(), 3u) << what;
        break;
      case RequestKind::kTune:
        EXPECT_TRUE(req.strategy == fm::StrategyKind::kExhaustive
                        ? answer.search.found
                        : answer.strategy.found &&
                              answer.strategy.best.num_ops() > 0)
            << what;
        break;
      case RequestKind::kPipelineTune:
        EXPECT_TRUE(answer.pipeline.found) << what;
        EXPECT_EQ(answer.pipeline.stages.size(), req.pipeline->size()) << what;
        break;
    }
    expect.push_back(semantic_bytes(answer));
  }

  // Router + Worker over both transports: the in-process answer.
  for (ChannelPair (*transport)() : {make_loopback_pair, make_socket_pair}) {
    Fleet fleet(2, RouterConfig{}, /*start=*/true, transport);
    const auto remote = every_kind(fleet.catalog());
    for (std::size_t i = 0; i < remote.size(); ++i) {
      const Response got = fleet.router.call(remote[i].second).response;
      ASSERT_EQ(got.status, kOk) << remote[i].first << ": " << got.error;
      EXPECT_EQ(semantic_bytes(got), expect[i]) << remote[i].first;
    }
  }

  // Stolen: each query asked twice of a fresh idle fleet that steals on
  // any imbalance — the first ask queues on the affinity shard, the
  // second sees depth 1 vs 0 and lands on the other shard.
  RouterConfig steal;
  steal.coalesce = false;
  steal.steal_margin = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Fleet fleet(2, steal, /*start=*/false);
    const Request req = every_kind(fleet.catalog())[i].second;
    std::promise<RoutedReply> first, second;
    fleet.router.submit(req,
                        [&first](const RoutedReply& r) { first.set_value(r); });
    fleet.router.submit(
        req, [&second](const RoutedReply& r) { second.set_value(r); });
    fleet.start_all();
    const RoutedReply affinity = first.get_future().get();
    const RoutedReply stolen = second.get_future().get();
    const std::string& what = cases[i].first;
    ASSERT_EQ(affinity.response.status, kOk) << what;
    ASSERT_EQ(stolen.response.status, kOk) << what;
    EXPECT_FALSE(affinity.stolen) << what;
    EXPECT_TRUE(stolen.stolen) << what;
    EXPECT_EQ(semantic_bytes(affinity.response), expect[i]) << what;
    EXPECT_EQ(semantic_bytes(stolen.response), expect[i]) << what;
  }
}

TEST(ServeDist, RepeatQueryHitsAffinityShardCache) {
  Fleet fleet(4);
  const Request wire = cost_req(fleet.catalog(), 8, 8, 4);

  const RoutedReply first = fleet.router.call(wire);
  ASSERT_EQ(first.response.status, kOk);
  EXPECT_FALSE(first.response.cache_hit);

  const RoutedReply second = fleet.router.call(wire);
  ASSERT_EQ(second.response.status, kOk);
  EXPECT_TRUE(second.response.cache_hit)
      << "same key must ride to the warm shard";
  EXPECT_EQ(second.shard, first.shard);
  EXPECT_EQ(semantic_bytes(second.response), semantic_bytes(first.response));
}

TEST(ServeDist, DuplicateInFlightQueriesCoalesce) {
  // Workers start *after* the burst is submitted, so every duplicate
  // provably arrives while the leader is in flight — no timing window.
  Fleet fleet(2, RouterConfig{}, /*start=*/false);
  const Request wire = cost_req(fleet.catalog(), 10, 10, 4);

  constexpr int kBurst = 16;
  std::vector<std::promise<RoutedReply>> done(kBurst);
  std::vector<std::future<RoutedReply>> futs;
  futs.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) futs.push_back(done[i].get_future());
  for (int i = 0; i < kBurst; ++i) {
    fleet.router.submit(
        wire, [&done, i](const RoutedReply& r) { done[i].set_value(r); });
  }

  const RouterStats pre = fleet.router.stats();
  EXPECT_EQ(pre.routed, 1u) << "one shard ask for the whole burst";
  EXPECT_EQ(pre.coalesced, static_cast<std::uint64_t>(kBurst - 1));

  fleet.start_all();
  int coalesced = 0;
  std::vector<std::uint8_t> leader_bytes;
  for (int i = 0; i < kBurst; ++i) {
    const RoutedReply r = futs[i].get();
    EXPECT_EQ(r.response.status, kOk);
    coalesced += r.coalesced ? 1 : 0;
    if (leader_bytes.empty()) leader_bytes = semantic_bytes(r.response);
    EXPECT_EQ(semantic_bytes(r.response), leader_bytes);
  }
  EXPECT_EQ(coalesced, kBurst - 1);
}

TEST(ServeDist, DeadlineRequestsOptOutOfCoalescing) {
  Fleet fleet(1, RouterConfig{}, /*start=*/false);
  Request wire = cost_req(fleet.catalog(), 6, 6, 2);
  wire.deadline = 1s;  // patient, but deadline-carrying

  std::promise<RoutedReply> p1, p2;
  fleet.router.submit(wire,
                      [&p1](const RoutedReply& r) { p1.set_value(r); });
  fleet.router.submit(wire,
                      [&p2](const RoutedReply& r) { p2.set_value(r); });
  const RouterStats pre = fleet.router.stats();
  EXPECT_EQ(pre.routed, 2u) << "deadline requests never coalesce";
  EXPECT_EQ(pre.coalesced, 0u);

  fleet.start_all();
  EXPECT_EQ(p1.get_future().get().response.status, kOk);
  EXPECT_EQ(p2.get_future().get().response.status, kOk);
}

TEST(ServeDist, StolenResultIsByteIdenticalToAffinityResult) {
  RouterConfig rcfg;
  rcfg.coalesce = false;   // force both asks onto the wire
  rcfg.steal_margin = 0;   // steal on any imbalance
  Fleet fleet(2, rcfg, /*start=*/false);

  const Request wire = cost_req(fleet.catalog(), 9, 7, 4);
  std::promise<RoutedReply> p1, p2;
  // First ask queues on the (idle) affinity shard; the second sees
  // outstanding 1 vs 0 and must steal to the other shard.
  fleet.router.submit(wire,
                      [&p1](const RoutedReply& r) { p1.set_value(r); });
  fleet.router.submit(wire,
                      [&p2](const RoutedReply& r) { p2.set_value(r); });
  EXPECT_EQ(fleet.router.stats().stolen, 1u);

  fleet.start_all();
  const RoutedReply affinity = p1.get_future().get();
  const RoutedReply stolen = p2.get_future().get();
  ASSERT_EQ(affinity.response.status, kOk);
  ASSERT_EQ(stolen.response.status, kOk);
  EXPECT_FALSE(affinity.stolen);
  EXPECT_TRUE(stolen.stolen);
  EXPECT_NE(affinity.shard, stolen.shard);
  // The steal traded cache affinity for queue depth — nothing else.
  EXPECT_EQ(semantic_bytes(stolen.response),
            semantic_bytes(affinity.response));
}

TEST(ServeDist, DrainDropsNothingAndRejoinRestoresPlacement) {
  RouterConfig rcfg;
  rcfg.coalesce = false;
  rcfg.enable_steal = false;  // shard field is pure ring placement
  Fleet fleet(2, rcfg);

  // Map out which shard owns which probe key (ring is deterministic).
  std::vector<Request> probes;
  std::vector<std::uint32_t> owner;
  for (int n = 4; n < 12; ++n) {
    probes.push_back(cost_req(fleet.catalog(), n, n + 1, 4));
    const RoutedReply r = fleet.router.call(probes.back());
    EXPECT_EQ(r.response.status, kOk);
    owner.push_back(r.shard);
  }
  const auto owned_by = [&](std::uint32_t shard) -> const Request* {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (owner[i] == shard) return &probes[i];
    }
    return nullptr;
  };
  const Request* key0 = owned_by(0);
  ASSERT_NE(key0, nullptr) << "8 distinct keys must cover both shards";
  ASSERT_NE(owned_by(1), nullptr);

  // Concurrent open load while shard 0 drains.
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::vector<Status>> statuses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const Request& req = probes[(c * kPerClient + i) % probes.size()];
        statuses[c].push_back(fleet.router.call(req).response.status);
      }
    });
  }
  fleet.router.drain(0);
  for (std::thread& t : clients) t.join();

  for (const auto& client : statuses) {
    ASSERT_EQ(client.size(), static_cast<std::size_t>(kPerClient));
    for (const Status s : client) {
      EXPECT_EQ(s, kOk) << "drain must not drop or error in-flight work";
    }
  }

  // Drained: shard 0's keys fall through to shard 1.
  const RoutedReply moved = fleet.router.call(*key0);
  EXPECT_EQ(moved.response.status, kOk);
  EXPECT_EQ(moved.shard, 1u);

  // Rejoined: the exact pre-drain placement returns.
  fleet.router.rejoin(0);
  const RoutedReply back = fleet.router.call(*key0);
  EXPECT_EQ(back.response.status, kOk);
  EXPECT_EQ(back.shard, 0u);
}

TEST(ServeDist, SnapshotRestoreWarmStartsWithoutRecompiles) {
  std::vector<std::uint8_t> snapshot;
  std::vector<std::uint8_t> bytes_a, bytes_b;
  {
    Fleet source(1);
    const Response ra =
        source.router.call(tune_req(source.catalog(), "editdist:4x4", 4))
            .response;
    const Response rb =
        source.router.call(tune_req(source.catalog(), "matmul:3", 4))
            .response;
    ASSERT_EQ(ra.status, kOk);
    ASSERT_EQ(rb.status, kOk);
    bytes_a = semantic_bytes(ra);
    bytes_b = semantic_bytes(rb);
    const WireMetrics m = source.router.shard_metrics(0);
    EXPECT_GE(m.compile_misses, 2u);  // two distinct compile keys
    snapshot = source.router.snapshot_shard(0);
    EXPECT_FALSE(snapshot.empty());
  }

  Fleet restored(1);
  EXPECT_EQ(restored.router.restore_shard(0, snapshot), 2u);
  const WireMetrics after_restore = restored.router.shard_metrics(0);
  // A restore puts answers back under their keys; it compiles nothing.
  EXPECT_EQ(after_restore.compile_misses, 0u);

  // Replaying the snapshot's keys: pure cache hits, zero new compiles,
  // answers byte-identical to the source shard's.
  const Response ra =
      restored.router.call(tune_req(restored.catalog(), "editdist:4x4", 4))
          .response;
  const Response rb =
      restored.router.call(tune_req(restored.catalog(), "matmul:3", 4))
          .response;
  ASSERT_EQ(ra.status, kOk);
  ASSERT_EQ(rb.status, kOk);
  EXPECT_TRUE(ra.cache_hit);
  EXPECT_TRUE(rb.cache_hit);
  EXPECT_EQ(semantic_bytes(ra), bytes_a);
  EXPECT_EQ(semantic_bytes(rb), bytes_b);

  const WireMetrics after_replay = restored.router.shard_metrics(0);
  EXPECT_EQ(after_replay.compile_misses, after_restore.compile_misses)
      << "replayed keys must not recompile";
  EXPECT_GE(after_replay.cache_hits, 2u);
}

TEST(ServeDist, CorruptSnapshotRestoresNothing) {
  const auto tunes = [](SpecCatalog& catalog) {
    return std::vector<Request>{tune_req(catalog, "editdist:4x4", 4),
                                tune_req(catalog, "matmul:3", 4)};
  };

  std::vector<std::uint8_t> good;
  {
    Fleet source(1);
    for (const Request& t : tunes(source.catalog())) {
      ASSERT_EQ(source.router.call(t).response.status, kOk);
    }
    good = source.router.snapshot_shard(0);
  }
  CacheSnapshot snap = decode_snapshot(good);
  ASSERT_EQ(snap.entries.size(), 2u);
  snap.entries[1].response.pop_back();  // truncate the second answer

  Fleet restored(1);
  EXPECT_EQ(restored.router.restore_shard(0, encode(snap)), 0u);
  // All or nothing: the well-formed first entry was not warmed either.
  EXPECT_TRUE(decode_snapshot(restored.router.snapshot_shard(0))
                  .entries.empty());
  for (const Request& t : tunes(restored.catalog())) {
    const Response r = restored.router.call(t).response;
    ASSERT_EQ(r.status, kOk);
    EXPECT_FALSE(r.cache_hit);
  }
}

TEST(ServeDist, KillingAShardFailsEveryWaiterWithinABound) {
  // The worker never starts, so the submit, its coalesced follower and
  // the control RPC are all provably in flight when the shard dies.
  Fleet fleet(1, RouterConfig{}, /*start=*/false);
  const Request wire = cost_req(fleet.catalog(), 6, 6, 2);
  std::promise<RoutedReply> leader, follower;
  fleet.router.submit(
      wire, [&leader](const RoutedReply& r) { leader.set_value(r); });
  fleet.router.submit(
      wire, [&follower](const RoutedReply& r) { follower.set_value(r); });
  ASSERT_EQ(fleet.router.stats().coalesced, 1u);

  std::promise<std::string> rpc;
  std::thread control([&] {
    try {
      (void)fleet.router.shard_metrics(0);
      rpc.set_value("returned");
    } catch (const WireError& e) {
      rpc.set_value(std::string("WireError: ") + e.what());
    }
  });
  std::this_thread::sleep_for(50ms);  // let the RPC reach its wait
  fleet.channels[0]->close();         // the shard dies

  std::future<RoutedReply> leader_f = leader.get_future();
  std::future<RoutedReply> follower_f = follower.get_future();
  std::future<std::string> rpc_f = rpc.get_future();
  const auto bound = std::chrono::steady_clock::now() + 2s;
  const bool leader_done =
      leader_f.wait_until(bound) == std::future_status::ready;
  const bool follower_done =
      follower_f.wait_until(bound) == std::future_status::ready;
  const bool rpc_done = rpc_f.wait_until(bound) == std::future_status::ready;
  // Shutdown releases anything still hung, so a failure fails the test
  // instead of hanging the suite.
  fleet.router.shutdown();
  control.join();

  ASSERT_TRUE(leader_done) << "pending submit hung on a dead shard";
  EXPECT_EQ(leader_f.get().response.status, kError);
  ASSERT_TRUE(follower_done) << "coalesced follower hung on a dead shard";
  EXPECT_EQ(follower_f.get().response.status, kError);
  ASSERT_TRUE(rpc_done) << "control RPC hung on a dead shard";
  EXPECT_EQ(rpc_f.get(), "WireError: Router::control: shard channel closed");
}

TEST(ServeDist, AsksAfterTheReaderStopsFailInsteadOfHanging) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::promise<RoutedReply> reply;
  {
    Router router;
    router.add_shard("liar", channel_from_fd(fds[0]));
    // A frame shorter than its own header: the router's reader rejects
    // it and stops, while the shard's end of the socket stays open, so
    // sends still succeed and nothing would ever answer them.
    const std::uint32_t len = 0;
    ASSERT_EQ(::write(fds[1], &len, sizeof len),
              static_cast<ssize_t>(sizeof len));

    std::promise<bool> rpc;
    std::thread control([&] {
      try {
        (void)router.shard_metrics(0);
        rpc.set_value(false);
      } catch (const WireError&) {
        rpc.set_value(true);
      }
    });
    std::future<bool> rpc_f = rpc.get_future();
    const bool rpc_done = rpc_f.wait_for(2s) == std::future_status::ready;
    router.submit(cost_req(router.catalog(), 4, 4, 2),
                  [&reply](const RoutedReply& r) { reply.set_value(r); });
    std::future<RoutedReply> reply_f = reply.get_future();
    const bool reply_done =
        reply_f.wait_for(2s) == std::future_status::ready;
    router.shutdown();
    control.join();

    ASSERT_TRUE(rpc_done) << "control RPC hung on a stopped reader";
    EXPECT_TRUE(rpc_f.get());
    ASSERT_TRUE(reply_done) << "submit hung on a stopped reader";
    EXPECT_EQ(reply_f.get().response.status, kError);
  }
  ::close(fds[1]);
}

TEST(WorkerSnapshot, EvictedAnswerIsAbsent) {
  ServiceConfig cfg = small_worker();
  cfg.cache_capacity = 1;
  cfg.cache_shards = 1;
  Worker worker(cfg);
  const Request a = cost_req(worker.catalog(), 4, 4, 2);
  const Request b = cost_req(worker.catalog(), 5, 5, 2);
  ASSERT_TRUE(worker.service().call(a).ok());
  ASSERT_TRUE(worker.service().call(b).ok());  // LRU-evicts a

  const CacheSnapshot snap = worker.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].key, make_cache_key(b));
}

TEST(WorkerSnapshot, DeadlineCutTuneIsAbsent) {
  Worker worker(small_worker());
  const Request cost = cost_req(worker.catalog(), 4, 4, 2);
  Request cut = tune_req(worker.catalog(), "editdist:4x4", 4);
  cut.deadline = 1ns;  // past its cutoff before the search starts
  ASSERT_TRUE(worker.service().call(cost).ok());
  const Response r = worker.service().call(cut);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.deadline_cut);

  const CacheSnapshot snap = worker.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].key, make_cache_key(cost));
}

TEST(WorkerSnapshot, RestoreThenSnapshotIsByteIdentical) {
  Worker source(small_worker());
  for (const Request& req :
       {tune_req(source.catalog(), "editdist:4x4", 4),
        tune_req(source.catalog(), "matmul:3", 4),
        cost_req(source.catalog(), 6, 6, 2)}) {
    const Response r = source.service().call(req);
    ASSERT_TRUE(r.ok()) << r.error;
  }
  const CacheSnapshot snap = source.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);

  Worker fresh(small_worker());
  EXPECT_EQ(fresh.restore(snap), 3u);
  EXPECT_EQ(encode(fresh.snapshot()), encode(snap));
  EXPECT_EQ(fresh.service().metrics().compile_misses, 0u)
      << "a restore compiles nothing";
}

TEST(WorkerSnapshot, StochasticAndPipelineAnswersSurviveRestore) {
  Worker source(small_worker());
  const auto requests = [](SpecCatalog& catalog) {
    return std::vector<Request>{
        stochastic_req(catalog, fm::StrategyKind::kAnneal),
        stochastic_req(catalog, fm::StrategyKind::kBeam),
        pipeline_req(catalog, "irregular:8,2,3", true),
        pipeline_req(catalog, "diamond:4", false)};
  };
  std::vector<std::vector<std::uint8_t>> expect;
  for (const Request& req : requests(source.catalog())) {
    const Response r = source.service().call(req);
    ASSERT_TRUE(r.ok()) << r.error;
    expect.push_back(semantic_bytes(r));
  }
  const CacheSnapshot snap = source.snapshot();
  ASSERT_EQ(snap.entries.size(), expect.size());

  Worker fresh(small_worker());
  EXPECT_EQ(fresh.restore(decode_snapshot(encode(snap))), expect.size());
  const std::vector<Request> replay = requests(fresh.catalog());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const Response r = fresh.service().call(replay[i]);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.cache_hit) << i;
    EXPECT_EQ(semantic_bytes(r), expect[i]) << i;
  }
  EXPECT_EQ(fresh.service().metrics().compile_misses, 0u);
}

TEST(WorkerSnapshot, RestoreRejectsAnswersTheCacheNeverHolds) {
  Worker worker(small_worker());
  Response error;
  error.status = kError;
  error.error = "oracle threw";
  Response cut;
  cut.kind = RequestKind::kTune;
  cut.search.exhausted = false;
  for (const Response& bad : {error, cut}) {
    Writer w;
    encode(w, bad);
    CacheSnapshot snap;
    snap.entries.push_back(SnapshotEntry{CacheKey{1, 2}, w.take()});
    EXPECT_THROW((void)worker.restore(snap), WireError);
  }
  EXPECT_TRUE(worker.snapshot().entries.empty());
}

TEST(ServeDist, FleetMetricsMergeCountersAndHistograms) {
  Fleet fleet(2);
  for (int n = 4; n < 10; ++n) {
    EXPECT_EQ(
        fleet.router.call(cost_req(fleet.catalog(), n, n, 2)).response.status,
        kOk);
  }

  const WireMetrics s0 = fleet.router.shard_metrics(0);
  const WireMetrics s1 = fleet.router.shard_metrics(1);
  const WireMetrics fleet_m = fleet.router.fleet_metrics();
  EXPECT_EQ(fleet_m.submitted, s0.submitted + s1.submitted);
  EXPECT_EQ(fleet_m.completed, s0.completed + s1.completed);
  EXPECT_EQ(fleet_m.completed, 6u);
  EXPECT_EQ(fleet_m.errors, 0u);

  std::uint64_t shard_obs = 0, fleet_obs = 0;
  for (const std::uint64_t c : s0.latency_buckets) shard_obs += c;
  for (const std::uint64_t c : s1.latency_buckets) shard_obs += c;
  for (const std::uint64_t c : fleet_m.latency_buckets) fleet_obs += c;
  EXPECT_EQ(fleet_obs, shard_obs);
  EXPECT_EQ(fleet_obs, 6u);

  // The merged buckets feed straight back into a histogram for true
  // fleet percentiles.
  LatencyHistogram h;
  h.add_counts(fleet_m.latency_buckets);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_GT(h.percentile_us(0.5), 0.0);
}

/// `body` with its spec/pipeline name — the string right after the
/// kind byte — replaced by `name`: a frame no honest encoder writes.
std::vector<std::uint8_t> renamed(const std::vector<std::uint8_t>& body,
                                  const std::string& name) {
  Reader r(body);
  (void)r.u8();
  const std::size_t old_len = r.str().size();
  Writer w;
  w.u8(body[0]);
  w.str(name);
  std::vector<std::uint8_t> out = w.take();
  const auto rest = body.begin() + 5 + static_cast<std::ptrdiff_t>(old_len);
  out.insert(out.end(), rest, body.end());
  return out;
}

TEST(ServeDist, HostileFramesYieldErrorsAndTheShardKeepsServing) {
  // Raw frames straight to a shard: a router never encodes these.
  Worker worker(small_worker());
  ChannelPair pair = make_loopback_pair();
  std::thread serving([&] { worker.serve(pair.right); });
  SpecCatalog catalog;
  std::uint64_t next_id = 1;
  const auto ask = [&](const std::vector<std::uint8_t>& body) {
    const std::uint64_t id = next_id++;
    EXPECT_TRUE(pair.left->send(Frame{MsgType::kSubmit, id, body}));
    Frame reply;
    EXPECT_TRUE(pair.left->recv(reply));
    EXPECT_EQ(reply.id, id);
    Reader r(reply.body);
    return decode_response(r);
  };
  Writer w;
  encode(w, cost_req(catalog, 4, 4, 2), catalog);
  const std::vector<std::uint8_t> good = w.take();

  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"bogus:3", "unknown spec family"},
      {"editdist:0x4", "zero extent"},
      {"matmul:3000000", "points"},
      {"irregular:24,4294967296,7", "points"}};
  for (const auto& [name, why] : hostile) {
    const Response r = ask(renamed(good, name));
    EXPECT_EQ(r.status, kError) << name;
    EXPECT_NE(r.error.find(why), std::string::npos) << name << ": " << r.error;
  }
  // A 65536 x 65536 grid: the (cols, rows) pair follows the name.
  std::vector<std::uint8_t> huge = good;
  const std::int64_t side = 65536;
  const std::size_t at = 1 + 4 + std::string("editdist:4x4").size();
  std::memcpy(huge.data() + at, &side, sizeof side);
  std::memcpy(huge.data() + at + 8, &side, sizeof side);
  const Response r = ask(huge);
  EXPECT_EQ(r.status, kError);
  EXPECT_NE(r.error.find("grid"), std::string::npos) << r.error;

  // The shard survives all of them: a well-formed follow-up answers.
  EXPECT_EQ(ask(good).status, kOk);
  pair.left->send(Frame{MsgType::kShutdown, 0, {}});
  serving.join();
}

TEST(ServeDist, RequestsThatCannotCrossAreAnsweredErrorByTheRouter) {
  Fleet fleet(1);
  Request hooked = tune_req(fleet.catalog(), "editdist:4x4", 4);
  hooked.search.cancel = [] { return false; };
  const RoutedReply r1 = fleet.router.call(hooked);
  EXPECT_EQ(r1.response.status, kError);
  EXPECT_NE(r1.response.error.find("cancel"), std::string::npos);

  Request foreign = cost_req(fleet.catalog(), 4, 4, 2);
  foreign.spec = SpecCatalog().spec("editdist:4x4");
  const RoutedReply r2 = fleet.router.call(foreign);
  EXPECT_EQ(r2.response.status, kError);
  EXPECT_NE(r2.response.error.find("not built by this catalog"),
            std::string::npos);
  EXPECT_EQ(fleet.router.stats().routed, 0u) << "nothing reached a shard";
}

TEST(ServeDist, ZeroExtentMapYieldsErrorAndShardSurvives) {
  // AffineMap::place wraps modulo map.cols / map.rows; a frame carrying
  // a zero extent must come back as kError, not kill the shard process.
  Fleet fleet(1);

  Request cost = cost_req(fleet.catalog(), 4, 4, 2);
  cost.map.cols = 0;
  const Response r1 = fleet.router.call(cost).response;
  EXPECT_EQ(r1.status, kError);
  EXPECT_NE(r1.error.find("map.cols"), std::string::npos);

  Request legality = cost_req(fleet.catalog(), 4, 4, 2);
  legality.kind = RequestKind::kLegality;
  legality.map.rows = 0;
  const Response r2 = fleet.router.call(legality).response;
  EXPECT_EQ(r2.status, kError);
  EXPECT_NE(r2.error.find("map.cols"), std::string::npos);

  // The shard answers the next request.
  EXPECT_EQ(fleet.router.call(cost_req(fleet.catalog(), 4, 4, 2))
                .response.status,
            kOk);
}

TEST(ServeDist, RouterWithoutShardsRejects) {
  Router router;
  const Response r = router.call(cost_req(router.catalog(), 4, 4, 2)).response;
  EXPECT_EQ(r.status, kRejected);
  EXPECT_NE(r.error.find("no shards"), std::string::npos);
}

TEST(ServeDist, RejectionCallbackMayCallBackIntoTheRouter) {
  // The rejection callback runs outside the router's lock: calling
  // stats() or resubmitting from it must not deadlock (this test would
  // hang, not fail, if it did).
  Router router;
  const Request req = cost_req(router.catalog(), 4, 4, 2);
  bool inner_rejected = false;
  std::uint64_t routed = ~0ULL;
  router.submit(req, [&](const RoutedReply& r) {
    EXPECT_EQ(r.response.status, kRejected);
    routed = router.stats().routed;
    router.submit(req, [&](const RoutedReply& again) {
      inner_rejected = again.response.status == kRejected;
    });
  });
  EXPECT_EQ(routed, 0u);
  EXPECT_TRUE(inner_rejected);
}

}  // namespace
}  // namespace harmony::serve
