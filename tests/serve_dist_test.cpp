// Router + worker-shard integration: the distributed serve tier end to
// end over the in-process loopback transport (DESIGN.md §17, ISSUE 10).
//
// Everything here runs the *full* wire path — encode, frame, decode,
// rebuild, Service, reply — with no fork, so the suite is TSan-clean
// and deterministic.  The acceptance properties pinned:
//   * wire answers are semantically identical to direct Service calls;
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
//   * hostile requests (unknown specs, in-process-only kinds, zero-extent
//     maps) come back as kError and the shard keeps serving.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
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

  explicit Fleet(std::size_t n, RouterConfig rcfg = {}, bool start = true)
      : router(rcfg) {
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<Worker>(small_worker()));
      ChannelPair pair = make_loopback_pair();
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
};

WireRequest cost_req(std::int64_t n, std::int64_t m, int pes) {
  WireRequest req;
  req.kind = RequestKind::kCostEval;
  req.spec = "editdist:" + std::to_string(n) + "x" + std::to_string(m);
  req.machine_cols = pes;
  req.machine_rows = 1;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = pes, .rows = 1};
  return req;
}

WireRequest tune_req(const std::string& spec, int pes) {
  WireRequest req;
  req.kind = RequestKind::kTune;
  req.spec = spec;
  req.machine_cols = pes;
  req.machine_rows = 1;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.quick_sample = 16;
  req.top_k = 2;
  return req;
}

TEST(ServeDist, CostEvalMatchesDirectServiceCall) {
  const WireRequest wire = cost_req(8, 6, 4);

  // Direct oracle: the same Request through an in-process Service.
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  SpecCatalog catalog;
  const Response expect = direct.call(to_request(wire, catalog));
  ASSERT_TRUE(expect.ok());

  Fleet fleet(2);
  const Response got = fleet.router.call(wire).response;
  EXPECT_EQ(got.status, kOk);
  EXPECT_EQ(semantic_bytes(got), semantic_bytes(expect));
  EXPECT_EQ(got.cost.makespan_cycles, expect.cost.makespan_cycles);
}

TEST(ServeDist, TuneMatchesDirectServiceCall) {
  const WireRequest wire = tune_req("editdist:4x4", 4);

  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  SpecCatalog catalog;
  const Response expect = direct.call(to_request(wire, catalog));
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(expect.search.found);

  Fleet fleet(2);
  const Response got = fleet.router.call(wire).response;
  EXPECT_EQ(got.status, kOk);
  EXPECT_TRUE(got.search.found);
  EXPECT_EQ(got.search.best.cost.makespan_cycles,
            expect.search.best.cost.makespan_cycles);
  EXPECT_EQ(semantic_bytes(got), semantic_bytes(expect));
}

TEST(ServeDist, RepeatQueryHitsAffinityShardCache) {
  Fleet fleet(4);
  const WireRequest wire = cost_req(8, 8, 4);

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
  const WireRequest wire = cost_req(10, 10, 4);

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
  WireRequest wire = cost_req(6, 6, 2);
  wire.deadline_ns = 1'000'000'000;  // patient, but deadline-carrying

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

  const WireRequest wire = cost_req(9, 7, 4);
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
  std::vector<WireRequest> probes;
  std::vector<std::uint32_t> owner;
  for (int n = 4; n < 12; ++n) {
    probes.push_back(cost_req(n, n + 1, 4));
    const RoutedReply r = fleet.router.call(probes.back());
    EXPECT_EQ(r.response.status, kOk);
    owner.push_back(r.shard);
  }
  const auto owned_by = [&](std::uint32_t shard) -> const WireRequest* {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (owner[i] == shard) return &probes[i];
    }
    return nullptr;
  };
  const WireRequest* key0 = owned_by(0);
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
        const WireRequest& req = probes[(c * kPerClient + i) % probes.size()];
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
  const WireRequest tune_a = tune_req("editdist:4x4", 4);
  const WireRequest tune_b = tune_req("matmul:3", 4);

  std::vector<std::uint8_t> snapshot;
  std::vector<std::uint8_t> bytes_a, bytes_b;
  std::uint64_t source_compile_misses = 0;
  {
    Fleet source(1);
    const Response ra = source.router.call(tune_a).response;
    const Response rb = source.router.call(tune_b).response;
    ASSERT_EQ(ra.status, kOk);
    ASSERT_EQ(rb.status, kOk);
    bytes_a = semantic_bytes(ra);
    bytes_b = semantic_bytes(rb);
    const WireMetrics m = source.router.shard_metrics(0);
    source_compile_misses = m.compile_misses;
    EXPECT_GE(source_compile_misses, 2u);  // two distinct compile keys
    snapshot = source.router.snapshot_shard(0);
    EXPECT_FALSE(snapshot.empty());
  }

  Fleet restored(1);
  EXPECT_EQ(restored.router.restore_shard(0, snapshot), 2u);
  const WireMetrics after_restore = restored.router.shard_metrics(0);
  // The restore-time compiles are the snapshot's miss set — bounded by
  // what the source shard itself paid.
  EXPECT_LE(after_restore.compile_misses, source_compile_misses);

  // Replaying the snapshot's keys: pure cache hits, zero new compiles,
  // answers byte-identical to the source shard's.
  const Response ra = restored.router.call(tune_a).response;
  const Response rb = restored.router.call(tune_b).response;
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
  const WireRequest tune_a = tune_req("editdist:4x4", 4);
  const WireRequest tune_b = tune_req("matmul:3", 4);

  std::vector<std::uint8_t> good;
  {
    Fleet source(1);
    ASSERT_EQ(source.router.call(tune_a).response.status, kOk);
    ASSERT_EQ(source.router.call(tune_b).response.status, kOk);
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
  for (const WireRequest& t : {tune_a, tune_b}) {
    const Response r = restored.router.call(t).response;
    ASSERT_EQ(r.status, kOk);
    EXPECT_FALSE(r.cache_hit);
  }
}

TEST(ServeDist, KillingAShardFailsEveryWaiterWithinABound) {
  // The worker never starts, so the submit, its coalesced follower and
  // the control RPC are all provably in flight when the shard dies.
  Fleet fleet(1, RouterConfig{}, /*start=*/false);
  const WireRequest wire = cost_req(6, 6, 2);
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
    router.submit(cost_req(4, 4, 2),
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
  const Request a = to_request(cost_req(4, 4, 2), worker.catalog());
  const Request b = to_request(cost_req(5, 5, 2), worker.catalog());
  ASSERT_TRUE(worker.service().call(a).ok());
  ASSERT_TRUE(worker.service().call(b).ok());  // LRU-evicts a

  const CacheSnapshot snap = worker.snapshot();
  ASSERT_EQ(snap.entries.size(), 1u);
  EXPECT_EQ(snap.entries[0].key, make_cache_key(b));
}

TEST(WorkerSnapshot, DeadlineCutTuneIsAbsent) {
  Worker worker(small_worker());
  const Request cost = to_request(cost_req(4, 4, 2), worker.catalog());
  Request cut = to_request(tune_req("editdist:4x4", 4), worker.catalog());
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
  for (const WireRequest& wire :
       {tune_req("editdist:4x4", 4), tune_req("matmul:3", 4),
        cost_req(6, 6, 2)}) {
    const Response r =
        source.service().call(to_request(wire, source.catalog()));
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
    EXPECT_EQ(fleet.router.call(cost_req(n, n, 2)).response.status, kOk);
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

TEST(ServeDist, UnknownSpecAndUnsupportedKindYieldErrorsNotDeath) {
  Fleet fleet(1);

  WireRequest bogus = cost_req(4, 4, 2);
  bogus.spec = "bogus:3";
  const Response r1 = fleet.router.call(bogus).response;
  EXPECT_EQ(r1.status, kError);
  EXPECT_NE(r1.error.find("unknown spec family"), std::string::npos);

  WireRequest pipeline = cost_req(4, 4, 2);
  pipeline.kind = RequestKind::kPipelineTune;
  const Response r2 = fleet.router.call(pipeline).response;
  EXPECT_EQ(r2.status, kError);
  EXPECT_NE(r2.error.find("not supported"), std::string::npos);

  // The shard survives both: a well-formed follow-up still answers.
  EXPECT_EQ(fleet.router.call(cost_req(4, 4, 2)).response.status, kOk);
}

TEST(ServeDist, ZeroExtentMapYieldsErrorAndShardSurvives) {
  // AffineMap::place wraps modulo map.cols / map.rows; a frame carrying
  // a zero extent must come back as kError, not kill the shard process.
  Fleet fleet(1);

  WireRequest cost = cost_req(4, 4, 2);
  cost.map.cols = 0;
  const Response r1 = fleet.router.call(cost).response;
  EXPECT_EQ(r1.status, kError);
  EXPECT_NE(r1.error.find("map.cols"), std::string::npos);

  WireRequest legality = cost_req(4, 4, 2);
  legality.kind = RequestKind::kLegality;
  legality.map.rows = 0;
  const Response r2 = fleet.router.call(legality).response;
  EXPECT_EQ(r2.status, kError);
  EXPECT_NE(r2.error.find("map.cols"), std::string::npos);

  // The shard answers the next request.
  EXPECT_EQ(fleet.router.call(cost_req(4, 4, 2)).response.status, kOk);
}

TEST(ServeDist, RouterWithoutShardsRejects) {
  Router router;
  const Response r = router.call(cost_req(4, 4, 2)).response;
  EXPECT_EQ(r.status, kRejected);
  EXPECT_NE(r.error.find("no shards"), std::string::npos);
}

}  // namespace
}  // namespace harmony::serve
