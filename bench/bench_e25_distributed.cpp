// E25 — distributed serve tier under open-loop load (DESIGN.md §17).
//
// A closed-loop client (submit, wait, repeat) can never observe a
// saturation knee: its own blocking throttles the offered load to
// whatever the server sustains.  This bench drives the router + worker
// shards the way the world does — *open loop*: arrivals are scheduled
// on a clock at a fixed offered rate regardless of completions, and
// latency is measured from the scheduled arrival, so queueing delay
// shows up in the tail exactly when the tier saturates.
//
// Three phases:
//
// E25.a calibrates single-shard capacity with a windowed closed-loop
// burst of distinct cost-eval keys (each arrival is fresh work — the
// keys differ, so the result cache cannot flatter throughput).
//
// E25.b sweeps offered load as multiples of that single-shard
// saturation rate over fleets of 1/2/4/8 shards, reporting exact
// (sorted, not histogram-bucketed) P50/P99/P999 per point and the
// knee: the first offered fraction where P99 exceeds 5x the fleet's
// own low-load P99 or admission control starts shedding.  The headline
// acceptance gate — enforced in full runs, where pacing is accurate —
// is that at 80% of single-shard saturation a 4-shard fleet's P99 is
// at least 2x better than the single shard's.
//
// E25.c restarts a shard from its CacheSnapshot — the source shard's
// result cache, restored by key — and verifies the warm-start contract
// (enforced in smoke runs too) over every tune tier the wire carries
// (exhaustive, anneal, and a paired pipeline tune): the restore
// compiles nothing (zero compile misses), and replaying the snapshot's
// keys afterwards is pure cache hits — zero new compiles, no stampede.
//
// Flags:
//   --smoke   shrink the sweep (CI's perf label runs this); the 2x
//             P99 gate is reported but not enforced
//   --json    print one machine-readable JSON object instead of the
//             ASCII tables (BENCH_e25_distributed.json is this output)
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/router.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "support/table.hpp"

using namespace harmony;
using BenchClock = std::chrono::steady_clock;

namespace {

constexpr serve::Status kOk = serve::Status::kOk;
constexpr serve::Status kRejected = serve::Status::kRejected;

/// A router fronting `n` in-process worker shards over loopback
/// channels (the same full wire path the tests pin; no fork, so the
/// bench runs anywhere CI does).
struct Fleet {
  serve::Router router;
  std::vector<std::unique_ptr<serve::Worker>> workers;
  std::vector<std::thread> threads;

  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      serve::ServiceConfig cfg;
      cfg.num_workers = 2;
      workers.push_back(std::make_unique<serve::Worker>(cfg));
      serve::ChannelPair pair = serve::make_loopback_pair();
      threads.emplace_back(
          [w = workers.back().get(), ch = pair.right] { w->serve(ch); });
      router.add_shard("shard" + std::to_string(i), pair.left);
    }
  }

  ~Fleet() {
    router.shutdown();
    for (std::thread& t : threads) t.join();
  }
};

/// Distinct-key cost-eval workload: every arrival shifts the map's time
/// offset, so each request is a fresh routing/cache key doing the same
/// amount of oracle work.  The global counter keeps keys unique across
/// phases.
std::uint64_t g_next_key = 0;

serve::Request fresh_cost_req(serve::Router& router) {
  serve::Request req;
  req.kind = serve::RequestKind::kCostEval;
  req.spec = router.catalog().spec("editdist:8x6");
  req.machine = fm::make_machine(4, 1);
  req.inputs = {serve::InputPlacement::at({0, 0}),
                serve::InputPlacement::at({0, 0})};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 4, .rows = 1};
  req.map.t0 = static_cast<std::int64_t>(g_next_key++);
  return req;
}

/// The warm-restart tunes, one per tier: exhaustive kTunes, an anneal
/// kTune, and a paired kPipelineTune.
std::vector<serve::Request> restart_tunes(serve::SpecCatalog& catalog) {
  std::vector<serve::Request> tunes;
  for (const char* spec : {"editdist:4x4", "matmul:3", "conv:16,3"}) {
    serve::Request req;
    req.kind = serve::RequestKind::kTune;
    req.spec = catalog.spec(spec);
    req.machine = fm::make_machine(4, 1);
    req.inputs = {serve::InputPlacement::at({0, 0}),
                  serve::InputPlacement::at({0, 0})};
    req.search.quick_sample = 16;
    req.search.top_k = 2;
    tunes.push_back(req);
  }
  serve::Request anneal;
  anneal.kind = serve::RequestKind::kTune;
  anneal.spec = catalog.spec("irregular:16,3,7");
  anneal.machine = fm::make_machine(2, 2);
  anneal.strategy = fm::StrategyKind::kAnneal;
  anneal.strategy_opts.chains = 2;
  anneal.strategy_opts.epochs = 6;
  anneal.strategy_opts.iters_per_epoch = 64;
  tunes.push_back(anneal);
  serve::Request pipeline;
  pipeline.kind = serve::RequestKind::kPipelineTune;
  pipeline.pipeline = catalog.pipeline("scanchain:8");
  pipeline.machine = fm::make_machine(2, 1);
  pipeline.search.quick_sample = 16;
  tunes.push_back(pipeline);
  return tunes;
}

/// Pays every cold-start cost — worker threads, scheduler spin-up, spec
/// memoization — before a timed phase, so the sweep measures steady
/// state rather than fleet boot.
void warm_fleet(Fleet& fleet, std::size_t n) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fleet.router.submit(fresh_cost_req(fleet.router),
                        [&](const serve::RoutedReply&) {
                          std::lock_guard<std::mutex> lock(mu);
                          ++done;
                          cv.notify_all();
                        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == n; });
}

/// E25.a — windowed closed-loop burst; returns sustained requests/s.
double measure_capacity(std::size_t n_requests) {
  Fleet fleet(1);
  warm_fleet(fleet, 128);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0, done = 0;
  constexpr std::size_t kWindow = 256;

  const auto t0 = BenchClock::now();
  for (std::size_t i = 0; i < n_requests; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight < kWindow; });
      ++inflight;
    }
    fleet.router.submit(fresh_cost_req(fleet.router),
                        [&](const serve::RoutedReply&) {
                          std::lock_guard<std::mutex> lock(mu);
                          --inflight;
                          ++done;
                          cv.notify_all();
                        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == n_requests; });
  const double secs =
      std::chrono::duration<double>(BenchClock::now() - t0).count();
  return static_cast<double>(n_requests) / secs;
}

struct SweepPoint {
  std::size_t shards = 0;
  double fraction = 0;  ///< offered rate as multiple of sat1
  double offered_rps = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t stolen = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

/// E25.b inner loop — one open-loop point: `n` arrivals paced at
/// `rate_rps` against a fresh `shards`-wide fleet.
SweepPoint run_open_loop(std::size_t shards, double fraction, double rate_rps,
                         std::size_t n) {
  Fleet fleet(shards);
  warm_fleet(fleet, 64 * shards);
  std::vector<double> latency_us(n, 0.0);
  std::vector<serve::Status> status(n, kOk);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;

  const auto start = BenchClock::now() + std::chrono::milliseconds(5);
  const double ns_per_arrival = 1e9 / rate_rps;
  for (std::size_t i = 0; i < n; ++i) {
    const auto scheduled =
        start + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(ns_per_arrival * i));
    // Sleep, never spin: on a core-starved host a spinning pacer steals
    // the very CPU the shards need, poisoning the measurement.  The
    // schedule is absolute, so sleep overshoot does not accumulate —
    // and submitter lag counts against latency, as open loop demands.
    std::this_thread::sleep_until(scheduled);
    fleet.router.submit(
        fresh_cost_req(fleet.router),
        [&, i, scheduled](const serve::RoutedReply& r) {
          // Open-loop latency: from the *scheduled* arrival, so both
          // the shard's service time and any router/admission queueing
          // (including submitter lag at overload) count.
          const double us =
              std::chrono::duration<double, std::micro>(BenchClock::now() -
                                                        scheduled)
                  .count();
          std::lock_guard<std::mutex> lock(mu);
          latency_us[i] = us;
          status[i] = r.response.status;
          ++done;
          cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  }

  SweepPoint pt;
  pt.shards = shards;
  pt.fraction = fraction;
  pt.offered_rps = rate_rps;
  std::vector<double> ok_us;
  ok_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (status[i] == kOk) {
      ok_us.push_back(latency_us[i]);
    } else if (status[i] == kRejected) {
      ++pt.rejected;
    } else {
      ++pt.errors;
    }
  }
  pt.completed = ok_us.size();
  pt.stolen = fleet.router.stats().stolen;
  std::sort(ok_us.begin(), ok_us.end());
  pt.p50_us = percentile(ok_us, 0.50);
  pt.p99_us = percentile(ok_us, 0.99);
  pt.p999_us = percentile(ok_us, 0.999);
  return pt;
}

struct WarmRestart {
  std::uint64_t source_compile_misses = 0;
  std::uint64_t restore_compile_misses = 0;
  std::uint64_t replay_new_misses = 0;
  std::uint64_t replay_cache_hits = 0;
  std::uint64_t restored_entries = 0;
  bool pass = false;
};

/// E25.c — snapshot/restore warm-start contract.
WarmRestart run_warm_restart() {
  WarmRestart wr;
  std::vector<std::uint8_t> snapshot;
  {
    Fleet source(1);
    for (const serve::Request& t : restart_tunes(source.router.catalog())) {
      if (source.router.call(t).response.status != kOk) return wr;
    }
    wr.source_compile_misses =
        source.router.shard_metrics(0).compile_misses;
    snapshot = source.router.snapshot_shard(0);
  }

  Fleet restored(1);
  wr.restored_entries = restored.router.restore_shard(0, snapshot);
  wr.restore_compile_misses =
      restored.router.shard_metrics(0).compile_misses;

  bool replay_all_hits = true;
  const std::vector<serve::Request> tunes =
      restart_tunes(restored.router.catalog());
  for (const serve::Request& t : tunes) {
    const serve::Response r = restored.router.call(t).response;
    replay_all_hits = replay_all_hits && r.status == kOk && r.cache_hit;
  }
  const serve::WireMetrics after = restored.router.shard_metrics(0);
  wr.replay_new_misses = after.compile_misses - wr.restore_compile_misses;
  wr.replay_cache_hits = after.cache_hits;

  wr.pass = replay_all_hits && wr.replay_new_misses == 0 &&
            wr.restore_compile_misses == 0 &&
            wr.restored_entries == tunes.size();
  return wr;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    if (arg == "--json") json = true;
  }

  if (!json) {
    std::cout << "E25: distributed serve tier — open-loop saturation\n"
              << (smoke ? "(smoke run)\n" : "") << "\n";
  }

  // E25.a — single-shard capacity.
  const std::size_t cap_n = smoke ? 400 : 4000;
  const double sat1_rps = measure_capacity(cap_n);

  // E25.b — offered-load sweep.  Every fleet size sees the common
  // comparison fractions (the 0.8 point feeds the acceptance gate) plus
  // its own saturation region at S x the single-shard rate.
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::size_t sweep_n = smoke ? 150 : 1500;
  std::vector<SweepPoint> sweep;
  for (const std::size_t s : shard_counts) {
    std::vector<double> fractions = {0.4, 0.8};
    const auto sd = static_cast<double>(s);
    for (const double f : {0.6 * sd, 1.0 * sd, 1.3 * sd, 2.0 * sd}) {
      if (f > fractions.back()) fractions.push_back(f);
    }
    for (const double f : fractions) {
      sweep.push_back(run_open_loop(s, f, f * sat1_rps, sweep_n));
    }
  }

  // Knee per fleet size: first offered fraction where P99 blows past
  // 5x the fleet's own low-load P99, or admission control sheds.
  Table knees({"shards", "knee_x_sat1", "knee_p99_us"});
  std::vector<std::string> knee_strs;
  for (const std::size_t s : shard_counts) {
    double base_p99 = 0;
    std::string knee = "none";
    double knee_p99 = 0;
    for (const SweepPoint& pt : sweep) {
      if (pt.shards != s) continue;
      if (base_p99 == 0) base_p99 = pt.p99_us;
      if (pt.p99_us > 5.0 * base_p99 || pt.rejected > 0) {
        knee = fmt(pt.fraction);
        knee_p99 = pt.p99_us;
        break;
      }
    }
    knees.add_row({std::to_string(s), knee, knee_p99});
    knee_strs.push_back(knee);
  }

  // Acceptance gate: at 0.8 x single-shard saturation, four shards must
  // cut P99 by at least 2x.  Enforced only in full runs on hardware
  // that can actually run the shards in parallel — on a 1-core host
  // four shards timeshare one CPU and no sharding scheme can beat the
  // single shard; the numbers are still reported.
  double p99_1 = 0, p99_dist = 0;
  const std::size_t gate_shards = smoke ? 2 : 4;
  for (const SweepPoint& pt : sweep) {
    if (pt.fraction == 0.8 && pt.shards == 1) p99_1 = pt.p99_us;
    if (pt.fraction == 0.8 && pt.shards == gate_shards) {
      p99_dist = pt.p99_us;
    }
  }
  const double speedup = p99_dist > 0 ? p99_1 / p99_dist : 0.0;
  const bool gate_p99 = speedup >= 2.0;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  const bool gate_enforced = !smoke && hw_threads >= 2 * gate_shards;

  std::uint64_t total_errors = 0;
  for (const SweepPoint& pt : sweep) total_errors += pt.errors;

  // E25.c — warm restart (enforced in smoke too: it is timing-free).
  const WarmRestart wr = run_warm_restart();

  Table sweep_t({"shards", "offered_x_sat1", "offered_rps", "completed",
                 "rejected", "stolen", "p50_us", "p99_us", "p999_us"});
  for (const SweepPoint& pt : sweep) {
    sweep_t.add_row({std::to_string(pt.shards), pt.fraction, pt.offered_rps,
                     static_cast<std::int64_t>(pt.completed),
                     static_cast<std::int64_t>(pt.rejected),
                     static_cast<std::int64_t>(pt.stolen), pt.p50_us,
                     pt.p99_us, pt.p999_us});
  }

  Table warm_t({"metric", "value"});
  warm_t.add_row({std::string("source_compile_misses"),
                  static_cast<std::int64_t>(wr.source_compile_misses)});
  warm_t.add_row({std::string("restore_compile_misses"),
                  static_cast<std::int64_t>(wr.restore_compile_misses)});
  warm_t.add_row({std::string("replay_new_misses"),
                  static_cast<std::int64_t>(wr.replay_new_misses)});
  warm_t.add_row({std::string("replay_cache_hits"),
                  static_cast<std::int64_t>(wr.replay_cache_hits)});
  warm_t.add_row({std::string("restored_entries"),
                  static_cast<std::int64_t>(wr.restored_entries)});

  if (json) {
    std::ostringstream js, jk, jw;
    sweep_t.print_json(js);
    knees.print_json(jk);
    warm_t.print_json(jw);
    std::cout << "{\n\"bench\": \"e25_distributed\",\n\"smoke\": "
              << (smoke ? "true" : "false")
              << ",\n\"single_shard_sat_rps\": " << sat1_rps
              << ",\n\"p99_us_1shard_at_0p8\": " << p99_1
              << ",\n\"p99_us_" << gate_shards
              << "shard_at_0p8\": " << p99_dist
              << ",\n\"dist_p99_speedup_at_0p8\": " << speedup
              << ",\n\"hw_threads\": " << hw_threads
              << ",\n\"p99_gate_2x\": " << (gate_p99 ? "true" : "false")
              << ",\n\"p99_gate_enforced\": "
              << (gate_enforced ? "true" : "false")
              << ",\n\"sweep_errors\": " << total_errors
              << ",\n\"warm_restart_pass\": " << (wr.pass ? "true" : "false")
              << ",\n\"sweep\": " << js.str() << ",\n\"knees\": " << jk.str()
              << ",\n\"warm_restart\": " << jw.str() << "\n}\n";
  } else {
    std::cout << "E25.a single-shard saturation: " << sat1_rps
              << " requests/s (closed-loop, window 256)\n\n";
    std::cout << "E25.b open-loop sweep (latency from scheduled arrival):\n";
    sweep_t.print(std::cout);
    std::cout << "\nKnees (first offered fraction with P99 > 5x low-load "
                 "P99 or load shedding):\n";
    knees.print(std::cout);
    std::cout << "\nP99 @ 0.8 x sat1: 1 shard = " << p99_1 << " us, "
              << gate_shards << " shards = " << p99_dist
              << " us, speedup = " << speedup << " ("
              << (gate_enforced
                      ? ">= 2x gate enforced"
                      : smoke ? "not gated in smoke"
                              : "gate skipped: insufficient hw threads")
              << ", hw_threads = " << hw_threads << ")\n";
    std::cout << "\nE25.c warm restart:\n";
    warm_t.print(std::cout);
    std::cout << "\n";
  }

  bool ok = wr.pass && total_errors == 0;
  if (!wr.pass) {
    std::cerr << "FAIL: warm-restart contract violated (replay misses "
              << wr.replay_new_misses << ", restore misses "
              << wr.restore_compile_misses << ", restored "
              << wr.restored_entries << " entries)\n";
  }
  if (total_errors != 0) {
    std::cerr << "FAIL: " << total_errors << " kError responses in sweep\n";
  }
  if (gate_enforced && !gate_p99) {
    std::cerr << "FAIL: 4-shard P99 at 0.8 x sat1 not 2x better ("
              << speedup << "x)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
