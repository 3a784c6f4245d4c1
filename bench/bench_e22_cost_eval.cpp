// E22 — compile-once candidate evaluation (DESIGN.md §12).
//
// The mapping search visits thousands of candidates per tune, and under
// the Mapping-walking oracles every one of them re-ran the FunctionSpec's
// dependence callbacks (an allocation per point), re-walked the NoC for
// every hop, and rebuilt a hash set of delivered values.  fm/compiled.hpp
// folds everything that does not depend on the candidate into flat
// arrays once per (spec, machine, input-homes) triple; the inner loop
// then evaluates an AffineMap against those tables with zero allocation.
//
// E22.a measures the search's three-gate inner loop per candidate —
// sampled causality, legality, cost evaluation — through both paths
// over the identical candidate list.  The legacy pass is the
// pre-compiled search inner loop verbatim (spec callbacks, a Mapping
// object per candidate, and the reference oracles of tests/reference,
// fm::reference::verify / evaluate_cost, as its verifier and pricer); the
// compiled pass is what search_affine runs today (flat tables and the
// report-free short-circuit legality gate).  Both accumulate an exact checksum (gate counts, summed
// makespan, summed energy bits) that must agree.
//
// E22.b runs the full search serially and across fork-join lanes
// sharing one pre-compiled spec, confirming the lanes return the serial
// result bit-for-bit while the wall clock drops.  Two scaling columns:
// measured wall-clock speedup (meaningful only when the host has that
// many hardware threads — the JSON records hardware_threads so a reader
// can tell) and a *modeled* speedup from a WorkSpanCtx replay of the
// exact search_lanes grain schedule (static head partition + ticketed
// tail) with one work unit per slot — deterministic on any host, so the
// CI scaling floor keys on it and never flakes on a small container.
//
// Flags:
//   --smoke   shrink the kernels and the measurement window (CI's perf
//             label runs this; the numbers are still real, just noisy)
//   --json    print a single machine-readable JSON object instead of
//             the ASCII tables (BENCH_e22_cost_eval.json is this output)
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/specs.hpp"
#include "fm/compiled.hpp"
#include "fm/cost.hpp"
#include "fm/idioms.hpp"
#include "fm/legality.hpp"
#include "fm/search.hpp"
#include "reference/reference.hpp"
#include "sched/scheduler.hpp"
#include "sched/workspan.hpp"
#include "support/table.hpp"

using namespace harmony;
using BenchClock = std::chrono::steady_clock;

namespace {

/// The candidate list the search would enumerate for `cs`: the affine
/// family over time coefficients {0,1,2} and space coefficients
/// {-1,0,1}, time offsets normalized so every schedule starts at cycle 0
/// — the same maps, in the same slot order, as search_affine's
/// enumeration.  (The input-arrival shift is applied inside the timed
/// inner loops, as the search applies it.)
std::vector<fm::AffineMap> enumerate_candidates(const fm::IndexDomain& dom,
                                                int cols, int rows,
                                                double makespan_bound) {
  const bool use_j = dom.rank() >= 2;
  const bool use_k = dom.rank() >= 3;
  const std::vector<std::int64_t> zero{0};
  const std::vector<std::int64_t> tc{0, 1, 2};
  const std::vector<std::int64_t> sc{-1, 0, 1};
  const auto& tcj = use_j ? tc : zero;
  const auto& tck = use_k ? tc : zero;
  const auto& scj = use_j ? sc : zero;
  const auto& sck = use_k ? sc : zero;
  const auto& scy = rows > 1 ? sc : zero;
  const auto& scyj = rows > 1 ? scj : zero;
  const auto& scyk = rows > 1 ? sck : zero;

  std::vector<fm::AffineMap> out;
  for (std::int64_t ti : tc) {
    for (std::int64_t tj : tcj) {
      for (std::int64_t tk : tck) {
        // Offset normalization: extremes over the domain corners.
        std::int64_t lo = 0, hi = 0;
        const std::int64_t is[2] = {0, dom.extent(0) - 1};
        const std::int64_t js[2] = {0, dom.extent(1) - 1};
        const std::int64_t ks[2] = {0, dom.extent(2) - 1};
        bool first = true;
        for (std::int64_t i : is) {
          for (std::int64_t j : js) {
            for (std::int64_t k : ks) {
              const std::int64_t v = ti * i + tj * j + tk * k;
              lo = first ? v : std::min(lo, v);
              hi = first ? v : std::max(hi, v);
              first = false;
            }
          }
        }
        if (static_cast<double>(hi - lo + 1) > makespan_bound) continue;
        for (std::int64_t xi : sc) {
          for (std::int64_t xj : scj) {
            for (std::int64_t xk : sck) {
              for (std::int64_t yi : scy) {
                for (std::int64_t yj : scyj) {
                  for (std::int64_t yk : scyk) {
                    out.push_back(fm::AffineMap{
                        .ti = ti, .tj = tj, .tk = tk, .t0 = -lo,
                        .xi = xi, .xj = xj, .xk = xk, .x0 = 0,
                        .yi = yi, .yj = yj, .yk = yk, .y0 = 0,
                        .cols = cols, .rows = rows});
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

/// Exact accumulator both paths must agree on: the three gate counters
/// plus the sum of every legal candidate's makespan and energy (doubles
/// summed in candidate order, so bit-equality is meaningful).
struct Checksum {
  std::uint64_t quick_rejected = 0;
  std::uint64_t verify_rejected = 0;
  std::uint64_t legal = 0;
  std::int64_t cycles = 0;
  double energy_fj = 0.0;
  bool operator==(const Checksum& o) const {
    return quick_rejected == o.quick_rejected &&
           verify_rejected == o.verify_rejected && legal == o.legal &&
           cycles == o.cycles && energy_fj == o.energy_fj;
  }
};

/// Runs `pass` (one sweep over the candidate list, returning its
/// Checksum) until `min_seconds` of wall clock accumulate.
template <typename Pass>
void run_timed(Pass&& pass, double min_seconds, std::uint64_t& sweeps,
               double& seconds, Checksum& sum) {
  sweeps = 0;
  const BenchClock::time_point t0 = BenchClock::now();
  do {
    sum = pass();
    ++sweeps;
    seconds =
        std::chrono::duration<double>(BenchClock::now() - t0).count();
  } while (seconds < min_seconds);
}

struct Kernel {
  std::string name;
  fm::FunctionSpec spec;
  int cols;
  int rows;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") json = true;
    if (a == "--smoke") smoke = true;
  }
  if (!json) {
    std::cout << "E22: compile-once candidate evaluation — legacy oracles "
                 "vs the flat fast path\n\n";
  }
  const double min_seconds = smoke ? 0.02 : 0.5;

  std::vector<Kernel> kernels;
  {
    algos::SwScores s;
    if (smoke) {
      kernels.push_back({"editdist 8x8", algos::editdist_spec(8, 8, s),
                         8, 1});
      kernels.push_back({"stencil1d n=8 T=6", algos::stencil1d_spec(8, 6),
                         8, 1});
      kernels.push_back({"matmul 4^3", algos::matmul_spec(4), 4, 4});
    } else {
      kernels.push_back({"editdist 16x16", algos::editdist_spec(16, 16, s),
                         16, 1});
      kernels.push_back({"stencil1d n=16 T=12",
                         algos::stencil1d_spec(16, 12), 16, 1});
      kernels.push_back({"matmul 8^3", algos::matmul_spec(8), 8, 8});
    }
  }

  // ── E22.a: per-candidate inner-loop throughput, legacy vs compiled ──
  Table t({"kernel", "candidates", "legal", "legacy_evals_per_s",
           "compiled_evals_per_s", "speedup"});
  t.title("E22.a — search inner loop (quick gate + verify + cost) "
          "evaluations per second");
  double min_speedup = 0.0;
  bool first_kernel = true;
  bool all_match = true;

  for (Kernel& k : kernels) {
    const fm::MachineConfig cfg = fm::make_machine(k.cols, k.rows);
    const fm::TensorId target = k.spec.computed_tensors()[0];
    const fm::IndexDomain& dom = k.spec.domain(target);
    fm::Mapping proto;
    for (fm::TensorId in : k.spec.input_tensors()) {
      proto.set_input(in,
                      fm::InputHome::distributed(
                          fm::block_distribution(k.spec.domain(in),
                                                 cfg.geom).place));
    }
    const std::shared_ptr<const fm::CompiledSpec> cs =
        fm::compile_spec(k.spec, cfg, proto);
    const double bound = static_cast<double>(dom.size()) * 4.0 + 1.0;
    const std::vector<fm::AffineMap> maps =
        enumerate_candidates(dom, k.cols, k.rows, bound);

    // Quick-gate sample points, as search_affine picks them.
    std::vector<fm::Point> sample_pts;
    std::vector<std::int64_t> sample_lins;
    {
      const std::int64_t n = dom.size();
      const std::int64_t stride = std::max<std::int64_t>(1, n / 64);
      for (std::int64_t lin = 0; lin < n; lin += stride) {
        sample_pts.push_back(dom.delinearize(lin));
        sample_lins.push_back(lin);
      }
      sample_pts.push_back(dom.delinearize(n - 1));
      sample_lins.push_back(n - 1);
    }

    // Legacy inner loop: the pre-compiled search Evaluator verbatim —
    // spec dependence callbacks in the quick gate and the arrival
    // shift, a Mapping object per candidate, callback-driven oracles.
    const auto legacy_pass = [&] {
      Checksum sum;
      for (const fm::AffineMap& cand : maps) {
        fm::AffineMap map = cand;
        bool plausible = true;
        for (const fm::Point& p : sample_pts) {
          const fm::Cycle when = map.time(p);
          for (const fm::ValueRef& d : k.spec.deps(target, p)) {
            if (k.spec.is_input(d.tensor)) continue;
            const noc::Coord here = map.place(p);
            const noc::Coord there = map.place(d.point);
            const fm::Cycle need =
                map.time(d.point) +
                std::max<fm::Cycle>(1, cfg.transit_cycles(there, here));
            if (when < need) {
              plausible = false;
              break;
            }
          }
          if (!plausible) break;
        }
        if (!plausible) {
          ++sum.quick_rejected;
          continue;
        }
        fm::Cycle deficit = 0;
        dom.for_each([&](const fm::Point& p) {
          const fm::Cycle when = map.time(p);
          const noc::Coord here = map.place(p);
          for (const fm::ValueRef& d : k.spec.deps(target, p)) {
            if (!k.spec.is_input(d.tensor)) continue;
            const fm::InputHome& home = proto.input_home(d.tensor);
            const fm::Cycle need =
                home.kind == fm::InputHome::Kind::kDram
                    ? cfg.dram_cycles(here)
                    : cfg.transit_cycles(home.home_of(d.point), here);
            deficit = std::max(deficit, need - when);
          }
        });
        map.t0 += deficit;
        fm::Mapping m;
        m.set_computed(target, map.place_fn(), map.time_fn());
        for (fm::TensorId in : k.spec.input_tensors()) {
          m.set_input(in, proto.input_home(in));
        }
        const fm::LegalityReport lr = fm::reference::verify(k.spec, m, cfg);
        if (!lr.ok) {
          ++sum.verify_rejected;
          continue;
        }
        const fm::CostReport cr = fm::reference::evaluate_cost(k.spec, m, cfg);
        ++sum.legal;
        sum.cycles += cr.makespan_cycles;
        sum.energy_fj += cr.total_energy().femtojoules();
      }
      return sum;
    };

    // Compiled inner loop: the same three gates on the flat tables
    // (what search_affine runs per slot today).
    fm::EvalContext ctx(*cs);
    const std::size_t P = cs->num_pes;
    const auto compiled_pass = [&] {
      Checksum sum;
      for (const fm::AffineMap& cand : maps) {
        fm::AffineMap map = cand;
        bool plausible = true;
        for (std::size_t idx = 0; idx < sample_pts.size(); ++idx) {
          const fm::Point& p = sample_pts[idx];
          const fm::Cycle when = map.time(p);
          const auto lin = static_cast<std::size_t>(sample_lins[idx]);
          for (std::uint64_t o = cs->dep_offsets[lin];
               o < cs->dep_offsets[lin + 1]; ++o) {
            const fm::CompiledDep& d = cs->deps[o];
            if (d.kind != fm::CompiledDep::kComputed) continue;
            const std::size_t here = cs->pe_index(map.place(p));
            const fm::Point dp = d.point();
            const std::size_t there = cs->pe_index(map.place(dp));
            const fm::Cycle need =
                map.time(dp) +
                std::max<fm::Cycle>(1, cs->transit[there * P + here]);
            if (when < need) {
              plausible = false;
              break;
            }
          }
          if (!plausible) break;
        }
        if (!plausible) {
          ++sum.quick_rejected;
          continue;
        }
        if (cs->has_input_deps) {
          fm::Cycle deficit = 0;
          std::int64_t lin = 0;
          cs->segments.front().domain.for_each([&](const fm::Point& p) {
            const auto v = static_cast<std::size_t>(lin++);
            const std::uint64_t dlo = cs->dep_offsets[v];
            const std::uint64_t dhi = cs->dep_offsets[v + 1];
            if (dlo == dhi) return;
            const fm::Cycle when = map.time(p);
            const std::size_t here = cs->pe_index(map.place(p));
            for (std::uint64_t o = dlo; o < dhi; ++o) {
              const fm::CompiledDep& d = cs->deps[o];
              if (d.kind == fm::CompiledDep::kComputed) continue;
              const fm::Cycle need =
                  d.kind == fm::CompiledDep::kInputDram
                      ? cs->dram_cycles[here]
                      : cs->transit[static_cast<std::size_t>(d.home_pe) *
                                        P + here];
              deficit = std::max(deficit, need - when);
            }
          });
          map.t0 += deficit;
        }
        if (!fm::verify_ok(*cs, map, ctx)) {
          ++sum.verify_rejected;
          continue;
        }
        const fm::CostReport cr = fm::evaluate_cost(*cs, map, ctx);
        ++sum.legal;
        sum.cycles += cr.makespan_cycles;
        sum.energy_fj += cr.total_energy().femtojoules();
      }
      return sum;
    };

    std::uint64_t legacy_sweeps = 0, compiled_sweeps = 0;
    double legacy_s = 0.0, compiled_s = 0.0;
    Checksum legacy_sum, compiled_sum;
    run_timed(legacy_pass, min_seconds, legacy_sweeps, legacy_s,
              legacy_sum);
    run_timed(compiled_pass, min_seconds, compiled_sweeps, compiled_s,
              compiled_sum);
    all_match &= legacy_sum == compiled_sum;

    const double n = static_cast<double>(maps.size());
    const double legacy_rate =
        static_cast<double>(legacy_sweeps) * n / legacy_s;
    const double compiled_rate =
        static_cast<double>(compiled_sweeps) * n / compiled_s;
    const double speedup = compiled_rate / legacy_rate;
    if (first_kernel || speedup < min_speedup) min_speedup = speedup;
    first_kernel = false;
    t.add_row({k.name, static_cast<std::int64_t>(maps.size()),
               static_cast<std::int64_t>(legacy_sum.legal), legacy_rate,
               compiled_rate, speedup});
  }

  // ── E22.b: the full search, serial vs lanes over one CompiledSpec ───
  // Workload: the matmul family — its slot space is the full 3^9
  // coefficient cross (19683 candidates, independent of n), so the
  // parallel driver has real work to spread instead of the handful of
  // slots a rank-2 kernel leaves after triple filtering.
  Table sc({"workers", "elapsed_ms", "candidates_per_s",
            "measured_speedup", "modeled_speedup", "identical"});
  const unsigned hw_threads = std::thread::hardware_concurrency();
  double modeled_8w = 0.0;
  double measured_8w = 0.0;
  {
    const int n = smoke ? 4 : 6;
    const fm::FunctionSpec spec = algos::matmul_spec(n);
    const fm::MachineConfig cfg = fm::make_machine(n, n);
    fm::Mapping proto;
    for (fm::TensorId in : spec.input_tensors()) {
      proto.set_input(in, fm::InputHome::distributed(
                              fm::block_distribution(spec.domain(in),
                                                     cfg.geom).place));
    }
    fm::SearchOptions base;
    base.fom = fm::FigureOfMerit::kTime;
    // One compile shared by every run below — what serve's compile
    // cache does for repeated tunes of the same triple.
    base.compiled = fm::compile_spec(spec, cfg, proto);

    const BenchClock::time_point s0 = BenchClock::now();
    const fm::SearchResult serial = search_affine(spec, cfg, proto, base);
    const double serial_ms =
        std::chrono::duration<double, std::milli>(BenchClock::now() - s0)
            .count();
    sc.title("E22.b — pre-compiled search scaling, matmul " +
             std::to_string(n) + "^3 (" +
             std::to_string(serial.enumerated) + " candidates; host has " +
             std::to_string(hw_threads) +
             " hardware threads — measured speedup is bounded by that, "
             "modeled speedup replays the exact grain schedule on ideal "
             "processors)");
    sc.add_row({std::string("serial"), serial_ms,
                static_cast<double>(serial.enumerated) /
                    (serial_ms / 1e3),
                1.0, 1.0, std::string("-")});

    // Modeled speedup: replay fm::search_lanes under the work-span
    // analyzer with the same auto-grain sizing the driver uses and one
    // work unit per slot, then ask Brent's greedy scheduler what w
    // ideal processors do with that exact DAG.  Deterministic — the
    // number depends only on the slot count and the grain schedule, so
    // it is the honest "is the partitioning near-linear?" answer even
    // on a 1-thread container (where measured speedup cannot move).
    const std::uint64_t total_slots = serial.enumerated;
    const auto modeled_speedup = [&](unsigned w) {
      sched::WorkSpanCtx ws;
      const std::uint64_t grain = fm::auto_grain_slots(total_slots, w);
      const std::uint64_t grains = (total_slots + grain - 1) / grain;
      std::vector<fm::SearchTally> tallies(w);
      std::vector<std::uint8_t> processed(grains, 0);
      fm::search_lanes(ws, w, std::uint64_t{0}, total_slots, grain,
                       /*cancel=*/{}, tallies.data(), processed.data(),
                       [&](std::uint64_t lo, std::uint64_t hi,
                           unsigned /*lane*/, fm::SearchTally&) {
                         ws.work(static_cast<double>(hi - lo));
                       });
      const double greedy = ws.greedy_time(w);
      return greedy > 0.0 ? ws.total_work() / greedy : 0.0;
    };

    sched::Scheduler pool(8);
    for (const unsigned w : {2u, 4u, 8u}) {
      fm::SearchOptions opts = base;
      opts.scheduler = &pool;
      opts.num_workers = w;
      const BenchClock::time_point p0 = BenchClock::now();
      const fm::SearchResult par = search_affine(spec, cfg, proto, opts);
      const double par_ms =
          std::chrono::duration<double, std::milli>(BenchClock::now() - p0)
              .count();
      const bool identical =
          par.found == serial.found && par.best.slot == serial.best.slot &&
          par.best.merit == serial.best.merit &&
          par.enumerated == serial.enumerated && par.legal == serial.legal;
      all_match &= identical;
      const double measured = par_ms > 0 ? serial_ms / par_ms : 0.0;
      const double modeled = modeled_speedup(w);
      if (w == 8u) {
        measured_8w = measured;
        modeled_8w = modeled;
      }
      sc.add_row({static_cast<std::int64_t>(par.workers_used), par_ms,
                  static_cast<double>(par.enumerated) / (par_ms / 1e3),
                  measured, modeled,
                  std::string(identical ? "yes" : "NO")});
    }
  }

  // Conservative scaling floor (CI's perf label enforces the exit
  // code): the modeled number is deterministic and must show the grain
  // schedule keeping 8 ideal processors at least 2x busy; the measured
  // number is additionally held to the same floor only when the host
  // actually has 8 hardware threads to run on.
  const bool modeled_ok = modeled_8w >= 2.0;
  const bool measured_ok = hw_threads < 8 || measured_8w >= 2.0;

  if (json) {
    std::ostringstream ja, jb;
    t.print_json(ja);
    sc.print_json(jb);
    std::cout << "{\n\"bench\": \"e22_cost_eval\",\n\"smoke\": "
              << (smoke ? "true" : "false") << ",\n\"paths_agree\": "
              << (all_match ? "true" : "false")
              << ",\n\"min_eval_speedup\": " << min_speedup
              << ",\n\"hardware_threads\": " << hw_threads
              << ",\n\"modeled_speedup_8w\": " << modeled_8w
              << ",\n\"measured_speedup_8w\": " << measured_8w
              << ",\n\"eval_throughput\": " << ja.str()
              << ",\n\"parallel_search\": " << jb.str() << "\n}\n";
  } else {
    t.print(std::cout);
    std::cout << '\n';
    sc.print(std::cout);
    std::cout << "\nShape check: the compiled path re-derives every gate "
                 "decision and every legal candidate's report bit-for-bit "
                 "(paths_agree) while evaluating candidates several times "
                 "faster; lanes sharing one CompiledSpec return the "
                 "serial winner byte-identically, and the grain schedule "
                 "keeps ideal processors busy (modeled_speedup).\n";
  }
  if (!all_match) {
    std::cerr << "ERROR: compiled path diverged from the legacy oracles\n";
    return 1;
  }
  if (!modeled_ok) {
    std::cerr << "ERROR: modeled 8-worker speedup " << modeled_8w
              << " below the 2x scaling floor — the grain schedule is "
                 "starving lanes\n";
    return 1;
  }
  if (!measured_ok) {
    std::cerr << "ERROR: measured 8-worker speedup " << measured_8w
              << " below the 2x floor on a host with " << hw_threads
              << " hardware threads\n";
    return 1;
  }
  return 0;
}
