// Compiled evaluation (fm/compiled.hpp): bit-exact parity of the one
// production evaluator against the reference oracles (tests/reference)
// and the executing GridMachine ledger, multi-tensor specs included, the delivered-set key-packing overflow
// regression, EvalContext reuse, and pre-compiled parallel search parity.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/fft.hpp"
#include "analyze/exec.hpp"
#include "algos/specs.hpp"
#include "fm/compiled.hpp"
#include "fm/idioms.hpp"
#include "fm/search.hpp"
#include "fm/strategy/delta.hpp"
#include "fm/strategy/strategy.hpp"
#include "fm/strategy/table_map.hpp"
#include "reference/reference.hpp"
#include "sched/scheduler.hpp"

namespace harmony::fm {
namespace {

/// Field-for-field CostReport equality — exact, not approximate: the
/// compiled path promises the identical floating-point addition
/// sequence, so EXPECT_EQ on the doubles is the contract.
void expect_cost_identical(const CostReport& a, const CostReport& b) {
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.makespan.picoseconds(), b.makespan.picoseconds());
  EXPECT_EQ(a.compute_energy.femtojoules(), b.compute_energy.femtojoules());
  EXPECT_EQ(a.onchip_movement_energy.femtojoules(),
            b.onchip_movement_energy.femtojoules());
  EXPECT_EQ(a.local_access_energy.femtojoules(),
            b.local_access_energy.femtojoules());
  EXPECT_EQ(a.dram_energy.femtojoules(), b.dram_energy.femtojoules());
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bit_hops, b.bit_hops);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

/// Full LegalityReport equality including diagnostics text and order.
void expect_legality_identical(const LegalityReport& a,
                               const LegalityReport& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.causality_violations, b.causality_violations);
  EXPECT_EQ(a.exclusivity_violations, b.exclusivity_violations);
  EXPECT_EQ(a.storage_violations, b.storage_violations);
  EXPECT_EQ(a.bandwidth_violations, b.bandwidth_violations);
  EXPECT_EQ(a.peak_live_values, b.peak_live_values);
  EXPECT_EQ(a.peak_live_pe, b.peak_live_pe);
  EXPECT_EQ(a.peak_link_bits_per_cycle, b.peak_link_bits_per_cycle);
  EXPECT_EQ(a.peak_link, b.peak_link);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].rule_id, b.diagnostics[i].rule_id)
        << "diag[" << i << "]";
    EXPECT_EQ(a.diagnostics[i].message, b.diagnostics[i].message)
        << "diag[" << i << "]";
    EXPECT_EQ(a.diagnostics[i].location.op, b.diagnostics[i].location.op)
        << "diag[" << i << "]";
    EXPECT_EQ(a.diagnostics[i].location.pe, b.diagnostics[i].location.pe)
        << "diag[" << i << "]";
    EXPECT_EQ(a.diagnostics[i].location.cycle,
              b.diagnostics[i].location.cycle)
        << "diag[" << i << "]";
  }
}

/// The full Mapping a (compiled-spec, AffineMap) pair describes, for
/// feeding the reference oracles and the grid machine.
Mapping materialize(const FunctionSpec& spec, TensorId target,
                    const AffineMap& map, const Mapping& input_proto) {
  Mapping m;
  m.set_computed(target, map.place_fn(), map.time_fn());
  for (TensorId t : spec.input_tensors()) {
    m.set_input(t, input_proto.input_home(t));
  }
  return m;
}

/// A multi-input spec whose single schedule exercises all four input
/// dependence branches of the cost model at once:
///   - a is DRAM-homed; its values are re-read from different PEs and
///     re-read again from the same PE (DRAM access + repeat-use SRAM hit)
///   - b lives on PE (1,0); it is read from its home PE (local home),
///     from other PEs (remote home transfer), and repeatedly (SRAM hit)
///   - y(i) reads y(i-1) (cross-PE computed transfer) and y(i-4)
///     (same-PE computed local access under the x = i mod 4 placement).
struct FourBranch {
  FunctionSpec spec;
  TensorId a = -1, b = -1, y = -1;
};

FourBranch four_branch_spec() {
  FourBranch f;
  f.a = f.spec.add_input("a", IndexDomain(2));
  f.b = f.spec.add_input("b", IndexDomain(1));
  auto self = std::make_shared<TensorId>(-1);
  f.y = f.spec.add_computed(
      "y", IndexDomain(8),
      [a = f.a, b = f.b, self](const Point& p) {
        std::vector<ValueRef> d;
        d.push_back({a, Point{p.i % 2, 0, 0}});
        d.push_back({b, Point{0, 0, 0}});
        if (p.i >= 1) d.push_back({*self, Point{p.i - 1, 0, 0}});
        if (p.i >= 4) d.push_back({*self, Point{p.i - 4, 0, 0}});
        return d;
      },
      [](const Point&, const std::vector<double>& v) {
        double s = 0.0;
        for (const double x : v) s += x;
        return s;
      });
  *self = f.y;
  f.spec.mark_output(f.y);
  return f;
}

/// Input homes for the four-branch spec: a from DRAM, b on PE (1,0).
Mapping four_branch_proto(const FourBranch& f) {
  Mapping proto;
  proto.set_input(f.a, InputHome::dram());
  proto.set_input(f.b, InputHome::at({1, 0}));
  return proto;
}

/// A legal schedule for the four-branch spec on `cfg`: PE x = i mod 4,
/// time strides generously past every transit/DRAM latency.
AffineMap four_branch_map(const MachineConfig& cfg) {
  Cycle worst = 1;
  for (int x0 = 0; x0 < cfg.geom.cols(); ++x0) {
    const noc::Coord c{x0, 0};
    worst = std::max(worst, cfg.dram_cycles(c));
    for (int x1 = 0; x1 < cfg.geom.cols(); ++x1) {
      worst = std::max(worst, cfg.transit_cycles({x1, 0}, c));
    }
  }
  return AffineMap{.ti = worst + 1, .t0 = worst + 1, .xi = 1,
                   .cols = cfg.geom.cols(), .rows = cfg.geom.rows()};
}

TEST(CompiledCost, FourBranchSpecMatchesLegacyAndMachineLedger) {
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = four_branch_proto(f);
  const AffineMap amap = four_branch_map(cfg);
  const Mapping mapping = materialize(f.spec, f.y, amap, proto);

  // Sanity: the schedule is legal, and every branch is actually hit.
  const LegalityReport legal = reference::verify(f.spec, mapping, cfg);
  ASSERT_TRUE(legal.ok) << legal.first_message();

  const CostReport legacy = reference::evaluate_cost(f.spec, mapping, cfg);
  EXPECT_GT(legacy.dram_energy.femtojoules(), 0.0);       // a via DRAM
  EXPECT_GT(legacy.local_access_energy.femtojoules(), 0.0);  // SRAM hits
  EXPECT_GT(legacy.onchip_movement_energy.femtojoules(), 0.0);  // transfers
  EXPECT_GT(legacy.messages, 0u);

  const auto cs = compile_spec(f.spec, cfg, proto);
  EvalContext ctx(*cs);
  const CostReport compiled = evaluate_cost(*cs, amap, ctx);
  expect_cost_identical(compiled, legacy);

  const LegalityReport compiled_legal = verify(*cs, amap, ctx);
  expect_legality_identical(compiled_legal, legal);

  // The executing machine's ledger agrees field for field: the slots
  // run in ascending time order, which under this schedule is domain
  // order, so even the floating-point sums match exactly.
  const std::vector<double> a_data{3.0, 5.0};
  const std::vector<double> b_data{7.0};
  const auto res = GridMachine(cfg).run(f.spec, mapping, {a_data, b_data});
  EXPECT_EQ(res.makespan_cycles, legacy.makespan_cycles);
  EXPECT_EQ(res.compute_energy.femtojoules(),
            legacy.compute_energy.femtojoules());
  EXPECT_EQ(res.local_access_energy.femtojoules(),
            legacy.local_access_energy.femtojoules());
  EXPECT_EQ(res.dram_energy.femtojoules(), legacy.dram_energy.femtojoules());
  EXPECT_EQ(res.onchip_movement_energy.femtojoules(),
            legacy.onchip_movement_energy.femtojoules());
  EXPECT_EQ(res.messages, legacy.messages);
  EXPECT_EQ(res.bit_hops, legacy.bit_hops);
  EXPECT_EQ(res.outputs[0],
            f.spec.evaluate_reference({a_data, b_data})[0]);
}

TEST(CompiledCost, DeliveredKeyPackingOverflowRegression) {
  // A packed `value_index * num_pes + pe` key wraps uint64 once
  // value_index reaches 2^62 on a 4-PE machine: big(1) at PE 0 packed to
  // 4, and big(2^62 + 1) at PE 0 packed to (2^64 + 4) mod 2^64 = 4.  The
  // old tracking then mistook the second DRAM read for a repeat use of
  // the first value.  Pair-exact tracking must charge DRAM twice.
  const std::int64_t kBig = (std::int64_t{1} << 62) + 2;
  FunctionSpec spec;
  const TensorId big = spec.add_input("big", IndexDomain(kBig));
  spec.add_computed(
      "y", IndexDomain(2),
      [big](const Point& p) {
        std::vector<ValueRef> d;
        d.push_back({big, Point{p.i == 0 ? std::int64_t{1}
                                         : (std::int64_t{1} << 62) + 1,
                                0, 0}});
        return d;
      },
      [](const Point&, const std::vector<double>& v) { return v[0]; });

  const MachineConfig cfg = make_machine(2, 2);
  ASSERT_EQ(cfg.geom.num_nodes(), 4u);
  Mapping proto;
  proto.set_input(big, InputHome::dram());
  const AffineMap amap{.ti = 1, .cols = 2, .rows = 2};  // both at PE 0
  const Mapping mapping = materialize(spec, /*target=*/1, amap, proto);

  const CostReport legacy = reference::evaluate_cost(spec, mapping, cfg);
  const Energy one_access = cfg.geom.dram_access_energy(32, {0, 0});
  EXPECT_EQ(legacy.dram_energy.femtojoules(),
            (one_access + one_access).femtojoules());
  EXPECT_EQ(legacy.local_access_energy.femtojoules(), 0.0);

  const auto cs = compile_spec(spec, cfg, proto);
  EvalContext ctx(*cs);
  expect_cost_identical(evaluate_cost(*cs, amap, ctx), legacy);
}

TEST(CompiledVerify, ViolatingSchedulesReportIdenticallyToLegacy) {
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = four_branch_proto(f);
  const auto cs = compile_spec(f.spec, cfg, proto);
  EvalContext ctx(*cs);

  // Everything on PE 0 at cycle 0: exclusivity pile-up plus causality
  // violations (inputs can't arrive by cycle 0, computed deps need a
  // cycle of transit).
  const AffineMap collide{.cols = 4, .rows = 1};
  // Time marches backwards: the negative-cycle early-return path.
  const AffineMap negative{.ti = -1, .xi = 1, .cols = 4, .rows = 1};

  for (const AffineMap& amap : {collide, negative}) {
    const Mapping mapping = materialize(f.spec, f.y, amap, proto);
    const LegalityReport legacy = reference::verify(f.spec, mapping, cfg);
    EXPECT_FALSE(legacy.ok);
    expect_legality_identical(verify(*cs, amap, ctx), legacy);
  }
}

TEST(CompiledCost, EvalContextReuseAcrossCandidatesIsClean) {
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = four_branch_proto(f);
  const auto cs = compile_spec(f.spec, cfg, proto);
  const AffineMap good = four_branch_map(cfg);
  AffineMap other = good;
  other.xi = 2;  // different placement -> different delivered pattern

  // One context reused across candidates (the search's usage pattern):
  // evaluating `other` in between must not leak delivered state into the
  // re-evaluation of `good`.
  EvalContext ctx(*cs);
  const CostReport first = evaluate_cost(*cs, good, ctx);
  (void)evaluate_cost(*cs, other, ctx);
  (void)verify(*cs, other, ctx);
  expect_cost_identical(evaluate_cost(*cs, good, ctx), first);
  expect_legality_identical(verify(*cs, good, ctx),
                            reference::verify(f.spec, materialize(f.spec, f.y, good,
                                                       proto), cfg));
}

TEST(CompiledLegality, VerifyOkAgreesWithFullVerifyAcrossTheFamily) {
  // The report-free short-circuit gate the search runs must agree with
  // the full verifier's ok bit on every candidate — legal, causality-
  // violating, colliding, negative-time, over-capacity and over-
  // bandwidth alike.  Sweep the whole affine coefficient family the
  // search enumerates on a roomy machine and on a starved one (tight
  // per-PE storage, narrow links), under every combination of the
  // optional checks, through both the AffineMap and the TableMap
  // overloads.  verify_ok only reaches a later check's early exit when
  // every earlier check passed, so the sweep must also produce
  // candidates whose *only* violation is storage or bandwidth.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(6, 6, s);
  const MachineConfig roomy = make_machine(6, 1);
  MachineConfig starved = roomy;
  starved.pe_capacity_values = 5;
  starved.link_bits_per_cycle = 4.0;
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               roomy.geom).place));
  }
  const TensorId target = spec.computed_tensors()[0];
  VerifyOptions no_storage;
  no_storage.check_storage = false;
  VerifyOptions no_bandwidth;
  no_bandwidth.check_bandwidth = false;

  int checked = 0, legal = 0, negative = 0;
  int causality = 0, exclusivity = 0, storage = 0, bandwidth = 0;
  int storage_only = 0, bandwidth_only = 0;
  for (const MachineConfig& cfg : {roomy, starved}) {
    const auto cs = compile_spec(spec, cfg, proto);
    EvalContext ctx(*cs);
    for (const VerifyOptions& opts :
         {VerifyOptions{}, no_storage, no_bandwidth}) {
      for (std::int64_t ti : {-1, 0, 1, 2}) {
        for (std::int64_t tj : {0, 1, 2}) {
          for (std::int64_t xi : {-1, 0, 1}) {
            for (std::int64_t xj : {-1, 0, 1}) {
              for (std::int64_t t0 : {0, 12}) {
                const AffineMap map{.ti = ti, .tj = tj, .t0 = t0, .xi = xi,
                                    .xj = xj, .cols = 6, .rows = 1};
                const std::string where =
                    "cap=" + std::to_string(cfg.pe_capacity_values) +
                    " storage=" + std::to_string(opts.check_storage) +
                    " bandwidth=" + std::to_string(opts.check_bandwidth) +
                    " ti=" + std::to_string(ti) + " tj=" +
                    std::to_string(tj) + " xi=" + std::to_string(xi) +
                    " xj=" + std::to_string(xj) + " t0=" +
                    std::to_string(t0);
                const LegalityReport full = reference::verify(
                    spec, materialize(spec, target, map, proto), cfg, opts);
                const TableMap tm = table_from_affine(*cs, map);
                EXPECT_EQ(verify_ok(*cs, map, ctx, opts), full.ok) << where;
                EXPECT_EQ(verify_ok(*cs, tm, ctx, opts), full.ok) << where;
                expect_legality_identical(verify(*cs, map, ctx, opts), full);
                expect_legality_identical(verify(*cs, tm, ctx, opts), full);

                ++checked;
                legal += full.ok ? 1 : 0;
                // tj >= 0 and ti >= -1: the earliest element is (5, 0).
                negative += map.time(Point{5, 0}) < 0 ? 1 : 0;
                causality += full.causality_violations > 0 ? 1 : 0;
                exclusivity += full.exclusivity_violations > 0 ? 1 : 0;
                storage += full.storage_violations > 0 ? 1 : 0;
                bandwidth += full.bandwidth_violations > 0 ? 1 : 0;
                const std::uint64_t total = full.total_violations();
                storage_only += total > 0 && total == full.storage_violations;
                bandwidth_only +=
                    total > 0 && total == full.bandwidth_violations;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 2 * 3 * 216);
  EXPECT_GT(legal, 0);  // the sweep must exercise the accepting path too
  EXPECT_GT(negative, 0);
  EXPECT_GT(causality, 0);
  EXPECT_GT(exclusivity, 0);
  EXPECT_GT(storage, 0);
  EXPECT_GT(bandwidth, 0);
  EXPECT_GT(storage_only, 0);
  EXPECT_GT(bandwidth_only, 0);
}

TEST(CompiledSearch, WinnersMatchLegacyOraclesExactly) {
  // Search-driven parity: every candidate the compiled inner loop ranks
  // must carry the exact CostReport the reference oracle computes for the
  // materialized mapping — and the reference verifier must agree it's legal.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(8, 8, s);
  const MachineConfig cfg = make_machine(8, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  SearchOptions opts;
  opts.keep_all_legal = true;
  const SearchResult r = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(r.found);
  ASSERT_FALSE(r.all_legal.empty());
  const TensorId target = spec.computed_tensors()[0];
  for (const Candidate& c : r.all_legal) {
    const Mapping m = materialize(spec, target, c.map, proto);
    EXPECT_TRUE(reference::verify(spec, m, cfg).ok) << "slot " << c.slot;
    expect_cost_identical(c.cost, reference::evaluate_cost(spec, m, cfg));
  }
}

TEST(CompiledSearch, PrecompiledSharedAcrossParallelLanesMatchesSerial) {
  // One CompiledSpec shared read-only by every lane (the serving layer's
  // usage): the parallel top-k must stay byte-identical to serial.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(8, 8, s);
  const MachineConfig cfg = make_machine(8, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  SearchOptions opts;
  opts.keep_all_legal = true;
  opts.compiled = compile_spec(spec, cfg, proto);

  const SearchResult serial = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(serial.found);

  sched::Scheduler pool(4);
  SearchOptions par = opts;
  par.scheduler = &pool;
  const SearchResult parallel = search_affine(spec, cfg, proto, par);

  EXPECT_EQ(parallel.found, serial.found);
  EXPECT_EQ(parallel.enumerated, serial.enumerated);
  EXPECT_EQ(parallel.quick_rejected, serial.quick_rejected);
  EXPECT_EQ(parallel.verify_rejected, serial.verify_rejected);
  EXPECT_EQ(parallel.legal, serial.legal);
  ASSERT_EQ(parallel.top.size(), serial.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(parallel.top[i].slot, serial.top[i].slot) << "top[" << i << "]";
    EXPECT_EQ(parallel.top[i].merit, serial.top[i].merit)
        << "top[" << i << "]";
    expect_cost_identical(parallel.top[i].cost, serial.top[i].cost);
  }
  ASSERT_EQ(parallel.all_legal.size(), serial.all_legal.size());
  for (std::size_t i = 0; i < serial.all_legal.size(); ++i) {
    EXPECT_EQ(parallel.all_legal[i].slot, serial.all_legal[i].slot);
    EXPECT_EQ(parallel.all_legal[i].merit, serial.all_legal[i].merit);
  }
}

void expect_recompute_identical(const RecomputeReport& a,
                                const RecomputeReport& b) {
  EXPECT_EQ(a.remote_edges, b.remote_edges);
  EXPECT_EQ(a.feasible_edges, b.feasible_edges);
  EXPECT_EQ(a.profitable_edges, b.profitable_edges);
  EXPECT_EQ(a.move_energy.femtojoules(), b.move_energy.femtojoules());
  EXPECT_EQ(a.best_energy.femtojoules(), b.best_energy.femtojoules());
}

/// Every front door (compile_spec + table_from_mapping + the compiled
/// body) against the reference oracle, under the default checks, a
/// diagnostic cap of one and with storage/bandwidth off.
void expect_front_doors_match_reference(const FunctionSpec& spec,
                                        const Mapping& m,
                                        const MachineConfig& cfg) {
  expect_cost_identical(evaluate_cost(spec, m, cfg),
                        reference::evaluate_cost(spec, m, cfg));
  VerifyOptions capped;
  capped.max_messages = 1;
  VerifyOptions unchecked;
  unchecked.check_storage = false;
  unchecked.check_bandwidth = false;
  for (const VerifyOptions& opts : {VerifyOptions{}, capped, unchecked}) {
    expect_legality_identical(verify(spec, m, cfg, opts),
                              reference::verify(spec, m, cfg, opts));
  }
  expect_recompute_identical(recompute_report(spec, m, cfg),
                             reference::recompute_report(spec, m, cfg));
}

/// s = 2a feeds b (the FM104 fixture): two computed tensors, one of them
/// depth-1 recomputable, with 16-bit b so the segments price with two
/// energy tables.
struct TwoTensor {
  FunctionSpec spec;
  TensorId a = -1, s = -1, b = -1;
};

TwoTensor two_tensor_spec(std::int64_t n) {
  TwoTensor f;
  f.a = f.spec.add_input("a", IndexDomain(n), 32);
  f.s = f.spec.add_computed(
      "s", IndexDomain(n),
      [a = f.a](const Point& p) { return std::vector<ValueRef>{{a, p}}; },
      [](const Point&, const std::vector<double>& v) { return 2.0 * v[0]; },
      OpCost{.ops = 1.0, .bits = 32});
  f.b = f.spec.add_computed(
      "b", IndexDomain(n),
      [s = f.s](const Point& p) { return std::vector<ValueRef>{{s, p}}; },
      [](const Point&, const std::vector<double>& v) { return v[0] + 1.0; },
      OpCost{.ops = 2.0, .bits = 16});
  f.spec.mark_output(f.b);
  return f;
}

TEST(CompiledMultiTensor, FrontDoorsMatchReferenceOnEveryField) {
  int cases = 0, legal = 0, illegal = 0;
  const auto run = [&](const FunctionSpec& spec, const Mapping& m,
                       const MachineConfig& cfg) {
    SCOPED_TRACE("case " + std::to_string(cases));
    ASSERT_GT(compile_spec(spec, cfg, m)->segments.size(), 1u);
    expect_front_doors_match_reference(spec, m, cfg);
    (reference::verify(spec, m, cfg).ok ? legal : illegal) += 1;
    ++cases;
  };

  // FFT: Xr and Xi over (log2 n + 1, n), element j on PE (j mod g,
  // j / g) of a g x g grid, one stage per time block — legal with
  // inputs on chip or in DRAM; with a one-cycle block it collides and
  // reads late; on a starved machine it overflows storage and links.
  const std::int64_t n = 16;
  const int g = 4;
  const FunctionSpec fft = algos::fft_spec(n, /*dif=*/false);
  for (const Cycle block : {Cycle{24}, Cycle{1}}) {
    for (const bool dram : {false, true}) {
      Mapping m;
      for (const TensorId t : fft.computed_tensors()) {
        m.set_computed(
            t,
            [g](const Point& p) {
              return noc::Coord{static_cast<int>(p.j % g),
                                static_cast<int>(p.j / g)};
            },
            [block, t](const Point& p) {
              return block + p.i * block + (t % 2 == 0 ? 0 : 1);
            });
      }
      for (const TensorId t : fft.input_tensors()) {
        m.set_input(t, dram ? InputHome::dram() : InputHome::at({1, 2}));
      }
      MachineConfig cfg = make_machine(g, g);
      run(fft, m, cfg);
      cfg.pe_capacity_values = 3;
      cfg.link_bits_per_cycle = 2.0;
      run(fft, m, cfg);
    }
  }

  // Weight-stationary conv: three computed tensors (wload, xflow, y).
  const algos::ConvWsBuild conv = algos::conv1d_weight_stationary(8, 3);
  MachineConfig conv_cfg = make_machine(3, 1);
  run(conv.spec, conv.mapping, conv_cfg);
  conv_cfg.pe_capacity_values = 4;
  conv_cfg.link_bits_per_cycle = 8.0;
  run(conv.spec, conv.mapping, conv_cfg);
  Mapping squashed = conv.mapping;  // everything at cycle 0
  for (const TensorId t : conv.spec.computed_tensors()) {
    squashed.set_computed(
        t, [&conv, t](const Point& p) { return conv.mapping.place(t, p); },
        [](const Point&) { return Cycle{0}; });
  }
  run(conv.spec, squashed, make_machine(3, 1));

  // The FM104 fixture: legal (recompute profitable) and too early.
  const TwoTensor tt = two_tensor_spec(16);
  for (const Cycle b_start : {Cycle{64}, Cycle{0}}) {
    Mapping m;
    m.set_computed(tt.s, [](const Point&) { return noc::Coord{0, 0}; },
                   [](const Point& p) { return Cycle{p.i + 16}; });
    m.set_computed(
        tt.b,
        [](const Point& p) { return noc::Coord{static_cast<int>(p.i), 0}; },
        [b_start](const Point& p) { return Cycle{p.i + b_start}; });
    m.set_input(tt.a, InputHome::distributed([](const Point& p) {
                  return noc::Coord{static_cast<int>(p.i), 0};
                }));
    run(tt.spec, m, make_machine(16, 1));
  }
  EXPECT_EQ(cases, 13);
  EXPECT_GT(legal, 0);
  EXPECT_GT(illegal, 0);
}

TEST(CompiledMultiTensor, SingleTensorConsumersRefuseMultiSegmentSpecs) {
  const FunctionSpec fft = algos::fft_spec(8, /*dif=*/false);
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping serial = serial_mapping(fft);
  const auto cs = compile_spec(fft, cfg, serial);
  ASSERT_EQ(cs->segments.size(), 2u);
  EXPECT_EQ(cs->num_points,
            2 * fft.domain(fft.computed_tensors()[0]).size());
  EvalContext ctx(*cs);
  const AffineMap map{.ti = 1, .cols = 4, .rows = 1};
  EXPECT_THROW((void)evaluate_cost(*cs, map, ctx), InvalidArgument);
  EXPECT_THROW((void)verify(*cs, map, ctx), InvalidArgument);
  EXPECT_THROW((void)verify_ok(*cs, map, ctx), InvalidArgument);
  EXPECT_THROW((void)table_from_affine(*cs, map), InvalidArgument);
  EXPECT_THROW((void)search_affine(fft, cfg, serial), InvalidArgument);
  EXPECT_THROW((void)build_strategy_spec(cs), InvalidArgument);
  EXPECT_THROW((void)search_table(fft, cfg, serial, StrategyKind::kAnneal),
               InvalidArgument);
  const TableMap tm = table_from_mapping(*cs, serial);
  EXPECT_THROW((void)analyze::build_exec_witness(*cs, tm), InvalidArgument);
  // The TableMap oracles span every segment.
  expect_legality_identical(verify(*cs, tm, ctx),
                            reference::verify(fft, serial, cfg));
  expect_cost_identical(evaluate_cost(*cs, tm, ctx),
                        reference::evaluate_cost(fft, serial, cfg));
}

TEST(CompiledAffine, MapGridMustFitTheMachine) {
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(4, 4, s);
  const MachineConfig cfg = make_machine(4, 2);
  const auto cs = compile_spec(spec, cfg, serial_mapping(spec));
  EvalContext ctx(*cs);
  const AffineMap wide{.ti = 1, .tj = 4, .xi = 1, .cols = 5, .rows = 1};
  const AffineMap tall{.ti = 1, .tj = 4, .yi = 1, .cols = 1, .rows = 3};
  const AffineMap empty{.ti = 1, .cols = 0, .rows = 1};
  for (const AffineMap& m : {wide, tall, empty}) {
    EXPECT_THROW((void)evaluate_cost(*cs, m, ctx), InvalidArgument);
    EXPECT_THROW((void)verify(*cs, m, ctx), InvalidArgument);
    EXPECT_THROW((void)verify_ok(*cs, m, ctx), InvalidArgument);
  }
  // A sub-grid map is the mapping it denotes on the full machine.
  const AffineMap sub{.ti = 1, .tj = 4, .t0 = 8, .xi = 1, .cols = 3,
                      .rows = 1};
  Mapping full = serial_mapping(spec);
  full.set_computed(spec.computed_tensors()[0], sub.place_fn(),
                    sub.time_fn());
  expect_cost_identical(evaluate_cost(*cs, sub, ctx),
                        reference::evaluate_cost(spec, full, cfg));
  expect_legality_identical(verify(*cs, sub, ctx),
                            reference::verify(spec, full, cfg));
}

TEST(CompiledLegality, OneColumnGridsChargeVerticalHopsToVerticalLinks) {
  // y(0) and y(2) read y(1).  On a 1x3 grid their N/S hops used to
  // decode as "east" ((x + 1) % 1 == x), piling both onto one link:
  // a false FM004 at 5.8 bits/cycle.  The transposed 3x1 mapping is the
  // same traffic on E/W links.
  FunctionSpec spec;
  auto self = std::make_shared<TensorId>(-1);
  const TensorId y = spec.add_computed(
      "y", IndexDomain(3),
      [self](const Point& p) {
        return p.i == 1 ? std::vector<ValueRef>{}
                        : std::vector<ValueRef>{{*self, Point{1, 0, 0}}};
      },
      [](const Point&, const std::vector<double>&) { return 1.0; });
  *self = y;
  spec.mark_output(y);
  const auto rate_on = [&](int cols, int rows) {
    MachineConfig cfg = make_machine(cols, rows);
    cfg.link_bits_per_cycle = 4.0;
    Mapping m;
    m.set_computed(
        y,
        [cols](const Point& p) {
          const int q = static_cast<int>(p.i);
          return cols == 1 ? noc::Coord{0, q} : noc::Coord{q, 0};
        },
        [](const Point& p) { return p.i == 1 ? Cycle{0} : Cycle{10}; });
    const LegalityReport rep = verify(spec, m, cfg);
    expect_legality_identical(rep, reference::verify(spec, m, cfg));
    EXPECT_TRUE(rep.ok) << cols << "x" << rows << ": " << rep.first_message();
    return rep.peak_link_bits_per_cycle;
  };
  EXPECT_EQ(rate_on(1, 3), rate_on(3, 1));
}

TEST(CompiledLegality, RouteLegsReproduceTheGeometryRouteWalk) {
  // The compiled bandwidth check and DeltaEval charge routes from the
  // per-axis legs; on every pair of thin meshes and tori they must be
  // exactly the links the geometry's route walk yields, in order.
  FunctionSpec spec;
  const TensorId a = spec.add_input("a", IndexDomain(1));
  spec.add_computed(
      "y", IndexDomain(1),
      [a](const Point&) { return std::vector<ValueRef>{{a, Point{}}}; },
      [](const Point&, const std::vector<double>& v) { return v[0]; });
  Mapping proto;
  proto.set_input(a, InputHome::dram());
  for (const noc::Topology topo :
       {noc::Topology::kMesh, noc::Topology::kTorus}) {
    for (const auto& [cols, rows] :
         {std::pair{1, 4}, std::pair{2, 5}, std::pair{5, 1}, std::pair{4, 2},
          std::pair{3, 3}, std::pair{5, 4}}) {
      MachineConfig cfg = make_machine(cols, rows);
      cfg.geom = noc::GridGeometry(cols, rows, cfg.geom.pitch(),
                                   cfg.geom.tech(), topo);
      const auto cs = compile_spec(spec, cfg, proto);
      for (std::size_t s = 0; s < cs->num_pes; ++s) {
        for (std::size_t d = 0; d < cs->num_pes; ++d) {
          std::vector<std::size_t> legs, walk;
          cs->for_each_route_link(s, d,
                                  [&](std::size_t l) { legs.push_back(l); });
          cfg.geom.for_each_route_link(
              cfg.geom.coord(s), cfg.geom.coord(d),
              [&](std::size_t l) { walk.push_back(l); });
          ASSERT_EQ(legs, walk) << cols << "x" << rows << " " << s << "->"
                                << d;
        }
      }
    }
  }
}

}  // namespace
}  // namespace harmony::fm
