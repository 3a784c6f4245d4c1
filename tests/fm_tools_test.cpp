// Tests for the default mapper, remapping idioms, mapping search, and
// hardware lowering (src/fm: default_mapper, idioms, search, lower).
#include <gtest/gtest.h>

#include <sstream>

#include "algos/editdist.hpp"
#include "algos/specs.hpp"
#include "fm/cost.hpp"
#include "fm/default_mapper.hpp"
#include "fm/idioms.hpp"
#include "fm/legality.hpp"
#include "fm/lower.hpp"
#include "fm/recompute.hpp"
#include "fm/search.hpp"

namespace harmony::fm {
namespace {

TEST(DefaultMapper, ProducesLegalMappingForEditDistance) {
  TensorId rt;
  TensorId qt;
  TensorId ht;
  algos::SwScores s;
  const auto spec = algos::editdist_spec(10, 9, s, &rt, &qt, &ht);
  const MachineConfig cfg = make_machine(4, 2);
  const Mapping m = default_mapping(spec, cfg);
  const LegalityReport rep = verify(spec, m, cfg);
  EXPECT_TRUE(rep.ok) << rep.first_message();
}

TEST(DefaultMapper, ExecutesToCorrectValues) {
  const std::string r = "TTGACCA";
  const std::string q = "TGCAAT";
  algos::SwScores s;
  const auto spec = algos::editdist_spec(
      static_cast<std::int64_t>(r.size()),
      static_cast<std::int64_t>(q.size()), s);
  const MachineConfig cfg = make_machine(3, 2);
  const Mapping m = default_mapping(spec, cfg);
  const auto res = GridMachine(cfg).run(
      spec, m, {algos::encode_string(r), algos::encode_string(q)});
  EXPECT_EQ(res.outputs[0], algos::smith_waterman_serial(r, q, s));
}

TEST(DefaultMapper, NoWorseThanSerialOnTime) {
  // The paper's "default mapper — with results no worse than with
  // today's abstractions" claim at unit-test scale.
  algos::SwScores s;
  const auto spec = algos::editdist_spec(12, 12, s);
  const MachineConfig cfg = make_machine(4, 1);
  const CostReport def =
      evaluate_cost(spec, default_mapping(spec, cfg), cfg);
  const CostReport ser = evaluate_cost(spec, serial_mapping(spec), cfg);
  EXPECT_LE(def.makespan_cycles, ser.makespan_cycles);
}

TEST(DefaultMapper, DramInputsAccounted) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(2, 1);
  const Mapping m = default_mapping(spec, cfg, /*inputs_from_dram=*/true);
  const CostReport cost = evaluate_cost(spec, m, cfg);
  EXPECT_GT(cost.dram_energy.femtojoules(), 0.0);
}

// --- idioms ------------------------------------------------------------

TEST(Idioms, RemapIdentityIsFree) {
  const MachineConfig cfg = make_machine(4, 4);
  const IndexDomain dom(32);
  const auto d = block_distribution(dom, cfg.geom);
  const RemapCost c = remap_cost(dom, 32, d, d, cfg);
  EXPECT_EQ(c.messages, 0u);
  EXPECT_DOUBLE_EQ(c.energy.femtojoules(), 0.0);
}

TEST(Idioms, BlockToCyclicMovesMostElements) {
  const MachineConfig cfg = make_machine(4, 1);
  const IndexDomain dom(64);
  const RemapCost c =
      remap_cost(dom, 32, block_distribution(dom, cfg.geom),
                 cyclic_distribution(dom, cfg.geom), cfg);
  EXPECT_GT(c.moved_values, 32u);
  EXPECT_GT(c.energy.femtojoules(), 0.0);
}

TEST(Idioms, GatherScatterAreSymmetricInVolume) {
  const MachineConfig cfg = make_machine(4, 4);
  const IndexDomain dom(64);
  const auto d = block_distribution(dom, cfg.geom);
  const RemapCost g = gather_cost(dom, 32, d, {0, 0}, cfg);
  const RemapCost s = scatter_cost(dom, 32, {0, 0}, d, cfg);
  EXPECT_EQ(g.bit_hops, s.bit_hops);
  EXPECT_DOUBLE_EQ(g.energy.femtojoules(), s.energy.femtojoules());
}

TEST(Idioms, BroadcastTreeCoversAllPes) {
  const MachineConfig cfg = make_machine(4, 4);
  const RemapCost b = broadcast_cost(32, {0, 0}, cfg);
  EXPECT_EQ(b.moved_values, 15u);  // 16 PEs minus the root
  EXPECT_EQ(b.messages, 15u);
  const RemapCost r = reduce_tree_cost(32, {0, 0}, cfg);
  EXPECT_EQ(r.messages, b.messages);
}

TEST(Idioms, SimulatedRemapAtLeastAnalyticLatency) {
  const MachineConfig cfg = make_machine(4, 4);
  const IndexDomain dom(128);
  const auto from = block_distribution(dom, cfg.geom);
  const auto to = cyclic_distribution(dom, cfg.geom);
  const RemapCost analytic = remap_cost(dom, 32, from, to, cfg);
  noc::MeshNetwork net(cfg.geom);
  const Time simulated = remap_simulate(dom, 32, from, to, net);
  EXPECT_GE(simulated.picoseconds(),
            analytic.latency.picoseconds() - 1e-9);
}

TEST(Idioms, TransposedDistribution) {
  const MachineConfig cfg = make_machine(2, 2);
  const IndexDomain dom(4, 4);
  const auto tile = tile2d_distribution(dom, cfg.geom);
  const auto t = transposed(tile);
  EXPECT_EQ(t.place(Point{1, 3}), tile.place(Point{3, 1}));
}

// --- search ------------------------------------------------------------

TEST(Search, FindsLegalMappingForSmallEditDistance) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(12, 12, s);
  const MachineConfig cfg = make_machine(12, 1);
  Mapping proto;
  proto.set_input(0, InputHome::at({0, 0}));
  proto.set_input(1, InputHome::at({0, 0}));

  SearchOptions opts;
  opts.space.time_coeffs = {0, 1, 2};
  opts.space.space_coeffs = {-1, 0, 1};
  opts.fom = FigureOfMerit::kTime;
  const SearchResult res = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(res.found);
  EXPECT_GT(res.legal, 0u);
  EXPECT_GT(res.quick_rejected + res.verify_rejected, 0u);

  // Whatever won must verify and beat the serial schedule.
  Mapping best;
  best.set_computed(2, res.best.map.place_fn(), res.best.map.time_fn());
  best.set_input(0, InputHome::at({0, 0}));
  best.set_input(1, InputHome::at({0, 0}));
  EXPECT_TRUE(verify(spec, best, cfg).ok);
  const CostReport serial = evaluate_cost(spec, serial_mapping(spec), cfg);
  EXPECT_LT(res.best.cost.makespan_cycles, serial.makespan_cycles);
}

TEST(Search, WavefrontEmergesAsTimeOptimalShape) {
  // On a wide-enough array, the time-optimal affine schedule for the DP
  // recurrence is the anti-diagonal wavefront t = i + j (+const).
  algos::SwScores s;
  const std::int64_t n = 10;
  const auto spec = algos::editdist_spec(n, n, s);
  const MachineConfig cfg = make_machine(static_cast<int>(n), 1);
  Mapping proto;
  proto.set_input(0, InputHome::at({0, 0}));
  proto.set_input(1, InputHome::at({0, 0}));
  SearchOptions opts;
  opts.space.time_coeffs = {0, 1, 2, 3};
  opts.space.space_coeffs = {-1, 0, 1};
  opts.fom = FigureOfMerit::kTime;
  const SearchResult res = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.best.map.ti, 1);
  EXPECT_EQ(res.best.map.tj, 1);
  // Wavefront makespan is 2n-1 (+ input offset), far below serial n^2.
  EXPECT_LE(res.best.cost.makespan_cycles, 3 * n);
}

TEST(Search, TopKIsSortedByMerit) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(8, 8, s);
  const MachineConfig cfg = make_machine(8, 1);
  Mapping proto;
  proto.set_input(0, InputHome::at({0, 0}));
  proto.set_input(1, InputHome::at({0, 0}));
  SearchOptions opts;
  opts.top_k = 4;
  const SearchResult res = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(res.found);
  for (std::size_t i = 1; i < res.top.size(); ++i) {
    EXPECT_LE(res.top[i - 1].merit, res.top[i].merit);
  }
  EXPECT_DOUBLE_EQ(res.top[0].merit, res.best.merit);
}

TEST(Search, ParetoFrontIsNonDominatedAndSorted) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(10, 10, s);
  const MachineConfig cfg = make_machine(10, 1);
  Mapping proto;
  proto.set_input(0, InputHome::at({0, 0}));
  proto.set_input(1, InputHome::at({0, 0}));
  SearchOptions opts;
  opts.keep_all_legal = true;
  const SearchResult res = search_affine(spec, cfg, proto, opts);
  ASSERT_GT(res.all_legal.size(), 1u);
  const auto front = pareto_front(res.all_legal);
  ASSERT_FALSE(front.empty());
  // Sorted by makespan; energy strictly decreasing along the front.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].cost.makespan_cycles,
              front[i - 1].cost.makespan_cycles);
    EXPECT_LT(front[i].cost.total_energy().femtojoules(),
              front[i - 1].cost.total_energy().femtojoules());
  }
  // Nothing on the front is dominated by any legal candidate.
  for (const Candidate& f : front) {
    for (const Candidate& c : res.all_legal) {
      const bool dominates =
          c.cost.makespan_cycles <= f.cost.makespan_cycles &&
          c.cost.total_energy().femtojoules() <
              f.cost.total_energy().femtojoules();
      EXPECT_FALSE(dominates &&
                   c.cost.makespan_cycles < f.cost.makespan_cycles);
    }
  }
}

TEST(Search, ParetoFrontOfEmptyAndSingleton) {
  EXPECT_TRUE(pareto_front({}).empty());
  Candidate c;
  c.cost.makespan_cycles = 5;
  const auto front = pareto_front({c});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].cost.makespan_cycles, 5);
}

TEST(Search, RequiresSingleComputedTensor) {
  auto build = algos::conv1d_weight_stationary(8, 4);  // 3 computed
  const MachineConfig cfg = make_machine(4, 1);
  Mapping proto;
  EXPECT_THROW((void)search_affine(build.spec, cfg, proto),
               InvalidArgument);
}

// --- recompute analysis -------------------------------------------------

TEST(Recompute, BroadcastOfDerivedValueIsProfitable) {
  // s = 2 * a (computed once on PE 0) feeds every element of b across
  // the grid.  With `a` co-resident at each consumer, recomputing s
  // locally (one 16 fJ op + an SRAM read) beats shipping it over
  // multi-hop wires — the paper's "compute the same element at multiple
  // points in space" case.
  FunctionSpec spec;
  const std::int64_t n = 16;
  const TensorId a = spec.add_input("a", IndexDomain(n), 32);
  const TensorId s = spec.add_computed(
      "s", IndexDomain(n),
      [a](const Point& p) {
        return std::vector<ValueRef>{{a, p}};
      },
      [](const Point&, const std::vector<double>& v) { return 2.0 * v[0]; },
      OpCost{.ops = 1.0, .bits = 32});
  const TensorId b = spec.add_computed(
      "b", IndexDomain(n),
      [s](const Point& p) {
        return std::vector<ValueRef>{{s, p}};
      },
      [](const Point&, const std::vector<double>& v) { return v[0] + 1.0; },
      OpCost{.ops = 1.0, .bits = 32});
  spec.mark_output(b);

  const MachineConfig cfg = make_machine(16, 1);
  Mapping m;
  // s lives on PE 0; b(i) on PE i — every edge s(i) -> b(i) is remote.
  m.set_computed(s, [](const Point&) { return noc::Coord{0, 0}; },
                 [](const Point& p) { return Cycle{p.i + 16}; });
  m.set_computed(
      b,
      [](const Point& p) {
        return noc::Coord{static_cast<int>(p.i), 0};
      },
      [](const Point& p) { return Cycle{p.i + 64}; });
  // Each a(i) is pre-loaded where b(i) runs (co-resident).
  m.set_input(a, InputHome::distributed([](const Point& p) {
                return noc::Coord{static_cast<int>(p.i), 0};
              }));

  const RecomputeReport rep = recompute_report(spec, m, cfg);
  EXPECT_EQ(rep.remote_edges, 15u);  // b(0) is local to s(0)
  EXPECT_EQ(rep.feasible_edges, 15u);
  EXPECT_EQ(rep.profitable_edges, 15u);
  EXPECT_GT(rep.savings_fraction(), 0.8);
}

TEST(Recompute, DeepChainsAreInfeasibleAtDepthOne) {
  // The DP wavefront's H -> H edges have non-input producers: nothing is
  // depth-1 recomputable, so the report must not promise savings.
  algos::SwScores scores;
  TensorId rt;
  TensorId qt;
  TensorId ht;
  const auto spec = algos::editdist_spec(10, 10, scores, &rt, &qt, &ht);
  Mapping m;
  const WavefrontMap wf = wavefront_map(10, 5);
  m.set_computed(ht, wf.place_fn(), wf.time_fn());
  m.set_input(rt, InputHome::at({0, 0}));
  m.set_input(qt, InputHome::at({0, 0}));
  const RecomputeReport rep =
      recompute_report(spec, m, make_machine(5, 1));
  EXPECT_GT(rep.remote_edges, 0u);
  // Only H(0,0)'s consumers have an all-input producer.
  EXPECT_LE(rep.feasible_edges, 2u);
  EXPECT_DOUBLE_EQ(rep.best_energy.femtojoules() + rep.savings().femtojoules(),
                   rep.move_energy.femtojoules());
}

// --- lowering ----------------------------------------------------------

TEST(Lower, WavefrontArrayShape) {
  algos::SwScores s;
  TensorId rt;
  TensorId qt;
  TensorId ht;
  const std::int64_t n = 8;
  const int pes = 4;
  const auto spec = algos::editdist_spec(n, n, s, &rt, &qt, &ht);
  Mapping m;
  const WavefrontMap wf = wavefront_map(n, pes);
  m.set_computed(ht, wf.place_fn(), wf.time_fn());
  m.set_input(rt, InputHome::at({0, 0}));
  m.set_input(qt, InputHome::at({0, 0}));
  const MachineConfig cfg = make_machine(pes, 1);
  const HardwareSpec hw = lower(spec, m, cfg, "editdist");
  EXPECT_EQ(hw.active_pes(), static_cast<std::size_t>(pes));
  // Work is balanced: every PE computes n*n/P cells.
  for (const PeSpec& pe : hw.pes) {
    if (pe.is_active()) {
      EXPECT_EQ(pe.ops, static_cast<std::uint64_t>(n * n / pes));
      EXPECT_GT(pe.registers, 0);
    }
  }
  EXPECT_GT(hw.estimated_area().mm2(), 0.0);
}

TEST(Lower, VerilogSkeletonMentionsModulesAndInstances) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(3, 1);
  Mapping m;
  const WavefrontMap wf = wavefront_map(6, 3);
  m.set_computed(2, wf.place_fn(), wf.time_fn());
  m.set_input(0, InputHome::at({0, 0}));
  m.set_input(1, InputHome::at({0, 0}));
  const HardwareSpec hw = lower(spec, m, cfg, "dp");
  std::ostringstream os;
  hw.emit_verilog(os);
  const std::string v = os.str();
  EXPECT_NE(v.find("module dp_pe_c0"), std::string::npos);
  EXPECT_NE(v.find("module dp_top"), std::string::npos);
  EXPECT_NE(v.find("pe_x0_y0"), std::string::npos);
}

TEST(Lower, SerialMappingUsesOnePe) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(5, 5, s);
  const MachineConfig cfg = make_machine(4, 4);
  const HardwareSpec hw = lower(spec, serial_mapping(spec), cfg);
  EXPECT_EQ(hw.active_pes(), 1u);
  EXPECT_EQ(hw.pes[0].ops, 25u);
}

// --- verify edge cases --------------------------------------------------

TEST(VerifyEdgeCases, MaxMessagesTruncatesRecordsButNotCounters) {
  // All-at-origin mapping: every one of the 36 elements collides, so the
  // violation counters must race past a tiny diagnostic cap.
  TensorId rt;
  TensorId qt;
  TensorId ht;
  const auto spec =
      algos::editdist_spec(6, 6, algos::SwScores{}, &rt, &qt, &ht);
  const MachineConfig cfg = make_machine(2, 2);
  AffineMap am;
  am.cols = 2;
  am.rows = 2;
  Mapping m;
  m.set_computed(ht, am.place_fn(), am.time_fn());
  m.set_input(rt, InputHome::at({0, 0}));
  m.set_input(qt, InputHome::at({0, 0}));

  VerifyOptions opts;
  opts.max_messages = 3;
  const LegalityReport rep = verify(spec, m, cfg, opts);
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.diagnostics.size(), 3u);
  EXPECT_GT(rep.total_violations(), 3u);
  EXPECT_EQ(rep.exclusivity_violations, 35u);  // 36 elements, one slot

  // max_messages = 0 keeps counting with no records at all.
  opts.max_messages = 0;
  const LegalityReport none = verify(spec, m, cfg, opts);
  EXPECT_TRUE(none.diagnostics.empty());
  EXPECT_EQ(none.total_violations(), rep.total_violations());
}

TEST(VerifyEdgeCases, StorageAndBandwidthTogglesSkipTheirChecks) {
  // A 1-value PE capacity and a starved link make both optional checks
  // fire; toggling each off must silence exactly that family.
  TensorId rt;
  TensorId qt;
  TensorId ht;
  const auto spec =
      algos::editdist_spec(8, 8, algos::SwScores{}, &rt, &qt, &ht);
  MachineConfig cfg = make_machine(4, 1);
  cfg.pe_capacity_values = 1;
  cfg.link_bits_per_cycle = 0.5;
  const WavefrontMap wf = wavefront_map(8, 4);
  Mapping m;
  m.set_computed(ht, wf.place_fn(), wf.time_fn());
  m.set_input(rt, InputHome::at({0, 0}));
  m.set_input(qt, InputHome::at({0, 0}));

  const LegalityReport both = verify(spec, m, cfg);
  EXPECT_GT(both.storage_violations, 0u);
  EXPECT_GT(both.bandwidth_violations, 0u);

  VerifyOptions no_storage;
  no_storage.check_storage = false;
  const LegalityReport ns = verify(spec, m, cfg, no_storage);
  EXPECT_EQ(ns.storage_violations, 0u);
  EXPECT_EQ(ns.peak_live_values, 0);
  EXPECT_EQ(ns.peak_live_pe, -1);
  EXPECT_GT(ns.bandwidth_violations, 0u);

  VerifyOptions no_bandwidth;
  no_bandwidth.check_bandwidth = false;
  const LegalityReport nb = verify(spec, m, cfg, no_bandwidth);
  EXPECT_EQ(nb.bandwidth_violations, 0u);
  EXPECT_DOUBLE_EQ(nb.peak_link_bits_per_cycle, 0.0);
  EXPECT_EQ(nb.peak_link, -1);
  EXPECT_GT(nb.storage_violations, 0u);

  VerifyOptions neither;
  neither.check_storage = false;
  neither.check_bandwidth = false;
  const LegalityReport off = verify(spec, m, cfg, neither);
  EXPECT_TRUE(off.ok);  // causality and exclusivity still hold
}

TEST(VerifyEdgeCases, IncompleteMappingThrowsInvalidArgument) {
  TensorId rt;
  TensorId qt;
  TensorId ht;
  const auto spec =
      algos::editdist_spec(4, 4, algos::SwScores{}, &rt, &qt, &ht);
  const MachineConfig cfg = make_machine(2, 1);

  const Mapping empty;
  EXPECT_THROW((void)verify(spec, empty, cfg), InvalidArgument);

  // Computed tensor mapped but inputs homeless: still incomplete.
  Mapping partial;
  partial.set_computed(ht, [](const Point&) { return noc::Coord{0, 0}; },
                       [](const Point& p) { return Cycle{p.i * 4 + p.j}; });
  EXPECT_THROW((void)verify(spec, partial, cfg), InvalidArgument);
}

}  // namespace
}  // namespace harmony::fm
