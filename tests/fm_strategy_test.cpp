// Stochastic mapping search (fm/strategy): TableMap oracle parity,
// delta-evaluation exactness against full re-evaluation after arbitrary
// apply/undo move sequences, seed-schedule legality, worker-count
// byte-identity of the anneal and beam drivers, FM005 option
// validation, and cancel semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/specs.hpp"
#include "fm/compiled.hpp"
#include "fm/idioms.hpp"
#include "fm/search.hpp"
#include "fm/strategy/delta.hpp"
#include "fm/strategy/strategy.hpp"
#include "fm/strategy/table_map.hpp"
#include "reference/reference.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

namespace harmony::fm {
namespace {

/// Bit-for-bit CostReport equality — the contract between two delta
/// evaluators over identical counters, and between the compiled
/// TableMap oracle and the reference oracle on the lowered Mapping.
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

/// Integer fields exact, energy doubles to addition-reassociation
/// tolerance — the delta evaluator's contract against evaluate_cost.
void expect_cost_matches_oracle(const CostReport& delta,
                                const CostReport& oracle) {
  EXPECT_EQ(delta.makespan_cycles, oracle.makespan_cycles);
  EXPECT_EQ(delta.messages, oracle.messages);
  EXPECT_EQ(delta.bit_hops, oracle.bit_hops);
  EXPECT_EQ(delta.total_ops, oracle.total_ops);
  EXPECT_DOUBLE_EQ(delta.makespan.picoseconds(),
                   oracle.makespan.picoseconds());
  EXPECT_EQ(delta.compute_energy.femtojoules(),
            oracle.compute_energy.femtojoules());
  const auto near = [](double x, double y) {
    EXPECT_NEAR(x, y, 1e-9 * std::max(1.0, std::abs(y)));
  };
  near(delta.onchip_movement_energy.femtojoules(),
       oracle.onchip_movement_energy.femtojoules());
  near(delta.local_access_energy.femtojoules(),
       oracle.local_access_energy.femtojoules());
  near(delta.dram_energy.femtojoules(), oracle.dram_energy.femtojoules());
}

/// The irregular-DAG fixture: hash-derived fan-in no affine schedule can
/// express, inputs block-distributed so kShiftHome has targets.
struct Fixture {
  FunctionSpec spec;
  MachineConfig cfg;
  Mapping proto;
  std::shared_ptr<const CompiledSpec> cs;
  std::shared_ptr<const StrategySpec> ss;
};

Fixture make_fixture(std::int64_t n, bool output, int cols = 2,
                     int rows = 2) {
  Fixture f{algos::irregular_dag_spec(n, 3, 0xD46u, output),
            make_machine(cols, rows), Mapping{}, nullptr, nullptr};
  for (TensorId in : f.spec.input_tensors()) {
    f.proto.set_input(in, InputHome::distributed(
                              block_distribution(f.spec.domain(in),
                                                 f.cfg.geom).place));
  }
  f.cs = compile_spec(f.spec, f.cfg, f.proto);
  f.ss = build_strategy_spec(f.cs);
  return f;
}

/// A random in-bounds move drawn from the full move set.
Move random_move(const StrategySpec& ss, Rng& rng) {
  const std::int64_t n = ss.cs->num_points;
  const auto P = static_cast<std::uint64_t>(ss.cs->num_pes);
  Move m;
  const std::uint64_t r = rng.next_below(3);
  if (r == 2 && !ss.pe_homed.empty()) {
    m.kind = MoveKind::kShiftHome;
    m.a = ss.pe_homed[rng.next_below(ss.pe_homed.size())];
    m.pe = static_cast<std::int32_t>(rng.next_below(P));
  } else if (r == 1 && n >= 2) {
    m.kind = MoveKind::kSwapOps;
    m.a = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    m.b = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
  } else {
    m.kind = MoveKind::kReplaceOp;
    m.a = static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    m.pe = static_cast<std::int32_t>(rng.next_below(P));
    m.cycle = static_cast<Cycle>(
        rng.next_below(static_cast<std::uint64_t>(ss.cycle_bound)));
  }
  return m;
}

/// Every externally observable piece of DeltaEval state, compared
/// bit-for-bit between the incrementally maintained evaluator and a
/// fresh full recompute of the same table.
void expect_state_identical(DeltaEval& inc, DeltaEval& fresh) {
  EXPECT_EQ(inc.causality_violations(), fresh.causality_violations());
  EXPECT_EQ(inc.exclusivity_violations(), fresh.exclusivity_violations());
  EXPECT_EQ(inc.storage_violations(), fresh.storage_violations());
  EXPECT_EQ(inc.bandwidth_violations(), fresh.bandwidth_violations());
  EXPECT_EQ(inc.makespan_cycles(), fresh.makespan_cycles());
  EXPECT_EQ(inc.legal(), fresh.legal());
  expect_cost_identical(inc.cost_report(), fresh.cost_report());
  for (const FigureOfMerit fom :
       {FigureOfMerit::kTime, FigureOfMerit::kEnergy,
        FigureOfMerit::kEnergyDelay}) {
    EXPECT_EQ(inc.merit(fom), fresh.merit(fom));
  }
}

/// DeltaEval counters vs the compiled verifier, legal() vs verify_ok,
/// and the cost report vs evaluate_cost, all on the evaluator's table.
void expect_matches_oracles(DeltaEval& de, EvalContext& ctx) {
  const CompiledSpec& cs = *de.strategy().cs;
  const TableMap& tm = de.table();
  const LegalityReport lr = verify(cs, tm, ctx, de.options());
  EXPECT_EQ(de.causality_violations(), lr.causality_violations);
  EXPECT_EQ(de.exclusivity_violations(), lr.exclusivity_violations);
  if (de.options().check_storage) {
    EXPECT_EQ(de.storage_violations(), lr.storage_violations);
  }
  if (de.options().check_bandwidth) {
    EXPECT_EQ(de.bandwidth_violations(), lr.bandwidth_violations);
  }
  EXPECT_EQ(de.legal(), lr.ok);
  EXPECT_EQ(de.legal(), verify_ok(cs, tm, ctx, de.options()));
  expect_cost_matches_oracle(de.cost_report(), evaluate_cost(cs, tm, ctx));
}

TEST(SeedTable, LegalOnIrregularDagAndMatchesOracles) {
  for (const bool output : {true, false}) {
    const Fixture f = make_fixture(24, output);
    const TableMap seed = seed_table(*f.ss);
    EvalContext ctx(*f.cs);
    EXPECT_TRUE(verify_ok(*f.cs, seed, ctx));
    DeltaEval de(f.ss);
    de.reset(seed);
    EXPECT_TRUE(de.legal());
    expect_matches_oracles(de, ctx);
  }
}

TEST(TableFromAffine, OracleParityCompiledAndLowered) {
  // The affine family embedded in the table space: the snapshot must
  // score and verify exactly like the AffineMap it came from, and the
  // lowered Mapping must agree with the reference oracles bit-for-bit.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(6, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  const auto cs = compile_spec(spec, cfg, proto);
  EvalContext ctx(*cs);
  const AffineMap amap{.ti = 1, .tj = 1, .t0 = 6, .xi = 1, .cols = 6,
                       .rows = 1};
  ASSERT_TRUE(verify_ok(*cs, amap, ctx));

  const TableMap tm = table_from_affine(*cs, amap);
  expect_cost_identical(evaluate_cost(*cs, tm, ctx),
                        evaluate_cost(*cs, amap, ctx));
  const LegalityReport via_table = verify(*cs, tm, ctx);
  const LegalityReport via_affine = verify(*cs, amap, ctx);
  EXPECT_EQ(via_table.ok, via_affine.ok);
  EXPECT_EQ(via_table.peak_live_values, via_affine.peak_live_values);
  EXPECT_EQ(via_table.peak_link_bits_per_cycle,
            via_affine.peak_link_bits_per_cycle);

  const Mapping lowered = to_mapping(spec, tm);
  expect_cost_identical(reference::evaluate_cost(spec, lowered, cfg),
                        evaluate_cost(*cs, tm, ctx));
  EXPECT_TRUE(reference::verify(spec, lowered, cfg).ok);
}

TEST(DeltaEval, RandomMoveSequenceParity) {
  // The S4 pin: after ANY sequence of applies, the incrementally
  // maintained state is bit-identical to a fresh reset() on the same
  // table, agrees with the compiled verifier/cost oracles, and undoing
  // the whole sequence restores the initial state exactly.
  for (const bool output : {true, false}) {
    SCOPED_TRACE(output ? "output target" : "intermediate target");
    const Fixture f = make_fixture(20, output);
    EvalContext ctx(*f.cs);
    const TableMap seed = seed_table(*f.ss);

    DeltaEval inc(f.ss);
    inc.reset(seed);
    DeltaEval fresh(f.ss);
    const CostReport initial = [&] {
      fresh.reset(seed);
      return fresh.cost_report();
    }();

    Rng rng(0xC0FFEEu + (output ? 1 : 0));
    std::vector<Move> inverses;
    for (int step = 0; step < 240; ++step) {
      inverses.push_back(inc.apply_move(random_move(*f.ss, rng)));
      if (step % 16 == 7) {
        fresh.reset(inc.table());
        expect_state_identical(inc, fresh);
        expect_matches_oracles(inc, ctx);
      }
    }
    // Full unwind restores the seed state bit-for-bit.
    for (auto it = inverses.rbegin(); it != inverses.rend(); ++it) {
      inc.undo_move(*it);
    }
    expect_cost_identical(inc.cost_report(), initial);
    fresh.reset(seed);
    expect_state_identical(inc, fresh);
  }
}

TEST(DeltaEval, SwapIsSelfInverse) {
  const Fixture f = make_fixture(12, true);
  DeltaEval de(f.ss);
  de.reset(seed_table(*f.ss));
  const CostReport before = de.cost_report();
  Move swap{MoveKind::kSwapOps, 2, 9, 0, 0};
  const Move inv = de.apply_move(swap);
  EXPECT_EQ(inv.kind, MoveKind::kSwapOps);
  de.undo_move(inv);
  expect_cost_identical(de.cost_report(), before);
}

TEST(DeltaEval, GatedChecksAffectLegalityOnly) {
  // With storage/bandwidth checks off, legal() must ignore those
  // violations — but the counters are still maintained and exact.
  const Fixture f = make_fixture(20, true);
  VerifyOptions off;
  off.check_storage = false;
  off.check_bandwidth = false;
  DeltaEval gated(f.ss, off);
  DeltaEval strict(f.ss);
  gated.reset(seed_table(*f.ss));
  strict.reset(seed_table(*f.ss));
  Rng rng(77);
  EvalContext ctx(*f.cs);
  for (int step = 0; step < 120; ++step) {
    const Move m = random_move(*f.ss, rng);
    (void)gated.apply_move(m);
    (void)strict.apply_move(m);
    if (step % 24 == 11) {
      EXPECT_EQ(gated.storage_violations(), strict.storage_violations());
      EXPECT_EQ(gated.bandwidth_violations(), strict.bandwidth_violations());
      EXPECT_EQ(gated.legal(), verify_ok(*f.cs, gated.table(), ctx, off));
      EXPECT_EQ(strict.legal(), verify_ok(*f.cs, strict.table(), ctx));
    }
  }
}

/// Byte-level equality of two search results: the placement table
/// itself plus every counter the drivers report.
void expect_result_identical(const StrategyResult& a,
                             const StrategyResult& b) {
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.best.pe, b.best.pe);
  EXPECT_EQ(a.best.cycle, b.best.cycle);
  EXPECT_EQ(a.best.input_home, b.best.input_home);
  EXPECT_EQ(a.merit, b.merit);
  EXPECT_EQ(a.moves_tried, b.moves_tried);
  EXPECT_EQ(a.moves_accepted, b.moves_accepted);
  EXPECT_EQ(a.moves_rejected_illegal, b.moves_rejected_illegal);
  EXPECT_EQ(a.epochs_run, b.epochs_run);
  EXPECT_EQ(a.reheats, b.reheats);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.chains_used, b.chains_used);
  expect_cost_identical(a.cost, b.cost);
}

TEST(SearchTable, AnnealByteIdenticalAcrossWorkerCounts) {
  const Fixture f = make_fixture(24, true);
  StrategyOptions opts;
  opts.compiled = f.cs;
  opts.chains = 3;
  opts.epochs = 8;
  opts.iters_per_epoch = 64;
  const StrategyResult serial =
      search_table(f.spec, f.cfg, f.proto, StrategyKind::kAnneal, opts);
  ASSERT_TRUE(serial.found);
  EXPECT_TRUE(serial.completed);
  for (const unsigned workers : {1u, 4u, 8u}) {
    sched::Scheduler pool(workers);
    StrategyOptions par = opts;
    par.scheduler = &pool;
    const StrategyResult r =
        search_table(f.spec, f.cfg, f.proto, StrategyKind::kAnneal, par);
    SCOPED_TRACE(workers);
    expect_result_identical(r, serial);
  }
}

TEST(SearchTable, BeamByteIdenticalAcrossWorkerCounts) {
  const Fixture f = make_fixture(24, true);
  StrategyOptions opts;
  opts.compiled = f.cs;
  opts.epochs = 6;
  opts.beam_width = 4;
  opts.beam_moves = 12;
  const StrategyResult serial =
      search_table(f.spec, f.cfg, f.proto, StrategyKind::kBeam, opts);
  ASSERT_TRUE(serial.found);
  for (const unsigned workers : {1u, 4u, 8u}) {
    sched::Scheduler pool(workers);
    StrategyOptions par = opts;
    par.scheduler = &pool;
    const StrategyResult r =
        search_table(f.spec, f.cfg, f.proto, StrategyKind::kBeam, par);
    SCOPED_TRACE(workers);
    expect_result_identical(r, serial);
  }
}

TEST(SearchTable, WinnerIsLegalAndRescoredThroughFullOracle) {
  const Fixture f = make_fixture(24, true);
  StrategyOptions opts;
  opts.compiled = f.cs;
  opts.chains = 2;
  opts.epochs = 10;
  opts.iters_per_epoch = 96;
  const StrategyResult r =
      search_table(f.spec, f.cfg, f.proto, StrategyKind::kAnneal, opts);
  ASSERT_TRUE(r.found);
  EvalContext ctx(*f.cs);
  EXPECT_TRUE(verify_ok(*f.cs, r.best, ctx));
  expect_cost_identical(r.cost, evaluate_cost(*f.cs, r.best, ctx));
  EXPECT_EQ(r.merit, merit_value(r.cost, opts.fom));
  // The lowered mapping passes the reference verifier too.
  EXPECT_TRUE(
      reference::verify(f.spec, to_mapping(f.spec, r.best), f.cfg).ok);
}

TEST(SearchTable, AnnealReachesAffineOptimumOnTinySpace) {
  // On a space small enough for the exhaustive affine search, the table
  // search must do at least as well: the TableMap space contains every
  // affine schedule, and the budgeted anneal finds one at least as good.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(4, 4, s);
  const MachineConfig cfg = make_machine(4, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  SearchOptions aopts;
  const SearchResult affine = search_affine(spec, cfg, proto, aopts);
  ASSERT_TRUE(affine.found);

  StrategyOptions topts;
  topts.chains = 4;
  topts.epochs = 48;
  topts.iters_per_epoch = 256;
  const StrategyResult table =
      search_table(spec, cfg, proto, StrategyKind::kAnneal, topts);
  ASSERT_TRUE(table.found);
  EXPECT_LE(table.merit, affine.best.merit);
}

TEST(SearchTable, CancelReturnsBestSoFarIncomplete) {
  const Fixture f = make_fixture(24, true);
  StrategyOptions opts;
  opts.compiled = f.cs;
  opts.cancel = [] { return true; };  // cut at the first epoch poll
  const StrategyResult r =
      search_table(f.spec, f.cfg, f.proto, StrategyKind::kAnneal, opts);
  EXPECT_TRUE(r.found);  // the legal seed is always an answer
  EXPECT_FALSE(r.completed);
  EvalContext ctx(*f.cs);
  EXPECT_TRUE(verify_ok(*f.cs, r.best, ctx));
}

TEST(StrategyOptions, DegenerateValuesAreFM005) {
  EXPECT_TRUE(validate_strategy_options(StrategyOptions{}).empty());
  const auto expect_fm005 = [](StrategyOptions o) {
    const auto diags = validate_strategy_options(o);
    ASSERT_FALSE(diags.empty());
    for (const auto& d : diags) EXPECT_EQ(d.rule_id, "FM005");
  };
  StrategyOptions o;
  o.chains = 0;
  expect_fm005(o);
  o = {};
  o.iters_per_epoch = 0;
  expect_fm005(o);
  o = {};
  o.epochs = 0;
  expect_fm005(o);
  o = {};
  o.t0_fraction = 0.0;
  expect_fm005(o);
  o = {};
  o.cooling = 0.0;
  expect_fm005(o);
  o = {};
  o.cooling = 1.5;
  expect_fm005(o);
  o = {};
  o.stall_epochs = 0;
  expect_fm005(o);
  o = {};
  o.max_reheats = -1;
  expect_fm005(o);
  o = {};
  o.makespan_slack = 0.5;
  expect_fm005(o);
  o = {};
  o.beam_width = 0;
  expect_fm005(o);
  o = {};
  o.beam_moves = 0;
  expect_fm005(o);

  const Fixture f = make_fixture(8, true);
  StrategyOptions bad;
  bad.chains = 0;
  EXPECT_THROW((void)search_table(f.spec, f.cfg, f.proto,
                                  StrategyKind::kAnneal, bad),
               InvalidArgument);
}

TEST(SearchOptions, DegenerateValuesAreFM005) {
  // 0 used to silently mean "auto" for grain and was clamped for
  // quick_sample; both are now rejected (kAutoGrain is the sentinel).
  EXPECT_TRUE(validate_search_options(SearchOptions{}).empty());
  const auto expect_fm005 = [](SearchOptions o) {
    const auto diags = validate_search_options(o);
    ASSERT_FALSE(diags.empty());
    for (const auto& d : diags) EXPECT_EQ(d.rule_id, "FM005");
  };
  SearchOptions o;
  o.top_k = 0;
  expect_fm005(o);
  o = {};
  o.quick_sample = 0;
  expect_fm005(o);
  o = {};
  o.grain = 0;
  expect_fm005(o);

  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(4, 4, s);
  const MachineConfig cfg = make_machine(4, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  SearchOptions bad;
  bad.grain = 0;
  EXPECT_THROW((void)search_affine(spec, cfg, proto, bad), InvalidArgument);
}

}  // namespace
}  // namespace harmony::fm
