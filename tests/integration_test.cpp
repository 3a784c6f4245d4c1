// Cross-module integration tests: each one walks a full experiment
// pipeline at unit-test scale (spec -> verify -> simulate -> validate).
#include <gtest/gtest.h>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/scan.hpp"
#include "algos/specs.hpp"
#include "cache/aram.hpp"
#include "cache/cache.hpp"
#include "cache/traced.hpp"
#include "fm/cost.hpp"
#include "fm/default_mapper.hpp"
#include "fm/idioms.hpp"
#include "fm/legality.hpp"
#include "fm/lower.hpp"
#include "fm/machine.hpp"
#include "fm/search.hpp"
#include "sched/parallel_ops.hpp"
#include "sched/scheduler.hpp"
#include "sched/workspan.hpp"
#include "support/rng.hpp"

namespace harmony {
namespace {

// E2 end-to-end: the paper's edit-distance example from spec to silicon.
TEST(Integration, EditDistanceSpecToVerifyToExecuteToLower) {
  const std::string r = "GATTACAGATTACA";
  const std::string q = "GCATGCTTAGGCAT";
  algos::SwScores scores;
  fm::TensorId rt;
  fm::TensorId qt;
  fm::TensorId ht;
  const auto spec = algos::editdist_spec(
      static_cast<std::int64_t>(r.size()),
      static_cast<std::int64_t>(q.size()), scores, &rt, &qt, &ht);

  const int pes = 7;
  const fm::MachineConfig cfg = fm::make_machine(pes, 1);
  fm::Mapping m;
  const fm::WavefrontMap wf =
      fm::wavefront_map(static_cast<std::int64_t>(q.size()), pes);
  m.set_computed(ht, wf.place_fn(), wf.time_fn());
  m.set_input(rt, fm::InputHome::at({0, 0}));
  m.set_input(qt, fm::InputHome::at({0, 0}));

  // 1. Verify (the Martonosi discipline: no unverified mapping runs).
  const fm::LegalityReport rep = fm::verify(spec, m, cfg);
  ASSERT_TRUE(rep.ok) << rep.first_message();

  // 2. Execute and validate against the host reference.
  const auto res = fm::GridMachine(cfg).run(
      spec, m, {algos::encode_string(r), algos::encode_string(q)});
  EXPECT_EQ(res.outputs[0],
            algos::smith_waterman_serial(r, q, scores));

  // 3. Analytic cost agrees with the executed ledger.
  const fm::CostReport cost = fm::evaluate_cost(spec, m, cfg);
  EXPECT_EQ(cost.makespan_cycles, res.makespan_cycles);
  EXPECT_DOUBLE_EQ(cost.total_energy().femtojoules(),
                   res.total_energy().femtojoules());

  // 4. Lower to hardware: P active PEs, balanced ops.
  const fm::HardwareSpec hw = fm::lower(spec, m, cfg, "sw_array");
  EXPECT_EQ(hw.active_pes(), static_cast<std::size_t>(pes));
  EXPECT_EQ(hw.schedule_length, res.makespan_cycles);
}

// E8 end-to-end: autotuned mapping must beat the serial mapping and be
// verified legal, and the best-found schedule must execute correctly.
TEST(Integration, SearchedMappingExecutesCorrectly) {
  const std::string r = "ACGTACGTAC";
  const std::string q = "TACGTTACGA";
  algos::SwScores scores;
  const auto spec = algos::editdist_spec(
      static_cast<std::int64_t>(r.size()),
      static_cast<std::int64_t>(q.size()), scores);
  const fm::MachineConfig cfg =
      fm::make_machine(static_cast<int>(r.size()), 1);

  fm::Mapping proto;
  proto.set_input(0, fm::InputHome::at({0, 0}));
  proto.set_input(1, fm::InputHome::at({0, 0}));
  fm::SearchOptions opts;
  opts.fom = fm::FigureOfMerit::kTime;
  const fm::SearchResult sr = fm::search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(sr.found);

  fm::Mapping best;
  best.set_computed(2, sr.best.map.place_fn(), sr.best.map.time_fn());
  best.set_input(0, fm::InputHome::at({0, 0}));
  best.set_input(1, fm::InputHome::at({0, 0}));
  const auto res = fm::GridMachine(cfg).run(
      spec, best, {algos::encode_string(r), algos::encode_string(q)});
  EXPECT_EQ(res.outputs[0],
            algos::smith_waterman_serial(r, q, scores));
}

// E6 end-to-end: one source program, three execution substrates —
// the real scheduler, the work-span analyzer, and plain serial.
TEST(Integration, OneScanSourceThreeSubstrates) {
  const std::size_t n = 20000;
  Rng rng(1);
  std::vector<std::int64_t> input(n);
  for (auto& v : input) v = rng.next_int(0, 9);

  std::vector<std::int64_t> serial_out;
  const std::int64_t serial_total =
      algos::exclusive_scan_seq(input, serial_out);

  // Work-span analyzer.
  sched::WorkSpanCtx ws;
  auto ws_data = input;
  const std::int64_t ws_total = algos::exclusive_scan(ws, ws_data, 64);
  EXPECT_EQ(ws_total, serial_total);
  EXPECT_EQ(ws_data, serial_out);
  EXPECT_GT(ws.parallelism(), 16.0);

  // Real threads.
  sched::Scheduler sched(4);
  sched::RealCtx real;
  auto real_data = input;
  std::int64_t real_total = 0;
  sched.run([&] {
    real_total = algos::exclusive_scan(real, real_data, 64);
  });
  EXPECT_EQ(real_total, serial_total);
  EXPECT_EQ(real_data, serial_out);
}

// E5 end-to-end: one matmul kernel, real values + cache + ARAM sinks.
TEST(Integration, TracedMatmulComputesAndCounts) {
  const std::size_t n = 24;
  Rng rng(6);
  std::vector<double> av(n * n);
  std::vector<double> bv(n * n);
  for (auto& v : av) v = rng.next_double(-1, 1);
  for (auto& v : bv) v = rng.next_double(-1, 1);
  const auto expect = algos::matmul_serial(av, bv, n);

  cache::CacheHierarchy h = cache::make_single_level(8 * 1024, 64);
  cache::CacheSink cs(h);
  cache::AramCounter aram;
  cache::TeeSink tee({&cs, &aram});
  cache::AddressSpace space;
  cache::TracedArray<double> a(av, space, tee);
  cache::TracedArray<double> b(bv, space, tee);
  cache::TracedArray<double> c(n * n, space, tee);
  algos::matmul_oblivious(a, b, c, n);
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_NEAR(c.raw()[i], expect[i], 1e-9);
  }
  EXPECT_GT(h.level_stats(0).misses(), 0u);
  // Each inner step reads a and b once (2n^3); c is re-read once per
  // (i,j,k-segment) leaf tile — a handful of segments at this size.
  EXPECT_GE(aram.reads(), static_cast<std::uint64_t>(2 * n * n * n + n * n));
  EXPECT_LE(aram.reads(),
            static_cast<std::uint64_t>(2 * n * n * n + 8 * n * n));
}

// E12 mechanism: the same function priced on CPU vs grid vs lowered array.
TEST(Integration, SpecializationEnergyOrdering) {
  const auto build = algos::conv1d_weight_stationary(64, 8);
  const fm::MachineConfig cfg = fm::make_machine(8, 1);
  ASSERT_TRUE(fm::verify(build.spec, build.mapping, cfg).ok);
  const fm::CostReport grid =
      fm::evaluate_cost(build.spec, build.mapping, cfg);

  // CPU: every op pays the 10,000x instruction overhead.
  const noc::TechnologyModel tech = cfg.geom.tech();
  const Energy cpu_energy =
      tech.cpu_instruction_energy(32) * grid.total_ops;

  EXPECT_GT(cpu_energy / grid.total_energy(), 100.0)
      << "the grid must be orders of magnitude more efficient";
  // And the energy per op on the grid stays within ~two orders of the
  // raw add energy (movement is neighbour-only).
  EXPECT_LT(grid.energy_per_op() / tech.op_energy(32), 100.0);
}

// The full F&M tool chain in one flow: search a mapping on a wide
// machine, fold the winner onto a narrow one, verify, execute, lower.
TEST(Integration, SearchThenFoldThenExecuteThenLower) {
  algos::SwScores scores;
  const std::int64_t n = 12;
  fm::TensorId rt;
  fm::TensorId qt;
  fm::TensorId ht;
  const auto spec = algos::editdist_spec(n, n, scores, &rt, &qt, &ht);

  // 1. Search on the wide (n-column) machine.
  const fm::MachineConfig wide = fm::make_machine(static_cast<int>(n), 1);
  fm::Mapping proto;
  proto.set_input(rt, fm::InputHome::at({0, 0}));
  proto.set_input(qt, fm::InputHome::at({0, 0}));
  fm::SearchOptions opts;
  opts.fom = fm::FigureOfMerit::kTime;
  const fm::SearchResult sr = fm::search_affine(spec, wide, proto, opts);
  ASSERT_TRUE(sr.found);

  // 2. Fold the winner onto 4 physical columns.
  const fm::FoldedMap folded = fm::fold_columns(
      sr.best.map.place_fn(), sr.best.map.time_fn(), static_cast<int>(n),
      4);
  fm::Mapping m;
  m.set_computed(ht, folded.place, folded.time);
  m.set_input(rt, fm::InputHome::at({0, 0}));
  m.set_input(qt, fm::InputHome::at({0, 0}));

  // 3. Verify on the narrow machine and execute.
  const fm::MachineConfig narrow = fm::make_machine(4, 1);
  const fm::LegalityReport rep = fm::verify(spec, m, narrow);
  ASSERT_TRUE(rep.ok) << rep.first_message();
  const std::string r = "ACGTTGCAACGT";
  const std::string q = "TGCAACGTACGT";
  const auto res = fm::GridMachine(narrow).run(
      spec, m, {algos::encode_string(r), algos::encode_string(q)});
  EXPECT_EQ(res.outputs[0], algos::smith_waterman_serial(r, q, scores));

  // 4. Lower: exactly the 4 physical PEs are active.
  const fm::HardwareSpec hw = fm::lower(spec, m, narrow, "folded");
  EXPECT_EQ(hw.active_pes(), 4u);
}

// Composition: a consumer reading the producer's tiles transposed pays
// for a remap module that actually moves data.
TEST(Integration, PipelineInsertsTransposeRemap) {
  const fm::MachineConfig cfg = fm::make_machine(4, 4);
  const fm::IndexDomain dom(16, 16);
  const auto tiles = fm::tile2d_distribution(dom, cfg.geom);
  const fm::RemapCost remap =
      fm::remap_cost(dom, 32, tiles, fm::transposed(tiles), cfg);
  EXPECT_GT(remap.moved_values, 0u);
}

}  // namespace
}  // namespace harmony
