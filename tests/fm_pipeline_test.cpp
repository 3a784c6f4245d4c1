// fm::Pipeline — DAG composition, layout-aware handoff, and the two
// tuners (tests for src/fm/pipeline.cpp).
//
// The load-bearing cases:
//   * a single-stage pipeline must reproduce a plain search_affine bit
//     for bit (the pipeline layer adds nothing when there is nothing to
//     compose);
//   * a diamond DAG where two consumers pull the shared producer toward
//     conflicting layouts;
//   * a join stage mixing an external home with producer-fixed homes;
//   * greedy vs. paired on a chain engineered so the producer's locally
//     best layout is the consumer's worst — paired must not lose;
//   * execute_pipeline, the executed value oracle: every stage's machine
//     ledger equals its priced cost exactly, and the chain computes the
//     host reference whichever tuner placed it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "algos/editdist.hpp"
#include "algos/fft.hpp"
#include "algos/pipelines.hpp"
#include "algos/specs.hpp"
#include "fm/cost.hpp"
#include "fm/pipeline.hpp"
#include "fm/search.hpp"
#include "reference/reference.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace harmony::fm {
namespace {

SearchOptions small_space() {
  SearchOptions so;
  so.space.time_coeffs = {0, 1, 2};
  so.space.space_coeffs = {-1, 0, 1};
  return so;
}

TEST(Pipeline, AddStageValidates) {
  Pipeline pipe;
  // Null spec.
  EXPECT_THROW(pipe.add_stage({"bad", nullptr, {}}), InvalidArgument);
  // Two computed tensors (editdist has H plus helper tensors? it has
  // exactly one computed tensor — use a two-computed spec instead).
  {
    FunctionSpec two;
    const TensorId x = two.add_input("x", IndexDomain(4), 32);
    const auto dep = [x](const Point& p) {
      return std::vector<ValueRef>{{x, p}};
    };
    const auto ev = [](const Point&, const std::vector<double>& v) {
      return v[0];
    };
    two.add_computed("a", IndexDomain(4), dep, ev);
    two.add_computed("b", IndexDomain(4), dep, ev);
    EXPECT_THROW(pipe.add_stage({"two", std::make_shared<const FunctionSpec>(
                                            std::move(two)),
                                 {StageInput::external(InputHome::dram())}}),
                 InvalidArgument);
  }
  const auto scan = std::make_shared<const FunctionSpec>(
      algos::scan_pass_spec(8));
  // Binding count mismatch.
  EXPECT_THROW(pipe.add_stage({"scan", scan, {}}), InvalidArgument);
  // Producer index out of range (no stage 0 yet).
  EXPECT_THROW(pipe.add_stage({"scan", scan, {StageInput::from(0)}}),
               InvalidArgument);
  ASSERT_EQ(pipe.add_stage(
                {"scan", scan, {StageInput::external(InputHome::dram())}}),
            0u);
  // Domain mismatch: producer target has extent 8, consumer input 16.
  const auto wide = std::make_shared<const FunctionSpec>(
      algos::pointwise_filter_spec(16));
  EXPECT_THROW(pipe.add_stage({"wide", wide, {StageInput::from(0)}}),
               InvalidArgument);
  // Self/forward reference: producer must be strictly earlier.
  const auto filt = std::make_shared<const FunctionSpec>(
      algos::pointwise_filter_spec(8));
  EXPECT_THROW(pipe.add_stage({"fwd", filt, {StageInput::from(1)}}),
               InvalidArgument);
  EXPECT_EQ(pipe.add_stage({"filter", filt, {StageInput::from(0)}}), 1u);

  const auto cons = pipe.consumers_of(0);
  ASSERT_EQ(cons.size(), 1u);
  EXPECT_EQ(cons[0].stage, 1u);
  EXPECT_EQ(cons[0].input_ord, 0u);
}

TEST(Pipeline, SingleStageMatchesPlainSearchBitForBit) {
  algos::SwScores s;
  const auto spec = std::make_shared<const FunctionSpec>(
      algos::editdist_spec(8, 8, s));
  const MachineConfig machine = make_machine(8, 1);

  Mapping proto;
  proto.set_input(0, InputHome::dram());
  proto.set_input(1, InputHome::dram());
  const SearchResult plain =
      search_affine(*spec, machine, proto, small_space());

  Pipeline pipe;
  pipe.add_stage({"editdist", spec,
                  {StageInput::external(InputHome::dram()),
                   StageInput::external(InputHome::dram())}});
  PipelineOptions opts;
  opts.search = small_space();
  opts.fom = opts.search.fom;
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);

  ASSERT_TRUE(plain.found);
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.stages.size(), 1u);
  const StageResult& st = r.stages[0];
  // The committing run *is* a plain search: identical counters,
  // identical frontier, identical winner.
  EXPECT_EQ(st.search.enumerated, plain.enumerated);
  EXPECT_EQ(st.search.quick_rejected, plain.quick_rejected);
  EXPECT_EQ(st.search.verify_rejected, plain.verify_rejected);
  EXPECT_EQ(st.search.legal, plain.legal);
  ASSERT_EQ(st.search.top.size(), plain.top.size());
  for (std::size_t i = 0; i < plain.top.size(); ++i) {
    EXPECT_EQ(st.search.top[i].slot, plain.top[i].slot);
    EXPECT_DOUBLE_EQ(st.search.top[i].merit, plain.top[i].merit);
  }
  EXPECT_EQ(st.search.best.slot, plain.best.slot);
  EXPECT_DOUBLE_EQ(st.merit, plain.best.merit);
  // One stage: the pipeline totals are the stage's own report.
  EXPECT_EQ(r.total.makespan_cycles, st.cost.makespan_cycles);
  EXPECT_DOUBLE_EQ(r.total.total_energy().femtojoules(),
                   st.cost.total_energy().femtojoules());
  EXPECT_EQ(st.start_cycle, 0);
  EXPECT_EQ(st.finish_cycle, st.cost.makespan_cycles);
  EXPECT_EQ(r.probe_searches, 0u);
}

TEST(Pipeline, DiamondDagTunesEveryStageAndSchedulesTheJoin) {
  const Pipeline pipe = algos::diamond_pipeline(8);
  ASSERT_EQ(pipe.size(), 4u);
  const auto cons = pipe.consumers_of(0);
  ASSERT_EQ(cons.size(), 2u);  // filter and shuffle both read the scan

  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();

  for (const bool paired : {false, true}) {
    const PipelineResult r =
        paired ? tune_pipeline_paired(pipe, machine, opts)
               : tune_pipeline_greedy(pipe, machine, opts);
    ASSERT_TRUE(r.found) << (paired ? "paired" : "greedy");
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.stages.size(), 4u);
    for (const StageResult& st : r.stages) {
      EXPECT_TRUE(st.found) << st.name;
      EXPECT_GT(st.cost.makespan_cycles, 0) << st.name;
    }
    // The join starts only after *both* middle stages finish, and the
    // middle stages only after the shared producer.
    const StageResult& scan = r.stages[0];
    const StageResult& filt = r.stages[1];
    const StageResult& shuf = r.stages[2];
    const StageResult& join = r.stages[3];
    EXPECT_EQ(filt.start_cycle, scan.finish_cycle);
    EXPECT_EQ(shuf.start_cycle, scan.finish_cycle);
    EXPECT_EQ(join.start_cycle,
              std::max(filt.finish_cycle, shuf.finish_cycle));
    EXPECT_EQ(r.total.makespan_cycles, join.finish_cycle);
    // Totals really are sums.
    const double sum = scan.cost.total_energy().femtojoules() +
                       filt.cost.total_energy().femtojoules() +
                       shuf.cost.total_energy().femtojoules() +
                       join.cost.total_energy().femtojoules();
    EXPECT_DOUBLE_EQ(r.total.total_energy().femtojoules(), sum);
    if (paired) {
      // The scan has two ready consumers; with >1 candidate each one
      // is probed per candidate.
      EXPECT_GT(r.probe_searches, 0u);
    } else {
      EXPECT_EQ(r.probe_searches, 0u);
    }
  }
}

TEST(Pipeline, JoinStageMixesExternalAndProducerHomes) {
  // combine(a, b) with a fed by a scan and b external on PE (1, 0):
  // the resolved prototype must keep the external home untouched and
  // substitute the producer's committed placement for a.
  const std::int64_t n = 8;
  fm::Pipeline pipe;
  const auto scan = std::make_shared<const FunctionSpec>(
      algos::scan_pass_spec(n));
  const auto comb = std::make_shared<const FunctionSpec>(
      algos::combine_spec(n));
  const std::size_t head = pipe.add_stage(
      {"scan", scan, {StageInput::external(InputHome::dram())}});
  pipe.add_stage({"combine", comb,
                  {StageInput::from(head),
                   StageInput::external(InputHome::at({1, 0}))}});

  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(r.found);

  const Mapping proto =
      stage_input_proto(pipe, 1, opts.strategy, r);
  const auto ins = comb->input_tensors();
  ASSERT_EQ(ins.size(), 2u);
  // a: distributed over the scan winner's placement.
  const InputHome& ha = proto.input_home(ins[0]);
  ASSERT_EQ(ha.kind, InputHome::Kind::kDistributed);
  const AffineMap& winner = r.stages[0].affine;
  for (std::int64_t i = 0; i < n; ++i) {
    const Point p{i};
    EXPECT_EQ(ha.home_of(p), winner.place(p)) << "element " << i;
  }
  // b: the external PE home, untouched.
  const InputHome& hb = proto.input_home(ins[1]);
  ASSERT_EQ(hb.kind, InputHome::Kind::kPe);
  EXPECT_EQ(hb.pe, (noc::Coord{1, 0}));

  // And the committed stage cost is exactly the oracle's price for the
  // winner under that prototype — the handoff really is charged.
  Mapping full = proto;
  const TensorId target = comb->computed_tensors().front();
  const AffineMap& jm = r.stages[1].affine;
  full.set_computed(target, jm.place_fn(), jm.time_fn());
  const CostReport direct = reference::evaluate_cost(*comb, full, machine);
  EXPECT_EQ(r.stages[1].cost.makespan_cycles, direct.makespan_cycles);
  EXPECT_DOUBLE_EQ(r.stages[1].cost.total_energy().femtojoules(),
                   direct.total_energy().femtojoules());
}

TEST(Pipeline, PairedNeverLosesToGreedyOnTheCannedChains) {
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  opts.pair_candidates = 4;
  for (const auto& [name, pipe] :
       {std::pair<const char*, Pipeline>{
            "fft", algos::fft_shuffle_fft_pipeline(16)},
        {"scan", algos::scan_filter_scan_pipeline(16)},
        {"diamond", algos::diamond_pipeline(8)}}) {
    const PipelineResult g = tune_pipeline_greedy(pipe, machine, opts);
    const PipelineResult p = tune_pipeline_paired(pipe, machine, opts);
    ASSERT_TRUE(g.found) << name;
    ASSERT_TRUE(p.found) << name;
    // Probe scoring ties break toward the greedy pick, so paired can
    // only match or improve the chain merit.
    EXPECT_LE(p.merit, g.merit * (1.0 + 1e-9)) << name;
  }
}

TEST(Pipeline, CancelCutsTuningAndReportsIncomplete) {
  const Pipeline pipe = algos::scan_filter_scan_pipeline(16);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  opts.cancel = [] { return true; };  // cut before anything runs
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.completed);
}

TEST(Pipeline, CancelMarksTheTuneCutOnlyWhenWorkWasCut) {
  // Greedy anneal over a two-stage chain.  A hook that first returns
  // true on its k-th poll, for every k up to past the end of a full
  // run: the pipeline reports completed exactly when every stage
  // committed a search that ran its whole budget — a poll after the
  // last unit of work must not mark a finished tune as cut.
  const Pipeline pipe = algos::irregular_chain_pipeline(24, 3, 7);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.strategy = StrategyKind::kAnneal;
  opts.strategy_opts.chains = 2;
  opts.strategy_opts.epochs = 6;
  opts.strategy_opts.iters_per_epoch = 32;
  const PipelineResult full = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(full.found);
  ASSERT_TRUE(full.completed);

  int polls = 0;
  opts.cancel = [&polls] {
    ++polls;
    return false;
  };
  (void)tune_pipeline_greedy(pipe, machine, opts);
  const int full_polls = polls;
  ASSERT_GT(full_polls, 0);

  for (int k = 1; k <= full_polls + 4; ++k) {
    SCOPED_TRACE("cancel from poll " + std::to_string(k));
    polls = 0;
    opts.cancel = [&polls, k] { return ++polls >= k; };
    const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
    const bool every_stage_ran_its_budget =
        std::all_of(r.stages.begin(), r.stages.end(),
                    [](const StageResult& st) {
                      return st.found && st.strategy.completed;
                    });
    EXPECT_EQ(r.completed, every_stage_ran_its_budget);
    if (every_stage_ran_its_budget) {
      EXPECT_DOUBLE_EQ(r.merit, full.merit);
    }
  }
}

TEST(Pipeline, ImmediateCancelStillAnswersTheAnnealSeed) {
  // One anneal stage under a hook that is always true: no poll comes
  // before the stage search, so the searcher's own cut answer — its
  // legal serial seed — is the stage winner, like a plain search_table.
  const auto spec = std::make_shared<const FunctionSpec>(
      algos::irregular_dag_spec(24, 3, 7));
  const MachineConfig machine = make_machine(4, 1);
  Pipeline pipe;
  pipe.add_stage({"dag", spec, {StageInput::external(InputHome::dram())}});
  PipelineOptions opts;
  opts.strategy = StrategyKind::kAnneal;
  opts.cancel = [] { return true; };
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.completed);

  Mapping proto;
  proto.set_input(spec->input_tensors().front(), InputHome::dram());
  StrategyOptions so = opts.strategy_opts;
  so.fom = opts.fom;
  so.cancel = opts.cancel;
  const StrategyResult plain =
      search_table(*spec, machine, proto, StrategyKind::kAnneal, so);
  ASSERT_TRUE(plain.found);
  const StageResult& st = r.stages.front();
  EXPECT_FALSE(st.strategy.completed);
  EXPECT_EQ(st.strategy.epochs_run, 0);
  EXPECT_EQ(st.table.pe, plain.best.pe);
  EXPECT_EQ(st.table.cycle, plain.best.cycle);
  EXPECT_DOUBLE_EQ(st.merit, plain.merit);
}

TEST(Pipeline, StrategyStagesTuneTheIrregularChain) {
  const Pipeline pipe = algos::irregular_chain_pipeline(24, 3, 0xdadULL);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.strategy = StrategyKind::kAnneal;
  opts.strategy_opts.chains = 2;
  opts.strategy_opts.epochs = 6;
  opts.strategy_opts.iters_per_epoch = 48;
  opts.pair_candidates = 2;
  const PipelineResult g = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(g.found);
  ASSERT_EQ(g.stages.size(), 2u);
  for (const StageResult& st : g.stages) {
    EXPECT_GT(st.table.num_ops(), 0) << st.name;
    EXPECT_TRUE(st.strategy.found) << st.name;
  }
  // The tail stage's prototype resolves the head's per-element table
  // placement.
  const Mapping proto = stage_input_proto(pipe, 1, opts.strategy, g);
  const auto ins = pipe.stage(1).spec->input_tensors();
  const InputHome& h = proto.input_home(ins[0]);
  ASSERT_EQ(h.kind, InputHome::Kind::kDistributed);
  const TableMap& head = g.stages[0].table;
  for (std::int64_t lin = 0; lin < head.num_ops(); ++lin) {
    EXPECT_EQ(h.home_of(head.domain.delinearize(lin)), head.coord_of(lin));
  }

  const PipelineResult p = tune_pipeline_paired(pipe, machine, opts);
  ASSERT_TRUE(p.found);
  EXPECT_GT(p.probe_searches, 0u);
}

/// One random vector per external binding, in (stage, input ordinal)
/// order — the layout execute_pipeline takes.  Values straddle zero so
/// the scan chain's filter actually gates.
std::vector<std::vector<double>> external_data(const Pipeline& pipe,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> out;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    const PipelineStage& st = pipe.stage(s);
    const std::vector<TensorId> ins = st.spec->input_tensors();
    for (std::size_t o = 0; o < ins.size(); ++o) {
      if (st.inputs[o].kind != StageInput::Kind::kExternal) continue;
      std::vector<double> v(
          static_cast<std::size_t>(st.spec->domain(ins[o]).size()));
      for (double& x : v) x = rng.next_double(-1.0, 1.0);
      out.push_back(std::move(v));
    }
  }
  return out;
}

/// The executed ledger against the priced cost, field for field and
/// exactly: the machine and the compiled evaluator share one timing and
/// movement contract.
void expect_ledger_equals_cost(const ExecutionResult& run,
                               const CostReport& cost,
                               const std::string& where) {
  EXPECT_EQ(run.makespan_cycles, cost.makespan_cycles) << where;
  EXPECT_EQ(run.compute_energy.femtojoules(),
            cost.compute_energy.femtojoules()) << where;
  EXPECT_EQ(run.onchip_movement_energy.femtojoules(),
            cost.onchip_movement_energy.femtojoules()) << where;
  EXPECT_EQ(run.local_access_energy.femtojoules(),
            cost.local_access_energy.femtojoules()) << where;
  EXPECT_EQ(run.dram_energy.femtojoules(), cost.dram_energy.femtojoules())
      << where;
  EXPECT_EQ(run.messages, cost.messages) << where;
  EXPECT_EQ(run.bit_hops, cost.bit_hops) << where;
}

/// Tunes `pipe` greedy and paired under `opts`, executes both, pins every
/// stage ledger to its priced cost, and returns the paired run's final
/// stage output after checking the greedy run computed the same values.
std::vector<double> execute_both_tuners(const Pipeline& pipe,
                                        const MachineConfig& machine,
                                        const PipelineOptions& opts,
                                        const std::string& name) {
  const std::vector<std::vector<double>> ext = external_data(pipe, 7);
  std::vector<std::vector<double>> finals;
  for (const bool paired : {false, true}) {
    const std::string where = name + (paired ? " paired" : " greedy");
    const PipelineResult r = paired
                                 ? tune_pipeline_paired(pipe, machine, opts)
                                 : tune_pipeline_greedy(pipe, machine, opts);
    EXPECT_TRUE(r.found) << where;
    if (!r.found) return {};
    const std::vector<ExecutionResult> runs =
        execute_pipeline(pipe, machine, opts.strategy, r, ext);
    EXPECT_EQ(runs.size(), pipe.size()) << where;
    for (std::size_t s = 0; s < runs.size(); ++s) {
      expect_ledger_equals_cost(runs[s], r.stages[s].cost,
                                where + " stage " + r.stages[s].name);
    }
    finals.push_back(runs.back().outputs.front());
  }
  EXPECT_EQ(finals[0], finals[1]) << name;
  return finals[1];
}

TEST(PipelineExecute, LedgersMatchCostAndOutputsMatchTheHostReference) {
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  opts.pair_candidates = 3;
  const std::int64_t n = 16;

  // scan -> filter -> scan.
  {
    const Pipeline pipe = algos::scan_filter_scan_pipeline(n);
    const std::vector<double> x = external_data(pipe, 7).front();
    std::vector<double> want(x.size());
    double scan = 0.0, rescan = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      scan = x[i] + scan;
      rescan = std::max(scan, 0.0) + rescan;
      want[i] = rescan;
    }
    EXPECT_EQ(execute_both_tuners(pipe, machine, opts, "scan"), want);
  }
  // butterfly (stride n/2) -> bit-reverse shuffle -> butterfly (stride 1).
  {
    const Pipeline pipe = algos::fft_shuffle_fft_pipeline(n);
    const std::vector<double> x = external_data(pipe, 7).front();
    const auto butterfly = [](const std::vector<double>& v,
                              std::int64_t stride) {
      std::vector<double> y(v.size());
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(v.size());
           ++i) {
        const double self = v[static_cast<std::size_t>(i)];
        const double partner = v[static_cast<std::size_t>(i ^ stride)];
        y[static_cast<std::size_t>(i)] =
            (i & stride) == 0 ? self + partner : partner - self;
      }
      return y;
    };
    const std::vector<double> hi = butterfly(x, n / 2);
    std::vector<double> shuffled(hi.size());
    for (std::int64_t i = 0; i < n; ++i) {
      shuffled[static_cast<std::size_t>(i)] =
          hi[static_cast<std::size_t>(algos::bit_reverse(i, 4))];
    }
    EXPECT_EQ(execute_both_tuners(pipe, machine, opts, "fft"),
              butterfly(shuffled, 1));
  }
  // The diamond's join and the irregular chain: ledgers and greedy ==
  // paired outputs (no closed-form reference needed for those).
  EXPECT_FALSE(execute_both_tuners(algos::diamond_pipeline(8), machine, opts,
                                   "diamond")
                   .empty());
  EXPECT_FALSE(execute_both_tuners(algos::irregular_chain_pipeline(24, 3,
                                                                   0xdadULL),
                                   machine, opts, "irregular")
                   .empty());
}

TEST(PipelineExecute, AnnealedIrregularChainLedgersMatchCost) {
  const Pipeline pipe = algos::irregular_chain_pipeline(24, 3, 0xdadULL);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.strategy = StrategyKind::kAnneal;
  opts.strategy_opts.chains = 2;
  opts.strategy_opts.epochs = 6;
  opts.strategy_opts.iters_per_epoch = 48;
  opts.pair_candidates = 2;
  EXPECT_FALSE(
      execute_both_tuners(pipe, machine, opts, "irregular anneal").empty());
}

TEST(PipelineExecute, RejectsUntunedResultsAndWrongInputCounts) {
  const Pipeline pipe = algos::scan_filter_scan_pipeline(8);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  const std::vector<std::vector<double>> ext = external_data(pipe, 1);
  EXPECT_THROW((void)execute_pipeline(pipe, machine, opts.strategy,
                                      PipelineResult{}, ext),
               InvalidArgument);
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(r.found);
  EXPECT_THROW((void)execute_pipeline(pipe, machine, opts.strategy, r, {}),
               InvalidArgument);
  EXPECT_THROW((void)execute_pipeline(pipe, machine, opts.strategy, r,
                                      {ext[0], ext[0]}),
               InvalidArgument);
}

}  // namespace
}  // namespace harmony::fm
