// fm::Pipeline — multi-kernel DAG composition with layout-aware handoff.
//
// The paper's central tension (architecture-friendly algorithms vs.
// algorithm-friendly architectures) is sharpest *between* kernels: where
// one kernel's output lives determines the next kernel's cheapest
// mapping, so tuning stages in isolation leaves the inter-stage
// data-movement cost on the table.  A Pipeline is a DAG of
// single-computed-tensor FunctionSpecs with typed producer→consumer
// value edges; a producer stage's chosen mapping *fixes the input homes*
// of its consumers (InputHome::distributed over the winner's place
// function), and the existing compile-time home resolution
// (fm/compiled.hpp) then prices every cross-stage dependence edge
// through the P×P route/energy tables — the handoff cost model is the
// single-spec cost model, fed the truth about where values actually
// live, instead of an assumed free handoff.
//
// Two tuners share that model:
//   * tune_pipeline_greedy — topological stage-by-stage: each stage
//     searches with its producers' committed winners fixed, commits its
//     own local best.  The baseline, and the cheapest.
//   * tune_pipeline_paired — co-optimizing: each stage keeps its
//     pair_candidates best mappings and scores every candidate by its
//     own merit *plus* probe searches of the immediate consumers with
//     that candidate's output layout substituted, committing the
//     candidate with the best pair score.  Catches the cases where the
//     producer's locally-best layout is the consumer's worst.
//
// Both reuse search_affine / search_table per stage (EvalContextPool per
// lane under a scheduler) and plumb deadline-cut and cancel through
// exactly like single-spec tunes: a cut pipeline returns best-so-far
// with completed == false.  bench_e24_pipeline measures the greedy vs.
// co-optimized gap over three scenarios; DESIGN.md §16 documents the
// model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fm/cost.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/search.hpp"
#include "fm/spec.hpp"
#include "fm/strategy/strategy.hpp"

namespace harmony::fm {

/// Where one stage input comes from: an external home (DRAM, a PE, or a
/// caller-supplied distribution) or the output of an earlier stage.
struct StageInput {
  enum class Kind : std::uint8_t { kExternal, kProducer };
  Kind kind = Kind::kExternal;
  InputHome home;             ///< kExternal
  std::size_t producer = 0;   ///< kProducer: index of an *earlier* stage

  [[nodiscard]] static StageInput external(InputHome h) {
    StageInput b;
    b.kind = Kind::kExternal;
    b.home = std::move(h);
    return b;
  }
  [[nodiscard]] static StageInput from(std::size_t stage) {
    StageInput b;
    b.kind = Kind::kProducer;
    b.producer = stage;
    return b;
  }
};

/// One pipeline stage: a single-computed-tensor spec plus one binding
/// per input tensor, in spec.input_tensors() order.
struct PipelineStage {
  std::string name;
  std::shared_ptr<const FunctionSpec> spec;
  std::vector<StageInput> inputs;
};

/// A DAG of stages.  Acyclicity holds by construction: add_stage()
/// requires every producer index to reference an earlier stage, so
/// stage order *is* a topological order.
class Pipeline {
 public:
  /// Validates and appends a stage; returns its index.  Throws
  /// InvalidArgument on: null spec, more than one computed tensor,
  /// binding count != input tensor count, a producer index that is not
  /// an earlier stage, or a producer target domain whose extents do not
  /// match the consumer input tensor's domain.
  std::size_t add_stage(PipelineStage s);

  [[nodiscard]] std::size_t size() const { return stages_.size(); }
  [[nodiscard]] bool empty() const { return stages_.empty(); }
  [[nodiscard]] const PipelineStage& stage(std::size_t i) const {
    return stages_[i];
  }

  /// A consumer edge: stage `stage` reads producer output as its input
  /// ordinal `input_ord`.
  struct Consumer {
    std::size_t stage = 0;
    std::size_t input_ord = 0;
  };
  /// Consumer edges of stage `p`, in (stage, ordinal) order.
  [[nodiscard]] std::vector<Consumer> consumers_of(std::size_t p) const;

 private:
  std::vector<PipelineStage> stages_;
};

struct PipelineOptions {
  /// Pipeline-level figure of merit: stage searches rank by it, and the
  /// co-tuner's pair scores sum it across stages.
  FigureOfMerit fom = FigureOfMerit::kEnergyDelay;
  /// Per-stage searcher: kExhaustive runs search_affine over `search`;
  /// kAnneal / kBeam run search_table over `strategy_opts`.
  StrategyKind strategy = StrategyKind::kExhaustive;
  /// Template for every stage's exhaustive search.  fom, cancel,
  /// scheduler, num_workers, and compiled are overridden per stage from
  /// the fields here; everything else passes through unchanged, so a
  /// single-stage pipeline reproduces a plain search_affine bit for bit.
  SearchOptions search;
  /// Template for kAnneal / kBeam stages (same override rule).
  StrategyOptions strategy_opts;
  /// Candidates per stage the co-tuner probes consumers with; 1 makes
  /// tune_pipeline_paired degenerate to greedy.
  std::size_t pair_candidates = 4;
  /// Pipeline-level cooperative cancellation: passed into every stage
  /// search and polled between units of work — between stages, between
  /// anneal/beam restarts and between co-tuner probes, never after the
  /// last one (deadline cut — same contract as SearchOptions::cancel).
  /// A cut pipeline returns best-so-far with completed == false.
  std::function<bool()> cancel;
  sched::Scheduler* scheduler = nullptr;
  unsigned num_workers = 0;
  /// Compile hook for the serving layer's per-stage compile cache:
  /// called with the stage index, the resolved input-home prototype,
  /// and a fingerprint identifying those homes (producer winners mix in
  /// their committed mapping).  Null compiles directly.
  std::function<std::shared_ptr<const CompiledSpec>(
      std::size_t stage, const Mapping& proto, std::uint64_t fingerprint)>
      compile;
};

/// One stage's committed outcome.  Exactly one of the affine / table
/// forms is meaningful, matching PipelineOptions::strategy.
struct StageResult {
  std::string name;
  bool found = false;
  AffineMap affine;        ///< strategy == kExhaustive
  TableMap table;          ///< strategy == kAnneal / kBeam
  /// Stage cost with the resolved input homes — inter-stage transit is
  /// priced here, through the compiled P×P tables.
  CostReport cost;
  double merit = 0.0;
  /// Full searcher detail for this stage's committing run.
  SearchResult search;      ///< kExhaustive
  StrategyResult strategy;  ///< kAnneal / kBeam
  /// Fingerprint of the resolved input homes this stage compiled with.
  std::uint64_t home_fingerprint = 0;
  /// Pipeline-level schedule: start = max over producers' finish (0 for
  /// source stages), finish = start + stage makespan.  Stage schedules
  /// are normalized to begin when their inputs are available, so the
  /// critical path through these is the pipeline makespan.
  Cycle start_cycle = 0;
  Cycle finish_cycle = 0;
};

struct PipelineResult {
  /// True when every stage committed a legal mapping.
  bool found = false;
  /// False when cancel cut tuning short (some stages may be missing or
  /// sub-exhaustive).
  bool completed = true;
  std::vector<StageResult> stages;
  /// Energies / messages / hops / ops summed over stages; makespan is
  /// the DAG critical path.
  CostReport total;
  double merit = 0.0;
  /// Extra consumer probe searches the co-tuner ran (0 for greedy).
  std::uint64_t probe_searches = 0;
};

/// Greedy stage-by-stage baseline: topological order, each stage tuned
/// with its producers' committed output layouts fixed as input homes,
/// local best committed.
[[nodiscard]] PipelineResult tune_pipeline_greedy(
    const Pipeline& pipe, const MachineConfig& machine,
    const PipelineOptions& opts = {});

/// Co-optimizing tuner: per stage, the pair_candidates best mappings
/// are each scored by own merit + probe searches of the immediate
/// consumers (adjacent stage pairs searched jointly); the best pair
/// score commits.  Falls back to the greedy choice when a stage has no
/// consumers or only one candidate.
[[nodiscard]] PipelineResult tune_pipeline_paired(
    const Pipeline& pipe, const MachineConfig& machine,
    const PipelineOptions& opts = {});

/// The resolved input-home prototype of stage `s` under `result`'s
/// committed winners: external bindings keep their homes, producer
/// bindings become distributed homes over the producer's winning place
/// function.  This is what certification needs — compile_spec on it and
/// replay the stage winner through analyze::build_exec_witness /
/// ExecChecker (serve and harmony-lint do exactly that).
[[nodiscard]] Mapping stage_input_proto(const Pipeline& pipe, std::size_t s,
                                        StrategyKind strategy,
                                        const PipelineResult& result);

/// The input-home prototype of a stage whose inputs are all external
/// (InvalidArgument otherwise), and in `*home_fp` (when non-null) the
/// home fingerprint PipelineOptions::compile receives for it — so a
/// one-off query on the stage shares a compile key with a tune of it.
[[nodiscard]] Mapping external_input_proto(const PipelineStage& stage,
                                           std::uint64_t* home_fp);

/// The full Mapping of stage `s`'s committed winner: stage_input_proto
/// plus the affine winner on the stage target, or to_mapping of the
/// table winner (a TableMap carries its own per-value input homes, which
/// the tuner seeded from those same resolved homes).  What the linter,
/// the execution checker and the GridMachine replay.  Throws
/// InvalidArgument when stage `s` has no committed mapping.
[[nodiscard]] Mapping stage_mapping(const Pipeline& pipe, std::size_t s,
                                    StrategyKind strategy,
                                    const PipelineResult& result);

/// Pipeline's executed value oracle: runs every committed stage of
/// `result` on the GridMachine, in stage (= topological) order, on real
/// values.  Stage s runs under stage_mapping(pipe, s, ...).  Its input
/// vectors are `external_inputs` for kExternal bindings — one vector per
/// such binding, in (stage, input ordinal) order — and the producer's
/// executed output for kProducer bindings.  Returns one ExecutionResult
/// per stage; outputs[0] holds the stage target's values.  The machine
/// and the cost model share one timing and movement contract, so each
/// stage's ledger equals its StageResult::cost.  Throws InvalidArgument
/// when a stage has no committed mapping, a stage target is not its
/// spec's only output, or the external input count is wrong;
/// SimulationError when a stage mapping cannot execute.
[[nodiscard]] std::vector<ExecutionResult> execute_pipeline(
    const Pipeline& pipe, const MachineConfig& machine, StrategyKind strategy,
    const PipelineResult& result,
    const std::vector<std::vector<double>>& external_inputs);

}  // namespace harmony::fm
