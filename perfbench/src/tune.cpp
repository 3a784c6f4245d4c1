// tune_affine and tune_stochastic: one client in a closed loop calling
// serve::Service::call on an in-process service with two workers.
//
// Untraced runs time the calls only.  After the timed window every
// reply goes through the output gate.  Traced runs also replay each
// request's layers through their public entry points (compile_spec,
// search_affine on two lanes and serially, the slot decoder, verify_ok,
// evaluate_cost, lint_mapping, the execution checker, search_table,
// tune_pipeline_paired), each inside a span, and report per-layer self
// times plus the residual: call latency minus the layers on its path.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "algos/pipelines.hpp"
#include "analyze/exec.hpp"
#include "analyze/lint.hpp"
#include "bench.hpp"
#include "fm/compiled.hpp"
#include "fm/enum_plan.hpp"
#include "fm/pipeline.hpp"
#include "fm/search.hpp"
#include "fm/strategy/delta.hpp"
#include "fm/strategy/strategy.hpp"
#include "sched/scheduler.hpp"
#include "serve/catalog.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace fm = harmony::fm;
namespace serve = harmony::serve;
namespace analyze = harmony::analyze;

namespace {

/// Service workers (the dispatcher is one of them).  Two, not four,
/// leave vCPUs of a 4-vCPU host free, so the system can run the search
/// lanes where no other virtual machine's work is: one busy thread from
/// outside the program cut tunes_per_s by 26% with four workers, 10%
/// with three and nothing measurable with two.
constexpr unsigned kWorkers = 2;
/// Result-cache entries.  No result repeats in these streams, so the
/// cache only ever misses; a small one fills within the first second,
/// which keeps peak RSS from tracking how many tunes a run completes.
constexpr std::size_t kResultCache = 256;
/// Threads the deferred gate checks on, after the timed window.
constexpr unsigned kGateThreads = 4;
/// Traced runs replay requests for at most this many times --seconds
/// (the gate itself always covers every reply).
constexpr double kReplayBudget = 1.0;
/// tune_affine's heavy class: tunes whose space holds at least this
/// many legal candidates (the evaluate path of the search).
constexpr std::uint64_t kLegalRich = 100;
/// Candidates per request the inner-loop replay scores.
constexpr std::uint64_t kInnerSample = 512;

fm::StrategyOptions strategy_budget(std::uint64_t seed) {
  fm::StrategyOptions o;
  o.seed = seed;
  o.chains = 4;  // two per service worker
  o.epochs = 24;
  o.iters_per_epoch = 128;
  o.beam_width = 6;
  o.beam_moves = 16;
  return o;
}

std::shared_ptr<const fm::Pipeline> make_pipeline(const TuneItem& t) {
  namespace algos = harmony::algos;
  switch (t.pipeline) {
    case 0:
      return std::make_shared<const fm::Pipeline>(
          algos::fft_shuffle_fft_pipeline(t.n));
    case 1:
      return std::make_shared<const fm::Pipeline>(
          algos::scan_filter_scan_pipeline(t.n));
    case 2:
      return std::make_shared<const fm::Pipeline>(
          algos::irregular_chain_pipeline(t.n, 3, t.strategy_seed));
    default:
      return std::make_shared<const fm::Pipeline>(
          algos::diamond_pipeline(t.n));
  }
}

serve::Request build_request(const TuneItem& t, serve::SpecCatalog& cat) {
  serve::Request r;
  r.kind = serve::RequestKind::kTune;
  r.machine = fm::make_machine(t.cols, t.rows);
  r.machine.pe_capacity_values = t.pe_capacity;
  r.fom = static_cast<fm::FigureOfMerit>(t.fom);
  switch (t.kind) {
    case TuneItem::Kind::kPipeline:
      r.kind = serve::RequestKind::kPipelineTune;
      r.pipeline = make_pipeline(t);
      r.pipeline_paired = true;
      r.pipeline_pair_candidates = static_cast<std::size_t>(t.pair_candidates);
      r.search.quick_sample = static_cast<std::size_t>(t.quick_sample);
      if (t.pipeline == 2) {
        // The irregular chain tunes its stages in the table space.
        r.strategy = fm::StrategyKind::kAnneal;
        r.strategy_opts.seed = t.strategy_seed;
        r.strategy_opts.chains = 2;
        r.strategy_opts.epochs = 8;
        r.strategy_opts.iters_per_epoch = 64;
      }
      return r;
    case TuneItem::Kind::kAnneal:
    case TuneItem::Kind::kBeam:
      r.strategy = t.kind == TuneItem::Kind::kAnneal ? fm::StrategyKind::kAnneal
                                                     : fm::StrategyKind::kBeam;
      r.strategy_opts = strategy_budget(t.strategy_seed);
      break;
    case TuneItem::Kind::kAffine:
      break;
  }
  r.spec = cat.spec(t.spec);
  for (const int h : t.inputs) {
    r.inputs.push_back(h < 0 ? serve::InputPlacement::dram()
                             : serve::InputPlacement::at(
                                   {h % t.cols, h / t.cols}));
  }
  return r;
}

/// One answered request of the timed window: its timing and the reply
/// fields the shares and the deferred gate read.  The descriptor is not
/// kept (the gate regenerates the stream from the seed), so the
/// benchmark's own memory barely grows with how many tunes a run
/// completes.
struct Done {
  TuneItem::Kind kind = TuneItem::Kind::kAffine;
  double ms = 0.0;
  bool ok = false;
  bool traced = false;
  std::uint64_t compile_hits = 0;    ///< service compile-cache hits in the call
  std::uint64_t compile_misses = 0;  ///< and misses
  bool found = false;                ///< a legal winner
  double merit = 0.0;                ///< exhaustive tunes: the winner
  std::uint64_t slot = 0;
  std::uint64_t enumerated = 0, quick_rejected = 0, verify_rejected = 0,
                legal = 0;
  bool exec_clean = false;           ///< execution check ran and passed
  bool legal_rich = false;           ///< kLegalRich or more legal candidates
};

/// Counters the replays add up (the spans carry the times).
struct ReplayTotals {
  std::uint64_t steals = 0;
  std::uint64_t parallel_searches = 0;
  std::uint64_t enumerated = 0;  ///< by the replayed parallel searches
  std::uint64_t decoded = 0;
  std::uint64_t verified = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t moves_tried = 0;
  std::uint64_t moves_accepted = 0;
  std::uint64_t moves_illegal = 0;
  std::uint64_t probe_searches = 0;
  std::uint64_t pipelines = 0;
  std::uint64_t sink = 0;  ///< keeps replayed results observable
};

/// The output gate and the traced layer replays.  Anneal/beam and
/// pipeline replies are re-scored as soon as they arrive (cheap, and it
/// saves keeping their winners); exhaustive tunes are checked after the
/// timed window against a serial search.
class Checker {
 public:
  Checker(RunResult& result, SpanRecorder* rec, harmony::sched::Scheduler* sched,
          ReplayTotals& totals)
      : r_(result), rec_(rec), sched_(sched), t_(totals) {}

  /// Re-scores an anneal/beam or pipeline reply (no-op for exhaustive).
  void gate_reply(const TuneItem& item, const serve::Request& req,
                  const serve::Response& resp) {
    if (item.kind == TuneItem::Kind::kPipeline) {
      gate_pipeline(item, req, resp);
    } else if (item.kind != TuneItem::Kind::kAffine) {
      gate_table(item, req, resp);
    }
  }

  /// Gates an exhaustive tune against a serial search; with `replay`,
  /// also times the request's layers (any kind).
  void check(const TuneItem& item, const Done& d, std::uint64_t rid,
             bool replay) {
    if (item.kind != TuneItem::Kind::kAffine && !replay) return;
    SpanRecorder* rec = replay ? rec_ : nullptr;
    const serve::Request req = build_request(item, catalog_);
    Span root(rec, "replay", rid);
    switch (item.kind) {
      case TuneItem::Kind::kAffine:
        affine(item, d, req, rec, rid, root.id());
        break;
      case TuneItem::Kind::kAnneal:
      case TuneItem::Kind::kBeam:
        table(item, req, rid, root.id());
        break;
      case TuneItem::Kind::kPipeline:
        pipeline(item, req, rid, root.id());
        break;
    }
  }

 private:
  void affine(const TuneItem& item, const Done& d, const serve::Request& req,
              SpanRecorder* rec, std::uint64_t rid, std::uint32_t parent) {
    const fm::FunctionSpec& spec = *req.spec;
    const fm::Mapping proto = input_proto(req);
    std::shared_ptr<const fm::CompiledSpec> cs;
    {
      Span s(rec, "fm.compile_spec", rid, parent);
      cs = fm::compile_spec(spec, req.machine, proto);
    }
    fm::SearchOptions opts = req.search;
    opts.fom = req.fom;
    opts.compiled = cs;
    if (rec != nullptr) {
      fm::SearchOptions par = opts;
      par.scheduler = sched_;
      par.num_workers = kWorkers;
      const std::uint64_t steals = sched_->steal_count();
      fm::SearchResult pr;
      {
        Span s(rec, "fm.search_affine", rid, parent);
        pr = fm::search_affine(spec, req.machine, proto, par);
      }
      t_.steals += sched_->steal_count() - steals;
      ++t_.parallel_searches;
      t_.enumerated += pr.enumerated;
    }
    // The gate: a serial search on the same triple is the path the
    // service's parallel search did not take.
    fm::SearchResult serial;
    {
      Span s(rec, "fm.search_affine_serial", rid, parent);
      serial = fm::search_affine(spec, req.machine, proto, opts);
    }
    if (serial.found != d.found ||
        (serial.found && (serial.best.merit != d.merit || serial.best.slot != d.slot)) ||
        serial.enumerated != d.enumerated || serial.legal != d.legal) {
      mismatch(r_, "tune " + item.str() + ": winner differs from serial search");
    }
    if (!d.exec_clean) {
      mismatch(r_, "tune " + item.str() + ": execution check not clean");
    }
    if (rec == nullptr) return;

    // Inner loop, outside in: decode every slot, then score a strided
    // sample of the decoded candidates through each gate.
    const fm::IndexDomain& dom = spec.domain(cs->target);
    const double bound =
        static_cast<double>(dom.size()) * opts.makespan_slack + 1.0;
    const fm::EnumPlan plan =
        fm::build_enum_plan(dom, req.machine, opts.space, bound);
    fm::AffineSoA soa;
    {
      Span s(rec, "fm.decode_slots", rid, parent);
      for (std::uint64_t base = 0; base < plan.total; base += 256) {
        const auto n =
            static_cast<std::size_t>(std::min<std::uint64_t>(256, plan.total - base));
        fm::decode_slots(plan, base, n, soa);
        t_.sink += static_cast<std::uint64_t>(soa.ti[n - 1]);
      }
    }
    t_.decoded += plan.total;
    std::vector<fm::AffineMap> sample;
    const std::uint64_t stride = std::max<std::uint64_t>(1, plan.total / kInnerSample);
    for (std::uint64_t slot = 0; slot < plan.total; slot += stride) {
      fm::decode_slots(plan, slot, 1, soa);
      sample.push_back(soa.map_at(0, cs->cols, cs->rows));
    }
    fm::EvalContext ctx(*cs);
    ctx.reserve_scratch(*cs);
    {
      Span s(rec, "fm.verify_ok", rid, parent);
      for (const fm::AffineMap& m : sample) {
        t_.sink += fm::verify_ok(*cs, m, ctx, opts.verify) ? 1 : 0;
      }
    }
    {
      Span s(rec, "fm.evaluate_cost", rid, parent);
      for (const fm::AffineMap& m : sample) {
        t_.sink += fm::evaluate_cost(*cs, m, ctx).messages;
      }
    }
    t_.verified += sample.size();
    t_.evaluated += sample.size();
    if (!serial.found) return;
    {
      Span s(rec, "analyze.lint_mapping", rid, parent);
      t_.sink += analyze::lint_mapping(spec, full_mapping(req, serial.best.map),
                                       req.machine)
                     .diagnostics.size();
    }
    exec_check(item, rid, parent,
               [&] { return analyze::build_exec_witness(*cs, serial.best.map); });
  }

  // The gate for anneal/beam: re-score the winner through the compiled
  // verifier and evaluator, which the searcher's delta evaluator did
  // not use.
  void gate_table(const TuneItem& item, const serve::Request& req,
                  const serve::Response& resp) {
    const auto cs = fm::compile_spec(*req.spec, req.machine, input_proto(req));
    const fm::StrategyResult& got = resp.strategy;
    fm::EvalContext ctx(*cs);
    if (!got.found || !fm::verify(*cs, got.best, ctx, req.strategy_opts.verify).ok ||
        !same_cost(fm::evaluate_cost(*cs, got.best, ctx), got.cost) ||
        !resp.exec.empty() || !resp.exec_checked) {
      mismatch(r_, "tune " + item.str() + ": winner fails re-scoring");
    }
  }

  // The gate for pipelines: each committed stage, compiled afresh on its
  // resolved input homes, must be legal and cost what the reply says.
  void gate_pipeline(const TuneItem& item, const serve::Request& req,
                     const serve::Response& resp) {
    const fm::Pipeline& pipe = *req.pipeline;
    const fm::PipelineResult& got = resp.pipeline;
    if (!got.found || got.stages.size() != pipe.size() || !resp.exec.empty()) {
      mismatch(r_, "pipeline " + item.str() + ": not found or not clean");
      return;
    }
    const bool affine = req.strategy == fm::StrategyKind::kExhaustive;
    for (std::size_t s = 0; s < pipe.size(); ++s) {
      const fm::StageResult& st = got.stages[s];
      const auto cs = fm::compile_spec(*pipe.stage(s).spec, req.machine,
                                       fm::stage_input_proto(pipe, s, req.strategy, got));
      fm::EvalContext ctx(*cs);
      const bool ok =
          st.found &&
          (affine ? fm::verify(*cs, st.affine, ctx).ok &&
                        same_cost(fm::evaluate_cost(*cs, st.affine, ctx), st.cost)
                  : fm::verify(*cs, st.table, ctx, req.strategy_opts.verify).ok &&
                        same_cost(fm::evaluate_cost(*cs, st.table, ctx), st.cost));
      if (!ok) {
        mismatch(r_, "pipeline " + item.str() + ": stage " + st.name +
                         " fails re-scoring");
      }
    }
  }

  // Replays of the stochastic kinds re-run the search (deterministic for
  // a fixed seed whatever the worker count) and lint and check its
  // winner, as the service does.
  void table(const TuneItem& item, const serve::Request& req, std::uint64_t rid,
             std::uint32_t parent) {
    const fm::FunctionSpec& spec = *req.spec;
    const fm::Mapping proto = input_proto(req);
    std::shared_ptr<const fm::CompiledSpec> cs;
    {
      Span s(rec_, "fm.compile_spec", rid, parent);
      cs = fm::compile_spec(spec, req.machine, proto);
    }
    {
      Span s(rec_, "fm.build_strategy_spec", rid, parent);
      t_.sink += fm::build_strategy_spec(cs, req.strategy_opts.makespan_slack)
                     ->consumers.size();
    }
    fm::StrategyOptions o = req.strategy_opts;
    o.fom = req.fom;
    o.compiled = cs;
    o.scheduler = sched_;
    o.num_workers = kWorkers;
    fm::StrategyResult res;
    {
      Span s(rec_, "fm.search_table", rid, parent);
      res = fm::search_table(spec, req.machine, proto, req.strategy, o);
    }
    t_.moves_tried += res.moves_tried;
    t_.moves_accepted += res.moves_accepted;
    t_.moves_illegal += res.moves_rejected_illegal;
    if (!res.found) return;
    {
      Span s(rec_, "analyze.lint_mapping", rid, parent);
      t_.sink += analyze::lint_mapping(spec, res.best, req.machine).diagnostics.size();
    }
    exec_check(item, rid, parent,
               [&] { return analyze::build_exec_witness(*cs, res.best); });
  }

  void pipeline(const TuneItem& item, const serve::Request& req,
                std::uint64_t rid, std::uint32_t parent) {
    const fm::Pipeline& pipe = *req.pipeline;
    fm::PipelineOptions po;
    po.fom = req.fom;
    po.strategy = req.strategy;
    po.search = req.search;
    po.strategy_opts = req.strategy_opts;
    po.pair_candidates = req.pipeline_pair_candidates;
    po.scheduler = sched_;
    po.num_workers = kWorkers;
    fm::PipelineResult res;
    {
      Span s(rec_, "fm.tune_pipeline_paired", rid, parent);
      res = fm::tune_pipeline_paired(pipe, req.machine, po);
    }
    t_.probe_searches += res.probe_searches;
    ++t_.pipelines;
    if (!res.found) return;
    const bool affine = req.strategy == fm::StrategyKind::kExhaustive;
    for (std::size_t s = 0; s < pipe.size(); ++s) {
      const fm::StageResult& st = res.stages[s];
      const fm::FunctionSpec& spec = *pipe.stage(s).spec;
      const fm::Mapping proto = fm::stage_input_proto(pipe, s, req.strategy, res);
      std::shared_ptr<const fm::CompiledSpec> cs;
      {
        Span sp(rec_, "fm.compile_spec", rid, parent);
        cs = fm::compile_spec(spec, req.machine, proto);
      }
      {
        Span sp(rec_, "analyze.lint_mapping", rid, parent);
        if (affine) {
          fm::Mapping full = proto;
          full.set_computed(cs->target, st.affine.place_fn(), st.affine.time_fn());
          t_.sink += analyze::lint_mapping(spec, full, req.machine).diagnostics.size();
        } else {
          t_.sink += analyze::lint_mapping(spec, st.table, req.machine).diagnostics.size();
        }
      }
      exec_check(item, rid, parent, [&] {
        return affine ? analyze::build_exec_witness(*cs, st.affine)
                      : analyze::build_exec_witness(*cs, st.table);
      });
    }
  }

  template <typename BuildWitness>
  void exec_check(const TuneItem& item, std::uint64_t rid, std::uint32_t parent,
                  BuildWitness&& build) {
    Span s(rec_, "analyze.exec_check", rid, parent);
    if (!analyze::ExecChecker().check(build()).ok()) {
      mismatch(r_, "tune " + item.str() + ": winner fails the execution checker");
    }
  }

  RunResult& r_;
  SpanRecorder* rec_;
  harmony::sched::Scheduler* sched_;
  ReplayTotals& t_;
  serve::SpecCatalog catalog_;
};

/// Warm-up traffic: one tune per request class the workload sends, on
/// a grid its stream never draws (2x2 for tune_affine, 2x1 for
/// tune_stochastic), so no timed request is a repeat.
std::vector<TuneItem> warmup_items(Workload w) {
  std::vector<TuneItem> v;
  TuneItem t;
  t.cols = 2;
  t.rows = 1;
  if (w == Workload::kTuneAffine) {
    t.rows = 2;
    for (const char* spec : {"conv:32,3", "matmul:4", "editdist:12x8",
                             "stencil:24,4", "irregular:32,3,1"}) {
      t.spec = spec;
      v.push_back(t);
    }
    return v;
  }
  t.spec = "irregular:24,3,1";
  for (const TuneItem::Kind k : {TuneItem::Kind::kAnneal, TuneItem::Kind::kBeam}) {
    t.kind = k;
    v.push_back(t);
  }
  t.kind = TuneItem::Kind::kPipeline;
  for (int p = 0; p < 4; ++p) {
    t.pipeline = p;
    t.n = 16;
    v.push_back(t);
  }
  return v;
}

/// Mean self time per span of `name`, in ms.
double ms_of(const std::map<std::string, LayerTotals>& by_name,
             const char* name) {
  const LayerTotals t = totals_of(by_name, name);
  return ratio(t.self_ns / 1e6, static_cast<double>(t.count));
}

double total_ns(const std::map<std::string, LayerTotals>& by_name,
                const char* name) {
  return totals_of(by_name, name).self_ns;
}

}  // namespace

RunResult run_tune(const RunConfig& cfg) {
  RunResult out;
  serve::ServiceConfig scfg;
  scfg.num_workers = kWorkers;
  scfg.cache_capacity = kResultCache;

  // Set-up: service construction plus warm-up calls, timed kSetups
  // times; the last service serves the timed window.
  std::vector<serve::Request> warm;
  serve::SpecCatalog warm_specs;
  for (const TuneItem& t : warmup_items(cfg.workload)) {
    warm.push_back(build_request(t, warm_specs));
  }
  std::vector<double> setups;
  std::unique_ptr<serve::Service> svc;
  for (int k = 0; k < kSetups; ++k) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = std::make_unique<serve::Service>(scfg);
    for (const serve::Request& w : warm) {
      if (!svc->call(w).ok()) mismatch(out, "warm-up request failed");
    }
    setups.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  SpanRecorder rec(1u << 20);
  SpanRecorder* trace = cfg.trace ? &rec : nullptr;
  TuneStream stream(cfg.workload, cfg.seed);
  ReplayTotals totals;
  Checker checker(out, nullptr, nullptr, totals);
  std::vector<Done> done;
  done.reserve(1u << 16);
  const auto begin = Clock::now();
  const auto end = begin + std::chrono::duration<double>(cfg.seconds);
  while (Clock::now() < end) {
    const TuneItem item = stream.next();
    serve::SpecCatalog specs;  // per request, so built specs do not pile up
    serve::Request req = build_request(item, specs);
    Done d;
    d.kind = item.kind;
    d.traced = cfg.trace && done.size() % 2 == 1;
    const serve::MetricsSnapshot before = svc->metrics();
    serve::Response resp;
    const auto t0 = Clock::now();
    {
      Span s(d.traced ? trace : nullptr, "serve.call", done.size() + 1);
      resp = svc->call(req);
    }
    d.ms = ms_between(t0, Clock::now());
    const serve::MetricsSnapshot after = svc->metrics();
    d.compile_hits = after.compile_hits - before.compile_hits;
    d.compile_misses = after.compile_misses - before.compile_misses;
    d.ok = resp.ok();
    if (d.ok) checker.gate_reply(item, req, resp);
    d.found = item.kind == TuneItem::Kind::kAffine   ? resp.search.found
              : item.kind == TuneItem::Kind::kPipeline ? resp.pipeline.found
                                                       : resp.strategy.found;
    d.merit = resp.search.best.merit;
    d.slot = resp.search.best.slot;
    d.enumerated = resp.search.enumerated;
    d.quick_rejected = resp.search.quick_rejected;
    d.verify_rejected = resp.search.verify_rejected;
    d.legal = resp.search.legal;
    d.exec_clean = resp.exec.empty() && (!resp.search.found || resp.exec_checked);
    d.legal_rich = resp.search.legal >= kLegalRich;
    done.push_back(d);
  }
  // Read before the gate: its regenerated streams are the benchmark's
  // memory and grow with the number of tunes the program completed.
  const double rss_mb = peak_rss_mb();
  svc.reset();

  out.attempted = done.size();
  for (const Done& d : done) out.failed += d.ok ? 0 : 1;

  // The deferred gate over every exhaustive reply, on a regenerated
  // stream.  A traced run first checks serially, replaying each
  // request's layers (any kind), while its replay budget lasts; the rest
  // are checked on kGateThreads threads (nothing is timed any more).
  std::vector<std::size_t> replayed;
  std::size_t first_rest = 0;
  std::unique_ptr<harmony::sched::Scheduler> sched;
  if (cfg.trace) {
    sched = std::make_unique<harmony::sched::Scheduler>(kWorkers);
    Checker replayer(out, trace, sched.get(), totals);
    TuneStream again(cfg.workload, cfg.seed);
    const auto replay_end =
        Clock::now() + std::chrono::duration<double>(cfg.seconds * kReplayBudget);
    for (; first_rest < done.size() && Clock::now() < replay_end; ++first_rest) {
      const TuneItem item = again.next();
      if (!done[first_rest].ok) continue;
      replayer.check(item, done[first_rest], first_rest + 1, true);
      replayed.push_back(first_rest);
    }
  }
  std::vector<RunResult> part(kGateThreads);
  std::vector<ReplayTotals> part_totals(kGateThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kGateThreads; ++t) {
    threads.emplace_back([&, t] {
      Checker gate(part[t], nullptr, nullptr, part_totals[t]);
      TuneStream again(cfg.workload, cfg.seed);
      for (std::size_t i = 0; i < done.size(); ++i) {
        const TuneItem item = again.next();
        if (i >= first_rest && i % kGateThreads == t && done[i].ok) {
          gate.check(item, done[i], i + 1, false);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const RunResult& p : part) {
    for (const std::string& m : p.mismatches) mismatch(out, m);
  }
  keep(totals.sink);

  // End-to-end metrics: exact percentiles over every answered call of
  // the window, and tunes per second of call time.
  const bool affine = cfg.workload == Workload::kTuneAffine;
  std::vector<double> all, heavy;
  double call_s = 0.0;
  for (const Done& d : done) {
    if (!d.ok) continue;
    all.push_back(d.ms);
    call_s += d.ms / 1e3;
    const bool is_heavy = affine ? d.legal_rich : d.kind == TuneItem::Kind::kPipeline;
    if (is_heavy) heavy.push_back(d.ms);
  }
  std::sort(all.begin(), all.end());
  std::sort(heavy.begin(), heavy.end());
  const auto p50 = percentile(all, 0.50), p95 = percentile(all, 0.95);
  const auto h50 = percentile(heavy, 0.50), h95 = percentile(heavy, 0.95);
  if (!p50 || !p95 || !h50 || !h95) {
    out.invalid.push_back("too few tunes for a p95 with 10 beyond it (" +
                          std::to_string(all.size()) + " tunes, " +
                          std::to_string(heavy.size()) + " heavy)");
  }
  const double rate = ratio(static_cast<double>(all.size()), call_s);
  out.e2e = {{"setup_s", median(setups), "s"},
             {"peak_rss_mb", rss_mb, "MB"},
             {"tune_p50_ms", p50.value_or(0), "ms"},
             {"tune_p95_ms", p95.value_or(0), "ms"},
             {"heavy_p50_ms", h50.value_or(0), "ms"},
             {"heavy_p95_ms", h95.value_or(0), "ms"},
             {"tunes_per_s", rate, "1/s"}};
  out.counts = {{"tunes", static_cast<double>(all.size()), "count"},
               {affine ? "legal_rich_tunes" : "pipeline_tunes",
                static_cast<double>(heavy.size()), "count"}};

  // Workload property shares, from the replies (traced or not).
  std::uint64_t tunes = 0, found = 0, enumerated = 0, quick = 0, verify = 0,
                legal = 0, chits = 0, cmiss = 0, shits = 0, smiss = 0;
  for (const Done& d : done) {
    if (!d.ok) continue;
    if (d.kind == TuneItem::Kind::kPipeline) {
      shits += d.compile_hits;
      smiss += d.compile_misses;
    } else {
      chits += d.compile_hits;
      cmiss += d.compile_misses;
    }
    ++tunes;
    found += d.found ? 1 : 0;
    enumerated += d.enumerated;
    quick += d.quick_rejected;
    verify += d.verify_rejected;
    legal += d.legal;
  }
  const double nt = std::max<double>(1, static_cast<double>(tunes));
  const double ne = static_cast<double>(enumerated);
  layer(out, "tune.legal_winner_share", ratio(static_cast<double>(found), nt), "share");
  layer(out, "serve.compile_cache.hit_ratio",
        ratio(static_cast<double>(chits), static_cast<double>(chits + cmiss)), "share");
  layer(out, "serve.stage_compile.hit_ratio",
        ratio(static_cast<double>(shits), static_cast<double>(shits + smiss)), "share");
  layer(out, "fm.search.enumerated", static_cast<double>(enumerated) / nt, "count");
  layer(out, "fm.search.quick_rejected", static_cast<double>(quick) / nt, "count");
  layer(out, "fm.search.verify_rejected", static_cast<double>(verify) / nt, "count");
  layer(out, "fm.search.legal", static_cast<double>(legal) / nt, "count");
  layer(out, "fm.search.legal_ratio", ratio(static_cast<double>(legal), ne), "share");
  layer(out, "fm.search.quick_reject_share", ratio(static_cast<double>(quick), ne), "share");
  layer(out, "fm.search.verify_reject_share", ratio(static_cast<double>(verify), ne), "share");
  layer(out, "error_share", ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted)), "share");
  if (!cfg.trace) return out;

  // Per-layer times from the replay spans.
  const std::vector<SpanRec> spans = rec.spans();
  const auto by_name = reduce_self_time(spans);
  const double par_ns = total_ns(by_name, "fm.search_affine");
  const double ser_ns = total_ns(by_name, "fm.search_affine_serial");
  const double table_ns = total_ns(by_name, "fm.search_table");
  layer(out, "fm.compile_spec.ms", ms_of(by_name, "fm.compile_spec"), "ms");
  layer(out, "fm.search_affine.ms", ms_of(by_name, "fm.search_affine"), "ms");
  layer(out, "fm.search_affine_serial.ms", ms_of(by_name, "fm.search_affine_serial"), "ms");
  layer(out, "sched.search_speedup", ratio(ser_ns, par_ns), "x");
  layer(out, "sched.steals",
        ratio(static_cast<double>(totals.steals),
              static_cast<double>(totals.parallel_searches)),
        "count");
  layer(out, "fm.decode_slots.ns_per_cand",
        ratio(total_ns(by_name, "fm.decode_slots"), static_cast<double>(totals.decoded)), "ns");
  layer(out, "fm.verify_ok.ns_per_cand",
        ratio(total_ns(by_name, "fm.verify_ok"), static_cast<double>(totals.verified)), "ns");
  layer(out, "fm.evaluate_cost.ns_per_cand",
        ratio(total_ns(by_name, "fm.evaluate_cost"), static_cast<double>(totals.evaluated)), "ns");
  layer(out, "fm.search.candidates_per_s",
        ratio(static_cast<double>(totals.enumerated), par_ns / 1e9), "1/s");
  layer(out, "analyze.exec_check.ms", ms_of(by_name, "analyze.exec_check"), "ms");
  layer(out, "analyze.lint_mapping.ms", ms_of(by_name, "analyze.lint_mapping"), "ms");
  layer(out, "fm.build_strategy_spec.ms", ms_of(by_name, "fm.build_strategy_spec"), "ms");
  layer(out, "fm.search_table.ms", ms_of(by_name, "fm.search_table"), "ms");
  layer(out, "fm.strategy.moves_per_s",
        ratio(static_cast<double>(totals.moves_tried), table_ns / 1e9), "1/s");
  layer(out, "fm.strategy.accept_ratio",
        ratio(static_cast<double>(totals.moves_accepted),
              static_cast<double>(totals.moves_tried)), "share");
  layer(out, "fm.strategy.illegal_ratio",
        ratio(static_cast<double>(totals.moves_illegal),
              static_cast<double>(totals.moves_tried)), "share");
  layer(out, "fm.tune_pipeline_paired.ms", ms_of(by_name, "fm.tune_pipeline_paired"), "ms");
  layer(out, "fm.pipeline.probe_searches",
        ratio(static_cast<double>(totals.probe_searches),
              static_cast<double>(totals.pipelines)), "count");

  // Residual: each replayed call's latency minus the layers on its path
  // (the compile only when the service's compile cache missed).
  std::unordered_map<std::uint64_t, std::map<std::string, double>> per_rid;
  for (const SpanRec& s : spans) {
    per_rid[s.rid][s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  double call_sum = 0.0, path_sum = 0.0;
  for (const std::size_t i : replayed) {
    const Done& d = done[i];
    auto& l = per_rid[i + 1];
    double path = l["analyze.lint_mapping"] + l["analyze.exec_check"];
    switch (d.kind) {
      case TuneItem::Kind::kAffine:
        path += l["fm.search_affine"] + (d.compile_misses > 0 ? l["fm.compile_spec"] : 0.0);
        break;
      case TuneItem::Kind::kAnneal:
      case TuneItem::Kind::kBeam:
        path += l["fm.search_table"] + (d.compile_misses > 0 ? l["fm.compile_spec"] : 0.0);
        break;
      case TuneItem::Kind::kPipeline:
        path += l["fm.tune_pipeline_paired"];
        break;
    }
    call_sum += d.ms;
    path_sum += path;
  }
  const double nr = std::max<double>(1, static_cast<double>(replayed.size()));
  layer(out, "serve.tune.residual_ms", (call_sum - path_sum) / nr, "ms");
  layer(out, "serve.tune.call_ms", call_sum / nr, "ms");

  // Tracing overhead: traced (odd) against untraced (even) calls.
  std::vector<double> on, off;
  for (const Done& d : done) {
    if (d.ok) (d.traced ? on : off).push_back(d.ms);
  }
  layer(out, "trace.overhead_share", ratio(median(on), median(off)) - 1.0, "share");
  layer(out, "trace.drops", static_cast<double>(rec.dropped()), "count");
  if (rec.dropped() != 0) mismatch(out, "trace buffer dropped spans");
  if (!cfg.trace_path.empty() && !rec.write_json(cfg.trace_path)) {
    mismatch(out, "could not write " + cfg.trace_path);
  }
  return out;
}

}  // namespace perfbench
