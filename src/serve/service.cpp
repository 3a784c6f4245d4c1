#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <unordered_map>
#include <utility>

#include "analyze/exec.hpp"
#include "analyze/lint.hpp"
#include "sched/parallel_ops.hpp"
#include "trace/trace.hpp"

namespace harmony::serve {

namespace {

/// Home of the request's idx-th input tensor (spec->input_tensors()
/// order); missing trailing entries default to DRAM.
fm::InputHome input_home(const Request& req, std::size_t idx) {
  return (idx < req.inputs.size() ? req.inputs[idx] : InputPlacement::dram())
      .to_home();
}

/// Builds the full Mapping a request describes: the AffineMap on the
/// single computed tensor plus the declared input homes.
fm::Mapping materialize_mapping(const Request& req,
                                const fm::AffineMap& map) {
  const auto computed = req.spec->computed_tensors();
  HARMONY_REQUIRE(computed.size() == 1,
                  "serve: spec must have exactly one computed tensor");
  // AffineMap::place wraps modulo the map's grid: a zero extent (say,
  // from a hostile wire frame) would divide by zero.
  HARMONY_REQUIRE(map.cols > 0 && map.rows > 0,
                  "serve: map.cols and map.rows must be positive");
  fm::Mapping m;
  const auto inputs = req.spec->input_tensors();
  for (std::size_t idx = 0; idx < inputs.size(); ++idx) {
    m.set_input(inputs[idx], input_home(req, idx));
  }
  m.set_computed(computed[0], map.place_fn(), map.time_fn());
  return m;
}

}  // namespace

Service::Service(ServiceConfig cfg)
    : cfg_(cfg),
      cache_(std::max<std::size_t>(1, cfg.cache_capacity),
             std::max<std::size_t>(1, cfg.cache_shards)),
      queue_(std::max<std::size_t>(1, cfg.queue_capacity)),
      scheduler_(std::max(1u, cfg.num_workers)) {
  cfg_.num_workers = std::max(1u, cfg_.num_workers);
  cfg_.max_batch = std::max<std::size_t>(1, cfg_.max_batch);
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

Service::~Service() { shutdown(); }

void Service::shutdown() {
  stopping_.store(true, std::memory_order_release);
  queue_.close();  // idempotent; wakes the dispatcher to drain
  std::lock_guard<std::mutex> lk(shutdown_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::future<Response> Service::submit(Request req) {
  metrics_.on_submit();
  const std::uint64_t rid = next_rid_.fetch_add(1, std::memory_order_relaxed);
  // Covers admission on the caller's thread: validation, the cache fast
  // path (arg0 = 1 on a hit), and the queue push.
  trace::Span admit_span("serve", "admit", rid);
  const Clock::time_point now = Clock::now();
  std::promise<Response> ready;
  std::future<Response> fut = ready.get_future();

  const bool missing_payload =
      req.kind == RequestKind::kPipelineTune
          ? req.pipeline == nullptr || req.pipeline->empty()
          : req.spec == nullptr;
  if (missing_payload) {
    Response r;
    r.status = Status::kError;
    r.kind = req.kind;
    r.error = req.kind == RequestKind::kPipelineTune
                  ? "submit: null or empty pipeline"
                  : "submit: null spec";
    metrics_.on_complete(Clock::now() - now, false, true);
    ready.set_value(std::move(r));
    return fut;
  }

  auto p = std::make_unique<Pending>();
  p->req = std::move(req);
  p->enqueued = now;
  p->use_cache = cacheable(p->req);
  if (p->use_cache) {
    p->key = make_cache_key(p->req);
    // Fast path: answer memoized queries on the caller's thread, never
    // touching the admission queue.
    if (auto hit = cache_.get(p->key)) {
      admit_span.set_args(1, 0);
      Response r = *hit;
      r.cache_hit = true;
      r.latency = Clock::now() - now;
      metrics_.on_complete(r.latency, false, false);
      ready.set_value(std::move(r));
      return fut;
    }
  }

  if (stopping_.load(std::memory_order_acquire)) {
    Response r;
    r.status = Status::kRejected;
    r.kind = p->req.kind;
    r.error = "service shutting down";
    r.retry_after = cfg_.retry_after;
    metrics_.on_reject();
    ready.set_value(std::move(r));
    return fut;
  }

  if (p->req.deadline.count() > 0) {
    p->has_deadline = true;
    p->deadline = now + p->req.deadline;
  }

  // Hand the caller the *real* promise's future before enqueueing.
  fut = p->promise.get_future();
  p->rid = rid;
  if (trace::enabled()) p->enqueue_ns = trace::now_ns();
  const RequestKind kind = p->req.kind;
  if (!queue_.try_push(std::move(p))) {
    Response r;
    r.status = Status::kRejected;
    r.kind = kind;
    r.error = "admission queue full";
    r.retry_after = cfg_.retry_after;
    metrics_.on_reject();
    std::promise<Response> rejected;
    fut = rejected.get_future();
    rejected.set_value(std::move(r));
  }
  return fut;
}

Response Service::call(Request req) { return submit(std::move(req)).get(); }

MetricsSnapshot Service::metrics() const {
  return metrics_.snapshot(queue_.size(), cache_.stats());
}

void Service::dispatch_loop() {
  trace::set_thread_name("serve-dispatch");
  std::vector<std::unique_ptr<Pending>> batch;
  while (true) {
    batch.clear();
    if (!queue_.pop_batch(batch, cfg_.max_batch, cfg_.batch_linger)) {
      return;  // closed and drained
    }
    metrics_.on_batch(batch.size());
    if (trace::enabled()) {
      // Close each request's queue-wait interval (opened at admission)
      // and sample the depth left behind after this drain.
      const std::uint64_t drained_ns = trace::now_ns();
      for (const auto& p : batch) {
        if (p->enqueue_ns != 0) {
          trace::emit_span("serve", "queue_wait", p->enqueue_ns, drained_ns,
                           p->rid);
        }
      }
      trace::emit_counter("serve", "queue_depth", queue_.size());
    }

    // Group duplicates: requests with equal cache keys execute once and
    // share the answer.  Deadline-carrying tunes stay singleton groups —
    // two waiters with different budgets deserve different frontiers.
    std::vector<std::vector<std::unique_ptr<Pending>>> groups;
    std::unordered_map<CacheKey, std::size_t, CacheKeyHash> by_key;
    for (auto& p : batch) {
      const bool is_tune = p->req.kind == RequestKind::kTune ||
                           p->req.kind == RequestKind::kPipelineTune;
      const bool dedupable = p->use_cache && !(is_tune && p->has_deadline);
      if (dedupable) {
        if (const auto it = by_key.find(p->key); it != by_key.end()) {
          groups[it->second].push_back(std::move(p));
          continue;
        }
        by_key.emplace(p->key, groups.size());
      }
      groups.emplace_back();
      groups.back().push_back(std::move(p));
    }

    trace::Span batch_span("serve", "batch", 0, batch.size(), groups.size());
    scheduler_.run([&] {
      sched::RealCtx ctx;
      sched::parallel_for(ctx, 0, groups.size(), 1,
                          [&](std::size_t g) { run_group(groups[g]); });
    });
  }
}

void Service::run_group(std::vector<std::unique_ptr<Pending>>& group) {
  Pending& leader = *group.front();

  // A sibling batch may have filled the cache since admission.
  std::shared_ptr<const Response> cached;
  if (leader.use_cache) {
    trace::Span probe_span("serve", "cache_probe", leader.rid);
    cached = cache_.get(leader.key);
    probe_span.set_args(cached != nullptr, 0);
  }

  Response computed;
  if (cached == nullptr) {
    computed = execute(leader);
    // Count diagnostics once per oracle run (cache hits replay, they
    // don't re-diagnose).
    metrics_.on_diagnostics(computed.legality.diagnostics);
    metrics_.on_diagnostics(computed.lint);
    metrics_.on_diagnostics(computed.exec);
    if (leader.use_cache && computed.ok() && converged(computed)) {
      cache_.put(leader.key, std::make_shared<Response>(computed));
    }
  }

  for (std::size_t i = 0; i < group.size(); ++i) {
    Response r = cached ? *cached : computed;
    // Followers coalesced onto the leader count as hits: they were
    // answered by sharing, not by running the oracle.
    r.cache_hit = cached != nullptr || i > 0;
    respond(*group[i], std::move(r));
  }
}

Response Service::execute(const Pending& p) {
  const Request& req = p.req;
  // Named after the oracle ("cost_eval" / "legality" / "tune"): the
  // timeline shows what kind of work each request cost.
  trace::Span exec_span("serve", to_string(req.kind), p.rid);
  Response r;
  r.kind = req.kind;
  try {
    switch (req.kind) {
      case RequestKind::kCostEval: {
        const fm::Mapping m = materialize_mapping(req, req.map);
        r.cost = fm::evaluate_cost(*req.spec, m, req.machine);
        break;
      }
      case RequestKind::kLegality: {
        const fm::Mapping m = materialize_mapping(req, req.map);
        r.legality = fm::verify(*req.spec, m, req.machine, req.verify);
        break;
      }
      case RequestKind::kTune:
      case RequestKind::kPipelineTune:
        execute_tune(p, r);
        break;
    }
  } catch (const std::exception& e) {
    r = Response{};
    r.kind = req.kind;
    r.status = Status::kError;
    r.error = e.what();
  }
  return r;
}

void Service::execute_tune(const Pending& p, Response& r) {
  const Request& req = p.req;
  const bool single = req.kind == RequestKind::kTune;
  // A single-spec tune is the one-stage pipeline over req.spec, its
  // inputs bound to the request's homes (DRAM for missing trailing
  // entries) — fm::PipelineOptions promises that reproduces a plain
  // search bit for bit.
  fm::Pipeline one;
  if (single) {
    fm::PipelineStage stage{"tune", req.spec, {}};
    const std::size_t n_inputs = req.spec->input_tensors().size();
    for (std::size_t idx = 0; idx < n_inputs; ++idx) {
      stage.inputs.push_back(fm::StageInput::external(input_home(req, idx)));
    }
    one.add_stage(std::move(stage));
  }
  const fm::Pipeline& pipe = single ? one : *req.pipeline;
  const bool exhaustive = req.strategy == fm::StrategyKind::kExhaustive;

  fm::PipelineOptions opts;
  opts.fom = req.fom;
  opts.strategy = req.strategy;
  opts.search = req.search;
  opts.strategy_opts = req.strategy_opts;
  opts.pair_candidates = req.pipeline_pair_candidates;
  // Fork into the service's shared pool.  We are already inside the
  // dispatcher's batch session, so searches fork inline rather than
  // opening a nested run(); the per-request lane ask is clamped by the
  // service-level cap.
  opts.scheduler = &scheduler_;
  const unsigned cap =
      cfg_.max_tune_workers == 0 ? cfg_.num_workers : cfg_.max_tune_workers;
  opts.num_workers =
      req.tune_workers == 0 ? cap : std::min(req.tune_workers, cap);
  // The caller's hook always rides along; under a deadline it is
  // chained with a cutoff early enough that delivering the response
  // beats the deadline.  The anneal/beam drivers poll it per epoch and
  // the exhaustive search per grain, so a cut still answers best-so-far
  // (Response::deadline_cut).
  const std::function<bool()>& user =
      exhaustive ? req.search.cancel : req.strategy_opts.cancel;
  opts.cancel = user;
  if (p.has_deadline) {
    const Clock::time_point cutoff = p.deadline - cfg_.deadline_margin;
    opts.cancel = [cutoff, user] {
      return Clock::now() >= cutoff || (user && user());
    };
    // The parallel backend polls cancel once per grain, so a deadline
    // tune runs single-slot grains: the overshoot past the cutoff is
    // bounded by the candidates already in flight (at most one per
    // lane) instead of a whole auto-sized grain.
    if (exhaustive && opts.search.grain == fm::kAutoGrain) {
      opts.search.grain = 1;
    }
  }
  // Every stage compile — a kTune's single stage included — goes
  // through the coalescing compile cache under its (spec, machine,
  // resolved homes) key, shared with tunes that differ only in FoM or
  // search knobs.  The last compile of each stage is its committing
  // run's (probes only ever target later stages), and certification
  // below reuses it instead of looking it up again.
  std::vector<std::shared_ptr<const fm::CompiledSpec>> compiled(pipe.size());
  opts.compile = [&](std::size_t stage, const fm::Mapping& proto,
                     std::uint64_t home_fp) {
    compiled[stage] =
        compiled_for_stage(pipe.stage(stage), req.machine, proto, home_fp);
    return compiled[stage];
  };

  // Steal-count delta around the tune: approximate when tunes overlap
  // in one batch (steals interleave), but cheap and a faithful
  // saturation signal in aggregate.
  const std::uint64_t steals_before = scheduler_.steal_count();
  fm::PipelineResult res =
      !single && req.pipeline_paired
          ? fm::tune_pipeline_paired(pipe, req.machine, opts)
          : fm::tune_pipeline_greedy(pipe, req.machine, opts);
  unsigned workers_used = 1;
  for (const fm::StageResult& st : res.stages) {
    workers_used = std::max(
        {workers_used, st.search.workers_used, st.strategy.workers_used});
  }
  metrics_.on_tune(workers_used, scheduler_.steal_count() - steals_before);
  r.deadline_cut = p.has_deadline && !res.completed;

  // Certify every committed stage winner with its *resolved* input
  // homes through the linter (a mapping can win the merit race and
  // still carry smells — idle PEs, hot links — the caller should see)
  // and the independent axiom checker.  A clean chain means every
  // handoff the cost model priced is one the relational model agrees
  // is legal.
  if (res.found) {
    for (std::size_t s = 0; s < pipe.size(); ++s) {
      const fm::StageResult& st = res.stages[s];
      const auto lint = analyze::lint_mapping(
          *pipe.stage(s).spec, fm::stage_mapping(pipe, s, req.strategy, res),
          req.machine);
      r.lint.insert(r.lint.end(), lint.diagnostics.begin(),
                    lint.diagnostics.end());
      check_winner_exec(
          r, exhaustive ? analyze::build_exec_witness(*compiled[s], st.affine)
                        : analyze::build_exec_witness(*compiled[s], st.table));
    }
  }
  if (!single) {
    if (res.found) r.cost = res.total;
    r.pipeline = std::move(res);
    return;
  }
  // A plain tune reply: stage 0's searcher detail, r.pipeline left at
  // its default.
  fm::StageResult& st = res.stages.front();
  if (st.found) r.cost = st.cost;
  r.search = std::move(st.search);
  r.strategy = std::move(st.strategy);
}

void Service::check_winner_exec(Response& r,
                                const analyze::ExecWitness& witness) {
  // The independent relational model's verdict on the tune winner: a
  // nonzero EXEC count here means the searcher's legality gate and the
  // axiom checker disagree about this very mapping.
  trace::Span span("serve", "exec_check", 0, 0,
                   static_cast<std::uint64_t>(witness.num_ops));
  const analyze::ExecReport rep = analyze::ExecChecker().check(witness);
  r.exec_checked = true;
  r.exec.insert(r.exec.end(), rep.diagnostics.begin(), rep.diagnostics.end());
  metrics_.on_exec_check(!rep.ok());
}

void Service::warm(const CacheKey& key, Response resp) {
  resp.cache_hit = false;
  resp.latency = std::chrono::nanoseconds{0};
  cache_.put(key, std::make_shared<Response>(std::move(resp)));
}

std::shared_ptr<const fm::CompiledSpec> Service::compiled_for_stage(
    const fm::PipelineStage& stage, const fm::MachineConfig& machine,
    const fm::Mapping& proto, std::uint64_t home_fp) {
  for (const fm::StageInput& b : stage.inputs) {
    if (b.kind == fm::StageInput::Kind::kExternal &&
        b.home.kind == fm::InputHome::Kind::kDistributed) {
      // Opaque closure: never share across requests.
      metrics_.on_compile(false);
      return fm::compile_spec(*stage.spec, machine, proto);
    }
  }
  const CacheKey key = make_stage_compile_key(*stage.spec, machine, home_fp);
  // Leader vs. follower is decided atomically at the probe: the caller
  // that *inserts* the in-flight entry compiles (out of lock, so one
  // slow compile never stalls the pool); every caller that *finds* it
  // blocks on the rendezvous instead of compiling again.  A stampede of
  // identical keys therefore costs exactly one fm::compile_spec and one
  // recorded miss — followers count as hits, since they reuse another
  // request's flat tables.
  std::shared_ptr<InflightCompile> flight;
  bool leader = false;
  {
    std::lock_guard<std::mutex> lk(compile_mu_);
    if (const auto it = compile_cache_.find(key);
        it != compile_cache_.end()) {
      compile_lru_.splice(compile_lru_.begin(), compile_lru_,
                          it->second.lru);
      metrics_.on_compile(true);
      return it->second.compiled;
    }
    const auto [it, inserted] =
        compile_inflight_.try_emplace(key, nullptr);
    if (inserted) {
      it->second = std::make_shared<InflightCompile>();
      leader = true;
    }
    flight = it->second;
  }
  if (!leader) {
    std::unique_lock<std::mutex> lk(flight->mu);
    flight->cv.wait(lk, [&] { return flight->done; });
    if (flight->error) std::rethrow_exception(flight->error);
    metrics_.on_compile(true);
    return flight->compiled;
  }

  metrics_.on_compile(false);
  std::shared_ptr<const fm::CompiledSpec> compiled;
  std::exception_ptr error;
  try {
    compiled = fm::compile_spec(*stage.spec, machine, proto);
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lk(compile_mu_);
    if (compiled) {
      compile_lru_.push_front(key);
      compile_cache_.emplace(key,
                             CompiledEntry{compiled, compile_lru_.begin()});
      while (compile_cache_.size() > kCompileCacheCapacity) {
        compile_cache_.erase(compile_lru_.back());
        compile_lru_.pop_back();
      }
    }
    compile_inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lk(flight->mu);
    flight->compiled = compiled;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();
  if (error) std::rethrow_exception(error);
  return compiled;
}

void Service::respond(Pending& p, Response r) {
  trace::Span reply_span("serve", "reply", p.rid);
  r.latency = Clock::now() - p.enqueued;
  metrics_.on_complete(r.latency, r.deadline_cut,
                       r.status == Status::kError);
  p.promise.set_value(std::move(r));
}

}  // namespace harmony::serve
