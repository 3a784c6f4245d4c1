// Wire codec, cache-key identity, transports, and spec-catalog rebuild
// equivalence (DESIGN.md §17).
//
// The distributed tier's correctness rests on four codec-level facts
// pinned here:
//   * every message body round-trips bit-exactly (re-encoding a decode
//     reproduces the original bytes — the encoding is canonical), a
//     request's make_cache_key survives the round trip, and the reply
//     layout is pinned byte for byte;
//   * truncated or bit-flipped frames throw WireError instead of
//     reading past the end or crashing, and names or grids that would
//     ask for unbounded work are refused;
//   * make_cache_key() — the router's routing key — covers the
//     semantic fields and *excludes* the QoS fields, so a deadline
//     change never migrates a key off its warm shard;
//   * what the key cannot read cannot cross: cancel hooks, in-process
//     pointers and specs the catalog did not build make encode throw.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fm/machine.hpp"
#include "sched/scheduler.hpp"
#include "serve/catalog.hpp"
#include "serve/request.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {
namespace {

/// An exhaustive tune with every keyed field off its default.
Request sample_request(SpecCatalog& catalog) {
  Request req;
  req.kind = RequestKind::kTune;
  req.spec = catalog.spec("editdist:6x5");
  req.machine = fm::make_machine(6, 2);
  req.machine.cycle = Time::picoseconds(250.0);
  req.machine.pe_capacity_values = 4096;
  req.machine.link_bits_per_cycle = 128.0;
  req.machine.local_access_pitch_fraction = 0.5;
  req.fom = fm::FigureOfMerit::kTime;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::dram()};
  req.search.space.time_coeffs = {-2, -1, 0, 1, 2};
  req.search.space.space_coeffs = {0, 1};
  req.search.space.search_y = false;
  req.search.fom = fm::FigureOfMerit::kTime;
  req.search.verify.check_storage = false;
  req.search.quick_sample = 32;
  req.search.makespan_slack = 3.5;
  req.search.top_k = 3;
  req.deadline = std::chrono::milliseconds(5);
  req.tune_workers = 4;
  return req;
}

/// An anneal tune over an irregular DAG on a torus with a retuned
/// technology model: the stochastic tier plus every machine field.
Request anneal_request(SpecCatalog& catalog) {
  Request req;
  req.kind = RequestKind::kTune;
  req.spec = catalog.spec("irregular:24,3,7");
  noc::TechnologyModel tech = noc::TechnologyModel::n5();
  tech.wire_energy_per_bit_mm_fj = 60.0;
  tech.die = Area::mm2(400.0);
  req.machine = fm::make_machine(2, 2, tech);
  req.machine.geom = noc::GridGeometry(2, 2, Length::millimetres(0.3), tech,
                                       noc::Topology::kTorus);
  req.inputs = {InputPlacement::at({1, 0})};
  req.strategy = fm::StrategyKind::kAnneal;
  req.strategy_opts.seed = 0xfeed;
  req.strategy_opts.chains = 2;
  req.strategy_opts.epochs = 5;
  req.strategy_opts.iters_per_epoch = 48;
  req.strategy_opts.cooling = 0.9;
  return req;
}

std::vector<std::uint8_t> encoded(const Request& req,
                                  const SpecCatalog& catalog) {
  Writer w;
  encode(w, req, catalog);
  return w.take();
}

Request decoded(const std::vector<std::uint8_t>& bytes,
                SpecCatalog& catalog) {
  Reader r(bytes);
  Request req = decode_request(r, catalog);
  r.expect_end();
  return req;
}

analyze::Diagnostic diag(std::string rule_id, analyze::Severity severity,
                         std::string op, std::int32_t pe, std::int64_t cycle,
                         std::string message, std::string hint) {
  analyze::Diagnostic d;
  d.rule_id = std::move(rule_id);
  d.severity = severity;
  d.location.op = std::move(op);
  d.location.pe = pe;
  d.location.cycle = cycle;
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

Response sample_response() {
  Response resp;
  resp.status = Status::kOk;
  resp.kind = RequestKind::kTune;
  resp.cost.makespan_cycles = 42;
  resp.cost.makespan = Time::picoseconds(8400.0);
  resp.cost.compute_energy = Energy::femtojoules(1.5);
  resp.cost.onchip_movement_energy = Energy::femtojoules(2.5);
  resp.cost.dram_energy = Energy::femtojoules(3.5);
  resp.cost.messages = 7;
  resp.cost.bit_hops = 224;
  resp.cost.total_ops = 30.0;
  resp.search.found = true;
  resp.search.best.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 6};
  resp.search.best.cost = resp.cost;
  resp.search.best.merit = 1.25e6;
  resp.search.enumerated = 1000;
  resp.search.legal = 12;
  resp.search.workers_used = 4;
  resp.lint.push_back(
      diag("MAP001", analyze::Severity::kWarning, "H", 3, 7, "msg", "hint"));
  resp.exec_checked = true;
  resp.latency = std::chrono::nanoseconds(123456);
  return resp;
}

std::vector<std::uint8_t> encoded(const Response& resp) {
  Writer w;
  encode(w, resp);
  return w.take();
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST(WireCodec, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.b(true);
  w.f64(-1.5e-300);
  w.str("hello, \0 wire");  // embedded NUL is cut by the literal; fine
  w.vec_i64({-3, 0, 1LL << 40});
  w.bytes({1, 2, 3});

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_EQ(r.f64(), -1.5e-300);
  EXPECT_EQ(r.str(), "hello, ");
  EXPECT_EQ(r.vec_i64(), (std::vector<std::int64_t>{-3, 0, 1LL << 40}));
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expect_end());
}

TEST(WireCodec, RequestEncodingIsCanonical) {
  SpecCatalog router;
  SpecCatalog shard;
  for (const Request& req : {sample_request(router), anneal_request(router)}) {
    const std::vector<std::uint8_t> bytes = encoded(req, router);
    // The shard rebuilds in its own catalog: same name, same key.
    const Request back = decoded(bytes, shard);
    EXPECT_EQ(make_cache_key(back), make_cache_key(req));
    EXPECT_EQ(shard.name_of(*back.spec), router.name_of(*req.spec));
    // The fields a key comparison cannot localize...
    EXPECT_EQ(back.kind, req.kind);
    EXPECT_EQ(back.machine.geom.cols(), req.machine.geom.cols());
    EXPECT_EQ(back.machine.geom.topology(), req.machine.geom.topology());
    EXPECT_EQ(back.machine.geom.tech().die.mm2(),
              req.machine.geom.tech().die.mm2());
    EXPECT_EQ(back.machine.cycle.picoseconds(),
              req.machine.cycle.picoseconds());
    EXPECT_EQ(back.inputs.size(), req.inputs.size());
    EXPECT_EQ(back.strategy, req.strategy);
    EXPECT_EQ(back.search.space.time_coeffs, req.search.space.time_coeffs);
    EXPECT_EQ(back.strategy_opts.seed, req.strategy_opts.seed);
    // ...and the QoS fields, which cross but are not keyed.
    EXPECT_EQ(back.deadline, req.deadline);
    EXPECT_EQ(back.tune_workers, req.tune_workers);
    // Canonical: re-encoding the decode is bit-identical.
    EXPECT_EQ(encoded(back, shard), bytes);
  }
}

TEST(WireCodec, ResponseEncodingIsCanonical) {
  const std::vector<std::uint8_t> bytes = encoded(sample_response());

  Reader r(bytes);
  const Response back = decode_response(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(back.status, Status::kOk);
  EXPECT_EQ(back.cost.makespan_cycles, 42);
  EXPECT_EQ(back.search.best.merit, 1.25e6);
  ASSERT_EQ(back.lint.size(), 1u);
  EXPECT_EQ(back.lint[0].rule_id, "MAP001");
  EXPECT_EQ(back.lint[0].location.pe, 3);

  EXPECT_EQ(encoded(back), bytes);
}

TEST(WireCodec, ResponseLayoutIsPinned) {
  // The reply bytes of sample_response() in the CacheSnapshot version-4
  // layout: version 3's, plus the stochastic (strategy) and pipeline
  // tiers — at their defaults here — between the search result and the
  // lint diagnostics.  Any change here is a wire-format change: bump
  // CacheSnapshot::kVersion with it.
  const std::string kGoldenHex =
      "000200002a00000000000000000000000068c040000000000000f83f00000000"
      "0000044000000000000000000000000000000c400700000000000000e0000000"
      "000000000000000000003e400100000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000ffffffffffffffff000000"
      "0000000000ffffffffffffffff00000000010100000000000000010000000000"
      "0000000000000000000000000000000000000100000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000600000000000000010000000000"
      "00002a0000000000000000000000d01233410000000000000000e80300000000"
      "0000000000000000000000000000000000000c00000000000000010000000000"
      "0000000400000000ffffffffffffffff01010000000000000001000000000000"
      "0001000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000010000000000000000010000000001"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000001000000"
      "060000004d415030303101010000004803000000000000000700000000000000"
      "030000006d73670400000068696e7401000000000000000040e2010000000000"
      "0000000000000000";
  EXPECT_EQ(to_hex(encoded(sample_response())), kGoldenHex);
}

TEST(WireCodec, ResponseRoundTripKeepsEveryWireField) {
  // Every carried field set to a non-default value, so a field the
  // decoder dropped or swapped cannot hide behind a default.
  const analyze::Diagnostic fm_diag = diag(
      "FM001", analyze::Severity::kError, "H(1,2)", 5, -9, "late", "shift t0");
  const analyze::Diagnostic exec_diag =
      diag("EXEC002", analyze::Severity::kInfo, "x[3]", -1, 11, "m", "");
  Response in;
  in.status = Status::kRejected;
  in.kind = RequestKind::kLegality;
  in.cache_hit = true;
  in.deadline_cut = true;
  in.cost.makespan_cycles = 77;
  in.cost.makespan = Time::picoseconds(15400.5);
  in.cost.compute_energy = Energy::femtojoules(1.25);
  in.cost.onchip_movement_energy = Energy::femtojoules(2.25);
  in.cost.local_access_energy = Energy::femtojoules(3.25);
  in.cost.dram_energy = Energy::femtojoules(4.25);
  in.cost.messages = 9;
  in.cost.bit_hops = 288;
  in.cost.total_ops = 64.0;
  in.legality.ok = false;
  in.legality.causality_violations = 1;
  in.legality.exclusivity_violations = 2;
  in.legality.storage_violations = 3;
  in.legality.bandwidth_violations = 4;
  in.legality.peak_live_values = 17;
  in.legality.peak_live_pe = 6;
  in.legality.peak_link_bits_per_cycle = 96.5;
  in.legality.peak_link = 13;
  in.legality.diagnostics = {fm_diag, exec_diag};
  in.search.found = true;
  in.search.best.map = fm::AffineMap{.ti = 2, .tj = 1, .tk = 3, .t0 = -4,
                                     .xi = 1, .xj = -1, .xk = 2, .x0 = 5,
                                     .yi = 1, .yj = 2, .yk = -3, .y0 = 1,
                                     .cols = 8, .rows = 3};
  in.search.best.cost = in.cost;
  in.search.best.cost.makespan_cycles = 78;
  in.search.best.merit = 2.5e7;
  in.search.best.slot = 31;
  in.search.enumerated = 500;
  in.search.quick_rejected = 300;
  in.search.verify_rejected = 150;
  in.search.legal = 50;
  in.search.exhausted = false;
  in.search.next_offset = 440;
  in.search.workers_used = 3;
  in.lint = {exec_diag};
  in.exec_checked = true;
  in.exec = {fm_diag};
  in.error = "busy";
  in.latency = std::chrono::nanoseconds(654321);
  in.retry_after = std::chrono::nanoseconds(1000000);

  const std::vector<std::uint8_t> bytes = encoded(in);
  Reader r(bytes);
  const Response out = decode_response(r);
  EXPECT_NO_THROW(r.expect_end());

  const auto expect_same_cost = [](const fm::CostReport& a,
                                   const fm::CostReport& b) {
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
  };
  const auto expect_same_diags =
      [](const std::vector<analyze::Diagnostic>& a,
         const std::vector<analyze::Diagnostic>& b) {
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].rule_id, b[i].rule_id);
          EXPECT_EQ(a[i].severity, b[i].severity);
          EXPECT_EQ(a[i].location.op, b[i].location.op);
          EXPECT_EQ(a[i].location.pe, b[i].location.pe);
          EXPECT_EQ(a[i].location.cycle, b[i].location.cycle);
          EXPECT_EQ(a[i].message, b[i].message);
          EXPECT_EQ(a[i].hint, b[i].hint);
        }
      };

  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.kind, in.kind);
  EXPECT_EQ(out.cache_hit, in.cache_hit);
  EXPECT_EQ(out.deadline_cut, in.deadline_cut);
  expect_same_cost(out.cost, in.cost);

  EXPECT_EQ(out.legality.ok, in.legality.ok);
  EXPECT_EQ(out.legality.causality_violations, 1u);
  EXPECT_EQ(out.legality.exclusivity_violations, 2u);
  EXPECT_EQ(out.legality.storage_violations, 3u);
  EXPECT_EQ(out.legality.bandwidth_violations, 4u);
  EXPECT_EQ(out.legality.peak_live_values, 17);
  EXPECT_EQ(out.legality.peak_live_pe, 6);
  EXPECT_EQ(out.legality.peak_link_bits_per_cycle, 96.5);
  EXPECT_EQ(out.legality.peak_link, 13);
  expect_same_diags(out.legality.diagnostics, in.legality.diagnostics);

  EXPECT_EQ(out.search.found, in.search.found);
  const fm::AffineMap& m = out.search.best.map;
  const fm::AffineMap& e = in.search.best.map;
  EXPECT_EQ((std::vector<std::int64_t>{m.ti, m.tj, m.tk, m.t0, m.xi, m.xj,
                                       m.xk, m.x0, m.yi, m.yj, m.yk, m.y0,
                                       m.cols, m.rows}),
            (std::vector<std::int64_t>{e.ti, e.tj, e.tk, e.t0, e.xi, e.xj,
                                       e.xk, e.x0, e.yi, e.yj, e.yk, e.y0,
                                       e.cols, e.rows}));
  // The best candidate's cost is rebuilt from `cost` plus its own
  // makespan, the only part of it that crosses separately.
  expect_same_cost(out.search.best.cost, in.search.best.cost);
  EXPECT_EQ(out.search.best.merit, in.search.best.merit);
  EXPECT_EQ(out.search.best.slot, in.search.best.slot);
  EXPECT_EQ(out.search.enumerated, in.search.enumerated);
  EXPECT_EQ(out.search.quick_rejected, in.search.quick_rejected);
  EXPECT_EQ(out.search.verify_rejected, in.search.verify_rejected);
  EXPECT_EQ(out.search.legal, in.search.legal);
  EXPECT_EQ(out.search.exhausted, in.search.exhausted);
  EXPECT_EQ(out.search.next_offset, in.search.next_offset);
  EXPECT_EQ(out.search.workers_used, in.search.workers_used);

  expect_same_diags(out.lint, in.lint);
  EXPECT_EQ(out.exec_checked, in.exec_checked);
  expect_same_diags(out.exec, in.exec);
  EXPECT_EQ(out.error, in.error);
  EXPECT_EQ(out.latency, in.latency);
  EXPECT_EQ(out.retry_after, in.retry_after);
}

fm::TableMap sample_table() {
  fm::TableMap t;
  t.target = 2;
  t.domain = fm::IndexDomain(2, 3);
  t.cols = 3;
  t.rows = 2;
  t.pe = {0, 1, 2, 3, 4, 5};
  t.cycle = {0, 1, 2, 2, 3, 4};
  t.input_home = {-1, 4};
  t.input_refs = {{0, fm::Point{1, 0, 0}}, {1, fm::Point{0, 2, 0}}};
  return t;
}

/// A pipeline-tune reply with both searcher tiers populated: an
/// exhaustive stage and a table (stochastic) stage.
Response sample_pipeline_response() {
  Response resp;
  resp.kind = RequestKind::kPipelineTune;
  resp.cost.makespan_cycles = 19;
  resp.cost.compute_energy = Energy::femtojoules(7.5);
  fm::StageResult head;
  head.name = "head";
  head.found = true;
  head.affine = fm::AffineMap{.ti = 1, .xi = 1, .cols = 3, .rows = 2};
  head.cost.makespan_cycles = 9;
  head.merit = 12.5;
  head.search.found = true;
  head.search.best.map = head.affine;
  head.search.best.cost = head.cost;
  head.search.enumerated = 40;
  head.search.legal = 6;
  head.search.workers_used = 2;
  head.home_fingerprint = 0xabcdef;
  head.finish_cycle = 9;
  fm::StageResult tail;
  tail.name = "tail";
  tail.found = true;
  tail.table = sample_table();
  tail.cost.makespan_cycles = 10;
  tail.strategy.found = true;
  tail.strategy.best = tail.table;
  tail.strategy.cost = tail.cost;
  tail.strategy.merit = 3.25;
  tail.strategy.moves_tried = 300;
  tail.strategy.moves_accepted = 120;
  tail.strategy.moves_rejected_illegal = 44;
  tail.strategy.epochs_run = 5;
  tail.strategy.reheats = 1;
  tail.strategy.chains_used = 2;
  tail.strategy.workers_used = 2;
  tail.start_cycle = 9;
  tail.finish_cycle = 19;
  resp.pipeline.found = true;
  resp.pipeline.stages = {head, tail};
  resp.pipeline.total = resp.cost;
  resp.pipeline.merit = 15.75;
  resp.pipeline.probe_searches = 3;
  return resp;
}

TEST(WireCodec, StrategyAndPipelineRepliesRoundTrip) {
  Response anneal;
  anneal.kind = RequestKind::kTune;
  anneal.strategy = sample_pipeline_response().pipeline.stages[1].strategy;
  anneal.strategy.completed = false;
  for (const Response& in : {anneal, sample_pipeline_response()}) {
    const std::vector<std::uint8_t> bytes = encoded(in);
    Reader r(bytes);
    const Response out = decode_response(r);
    EXPECT_NO_THROW(r.expect_end());
    EXPECT_EQ(encoded(out), bytes);

    const fm::StrategyResult& s = out.strategy;
    EXPECT_EQ(s.found, in.strategy.found);
    EXPECT_EQ(s.best.domain, in.strategy.best.domain);
    EXPECT_EQ(s.best.pe, in.strategy.best.pe);
    EXPECT_EQ(s.best.cycle, in.strategy.best.cycle);
    EXPECT_EQ(s.best.input_home, in.strategy.best.input_home);
    EXPECT_EQ(s.best.input_refs.size(), in.strategy.best.input_refs.size());
    EXPECT_EQ(s.moves_rejected_illegal, in.strategy.moves_rejected_illegal);
    EXPECT_EQ(s.completed, in.strategy.completed);
    EXPECT_EQ(s.workers_used, in.strategy.workers_used);
    EXPECT_EQ(converged(out), converged(in));

    const fm::PipelineResult& p = out.pipeline;
    ASSERT_EQ(p.stages.size(), in.pipeline.stages.size());
    for (std::size_t i = 0; i < p.stages.size(); ++i) {
      const fm::StageResult& a = p.stages[i];
      const fm::StageResult& b = in.pipeline.stages[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.affine.ti, b.affine.ti);
      EXPECT_EQ(a.table.pe, b.table.pe);
      EXPECT_EQ(a.table.input_refs.size(), b.table.input_refs.size());
      EXPECT_EQ(a.cost.makespan_cycles, b.cost.makespan_cycles);
      EXPECT_EQ(a.search.enumerated, b.search.enumerated);
      EXPECT_EQ(a.strategy.moves_tried, b.strategy.moves_tried);
      EXPECT_EQ(a.home_fingerprint, b.home_fingerprint);
      EXPECT_EQ(a.start_cycle, b.start_cycle);
      EXPECT_EQ(a.finish_cycle, b.finish_cycle);
    }
    EXPECT_EQ(p.found, in.pipeline.found);
    EXPECT_EQ(p.merit, in.pipeline.merit);
    EXPECT_EQ(p.probe_searches, in.pipeline.probe_searches);
  }
}

TEST(WireCodec, ResponseDecodeRejectsOutOfRangeEnums) {
  const std::vector<std::uint8_t> good = encoded(sample_response());
  const auto decode = [](const std::vector<std::uint8_t>& bytes) {
    Reader r(bytes);
    return decode_response(r);
  };
  std::vector<std::uint8_t> bad = good;
  bad[0] = 3;  // status
  EXPECT_THROW((void)decode(bad), WireError);
  bad = good;
  bad[1] = static_cast<std::uint8_t>(RequestKind::kPipelineTune) + 1;
  EXPECT_THROW((void)decode(bad), WireError);

  // The lint diagnostic's severity byte sits right after its rule id.
  const std::string rule = "MAP001";
  const auto at = std::search(good.begin(), good.end(), rule.begin(),
                              rule.end());
  ASSERT_NE(at, good.end());
  bad = good;
  bad[static_cast<std::size_t>(at - good.begin()) + rule.size()] = 3;
  EXPECT_THROW((void)decode(bad), WireError);
}

TEST(WireCodec, MetricsEncodingIsCanonical) {
  WireMetrics m;
  m.submitted = 100;
  m.completed = 98;
  m.errors = 2;
  m.cache_hits = 40;
  m.compile_misses = 3;
  m.latency_buckets.assign(LatencyHistogram::kNumBuckets, 0);
  m.latency_buckets[10] = 55;
  m.latency_buckets[20] = 7;

  Writer w;
  encode(w, m);
  Reader r(w.data());
  const WireMetrics back = decode_metrics(r);
  EXPECT_NO_THROW(r.expect_end());
  EXPECT_EQ(back.completed, 98u);
  EXPECT_EQ(back.latency_buckets, m.latency_buckets);

  Writer w2;
  encode(w2, back);
  EXPECT_EQ(w2.data(), w.data());
}

TEST(WireCodec, TruncatedDecodeThrows) {
  SpecCatalog catalog;
  const std::vector<std::uint8_t> bytes =
      encoded(sample_request(catalog), catalog);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    Reader r(bytes.data(), len);
    EXPECT_THROW((void)decode_request(r, catalog), WireError) << "len=" << len;
  }
}

TEST(WireCodec, TrailingGarbageIsRejected) {
  SpecCatalog catalog;
  std::vector<std::uint8_t> bytes = encoded(sample_request(catalog), catalog);
  bytes.push_back(0x00);
  Reader r(bytes);
  (void)decode_request(r, catalog);
  EXPECT_THROW(r.expect_end(), WireError);
}

TEST(WireCodec, EncodeRefusesWhatTheKeyCannotRead) {
  SpecCatalog catalog;
  const Request base = sample_request(catalog);
  const auto refused = [&](const Request& req) {
    Writer w;
    EXPECT_THROW(encode(w, req, catalog), WireError);
  };
  Request hooked = base;
  hooked.search.cancel = [] { return false; };
  refused(hooked);
  Request strategy_hooked = anneal_request(catalog);
  strategy_hooked.strategy_opts.cancel = [] { return false; };
  refused(strategy_hooked);
  Request scheduled = base;
  sched::Scheduler pool(1);
  scheduled.search.scheduler = &pool;
  refused(scheduled);
  Request resumed = base;
  resumed.search.resume_from = 7;
  refused(resumed);

  // A spec the catalog did not build, though structurally identical.
  Request foreign = base;
  foreign.spec = SpecCatalog().spec("editdist:6x5");
  refused(foreign);
  Request no_spec = base;
  no_spec.spec = nullptr;
  refused(no_spec);

  // A pipeline with a distributed external home: only a hand-built
  // pipeline can carry one, and the catalog never built it.
  fm::Pipeline pipe;
  pipe.add_stage({"scan", catalog.spec("stencil:8,2"),
                  {fm::StageInput::external(fm::InputHome::distributed(
                      [](const fm::Point&) { return noc::Coord{0, 0}; }))}});
  Request distributed;
  distributed.kind = RequestKind::kPipelineTune;
  distributed.pipeline = std::make_shared<const fm::Pipeline>(std::move(pipe));
  refused(distributed);
}

TEST(WireCodec, DecodeRefusesOversizedGrids) {
  SpecCatalog catalog;
  Request req = sample_request(catalog);
  req.kind = RequestKind::kCostEval;
  req.map = fm::AffineMap{.ti = 1, .xi = 1, .cols = 6, .rows = 1};
  const std::vector<std::uint8_t> good = encoded(req, catalog);
  // The grid's (cols, rows) follow [u8 kind][u32 len][name].
  const std::size_t at = 1 + 4 + catalog.name_of(*req.spec).size();
  const auto with_grid = [&](std::int64_t cols, std::int64_t rows) {
    std::vector<std::uint8_t> bytes = good;
    std::memcpy(bytes.data() + at, &cols, sizeof cols);
    std::memcpy(bytes.data() + at + 8, &rows, sizeof rows);
    return bytes;
  };
  EXPECT_NO_THROW((void)decoded(with_grid(32, 32), catalog));  // 1024 PEs
  for (const auto& [cols, rows] :
       std::vector<std::pair<std::int64_t, std::int64_t>>{
           {65536, 65536}, {200, 200}, {1025, 1}, {0, 4}, {4, -1}}) {
    EXPECT_THROW((void)decoded(with_grid(cols, rows), catalog), WireError)
        << cols << "x" << rows;
  }
}

// ---------------------------------------------------------------------
// make_cache_key is the routing key: QoS out, semantics in.
// ---------------------------------------------------------------------

TEST(CacheKey, ExcludesQoSFields) {
  SpecCatalog catalog;
  const Request base = sample_request(catalog);
  const CacheKey key = make_cache_key(base);

  Request patient = base;
  patient.deadline = std::chrono::nanoseconds{0};
  patient.tune_workers = 0;
  EXPECT_EQ(make_cache_key(patient), key)
      << "deadline/workers are QoS, not identity";

  Request hurried = base;
  hurried.deadline = std::chrono::nanoseconds{1};
  hurried.tune_workers = 16;
  EXPECT_EQ(make_cache_key(hurried), key);
}

TEST(CacheKey, CoversSemanticFields) {
  SpecCatalog catalog;
  Request base = sample_request(catalog);
  base.kind = RequestKind::kLegality;
  base.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 6, .rows = 1};
  const CacheKey key = make_cache_key(base);

  Request other_spec = base;
  other_spec.spec = catalog.spec("editdist:6x6");
  EXPECT_NE(make_cache_key(other_spec), key);

  Request other_map = base;
  other_map.map.tj = 2;
  EXPECT_NE(make_cache_key(other_map), key);

  Request other_machine = base;
  other_machine.machine = fm::make_machine(7, 2);
  EXPECT_NE(make_cache_key(other_machine), key);

  Request other_kind = base;
  other_kind.kind = RequestKind::kCostEval;
  EXPECT_NE(make_cache_key(other_kind), key);

  // The diagnostic cap shapes a legality reply, so it is keyed (and
  // therefore crosses the wire).
  Request other_cap = base;
  other_cap.verify.max_messages = 2;
  EXPECT_NE(make_cache_key(other_cap), key);
  Writer w;
  encode(w, other_cap, catalog);
  EXPECT_EQ(decoded(w.data(), catalog).verify.max_messages, 2u);
}

TEST(SemanticBytes, IgnoresDeliveryMetadataOnly) {
  const Response a = sample_response();
  Response b = a;
  // How the answer was produced, not what it is.  (Shard, stolen and
  // coalesced live on Router's RoutedReply, outside the Response.)
  b.cache_hit = !a.cache_hit;
  b.latency = a.latency + std::chrono::nanoseconds(999);
  b.search.workers_used = a.search.workers_used + 3;
  EXPECT_EQ(semantic_bytes(a), semantic_bytes(b));

  // Lane counts are delivery detail in every tier: the stochastic
  // winner's and each pipeline stage's.
  const Response p = sample_pipeline_response();
  Response q = p;
  q.strategy.workers_used = 9;
  for (fm::StageResult& st : q.pipeline.stages) {
    st.search.workers_used += 5;
    st.strategy.workers_used += 5;
  }
  EXPECT_EQ(semantic_bytes(p), semantic_bytes(q));
  q.pipeline.stages[1].strategy.moves_accepted += 1;
  EXPECT_NE(semantic_bytes(p), semantic_bytes(q));

  Response c = a;
  c.cost.makespan_cycles += 1;
  EXPECT_NE(semantic_bytes(a), semantic_bytes(c));
}

TEST(Snapshot, RoundTripsAndChecksVersion) {
  CacheSnapshot snap;
  snap.entries.push_back(SnapshotEntry{CacheKey{0x0102, 0x0304}, {4, 5}});
  snap.entries.push_back(SnapshotEntry{CacheKey{9, ~0ULL}, {}});
  const std::vector<std::uint8_t> bytes = encode(snap);
  // [u32 version][u32 count], then per entry [u64 hi][u64 lo][bytes].
  EXPECT_EQ(bytes.size(), 4u + 4u + (8u + 8u + 4u + 2u) + (8u + 8u + 4u));
  const CacheSnapshot back = decode_snapshot(bytes);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].key, (CacheKey{0x0102, 0x0304}));
  EXPECT_EQ(back.entries[0].response, (std::vector<std::uint8_t>{4, 5}));
  EXPECT_EQ(back.entries[1].key, (CacheKey{9, ~0ULL}));
  EXPECT_EQ(back.entries[1].response, std::vector<std::uint8_t>{});
  EXPECT_EQ(encode(back), bytes);

  std::vector<std::uint8_t> skewed = bytes;
  skewed[0] = 0xfe;  // version byte
  EXPECT_THROW((void)decode_snapshot(skewed), WireError);
  // Version 1 snapshots carried replies with the router's delivery tail,
  // version 2 keyed entries by encoded request instead of cache key,
  // and version 3 replies lacked the strategy and pipeline tiers; all
  // are rejected rather than misparsed.
  for (const std::uint8_t old : {1, 2, 3}) {
    skewed[0] = old;
    EXPECT_THROW((void)decode_snapshot(skewed), WireError) << int{old};
  }
}

// ---------------------------------------------------------------------
// Corrupt input: every decoder either returns or throws WireError.
// ---------------------------------------------------------------------

/// Decodes every proper prefix of `bytes` and every single-bit flip of
/// it.  Any exception other than WireError fails the test; a crash or a
/// sanitizer report fails the run.
template <typename Decode>
void sweep_corruptions(const std::vector<std::uint8_t>& bytes,
                       const char* what, Decode decode) {
  const auto survives = [&](const std::vector<std::uint8_t>& input,
                            const std::string& how) {
    try {
      decode(input);
    } catch (const WireError&) {
      // Clean rejection.
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " " << how << ": non-WireError exception "
                    << e.what();
    }
  };
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    survives(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + len),
             "truncated to " + std::to_string(len));
  }
  std::vector<std::uint8_t> flipped = bytes;
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    survives(flipped, "bit " + std::to_string(bit) + " flipped");
    flipped[bit / 8] = bytes[bit / 8];
  }
}

void decode_whole_response(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  (void)decode_response(r);
  r.expect_end();
}

TEST(CorruptInput, RequestDecoderReturnsOrThrowsWireError) {
  // One catalog for the whole sweep, as on a shard: a flipped digit in
  // the name builds (and memoizes) a neighbouring spec, within budget.
  SpecCatalog catalog;
  for (const Request& req :
       {sample_request(catalog), anneal_request(catalog)}) {
    sweep_corruptions(encoded(req, catalog), "request",
                      [&](const std::vector<std::uint8_t>& bytes) {
                        (void)decoded(bytes, catalog);
                      });
  }
}

TEST(CorruptInput, ResponseDecoderReturnsOrThrowsWireError) {
  sweep_corruptions(encoded(sample_response()), "response",
                    decode_whole_response);
  sweep_corruptions(encoded(sample_pipeline_response()), "pipeline response",
                    decode_whole_response);
}

TEST(CorruptInput, SnapshotDecoderReturnsOrThrowsWireError) {
  CacheSnapshot snap;
  snap.entries.push_back(SnapshotEntry{CacheKey{0x0bad5eed, 0xfeedface},
                                       encoded(sample_response())});
  // Decode the container and then its entries, as Worker::restore does.
  sweep_corruptions(encode(snap), "snapshot",
                    [](const std::vector<std::uint8_t>& bytes) {
                      for (const SnapshotEntry& e :
                           decode_snapshot(bytes).entries) {
                        decode_whole_response(e.response);
                      }
                    });
}

// ---------------------------------------------------------------------
// Transports: the same Frame crosses both, byte-for-byte.
// ---------------------------------------------------------------------

void exercise_channel(const ChannelPair& pair) {
  Frame big;
  big.type = MsgType::kSubmit;
  big.id = 0x1122334455667788ULL;
  big.body.resize(100'000);
  for (std::size_t i = 0; i < big.body.size(); ++i) {
    big.body[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(pair.left->send(big));
  ASSERT_TRUE(pair.left->send(Frame{MsgType::kMetricsGet, 2, {}}));

  Frame got;
  ASSERT_TRUE(pair.right->recv(got));
  EXPECT_EQ(got.type, MsgType::kSubmit);
  EXPECT_EQ(got.id, big.id);
  EXPECT_EQ(got.body, big.body);
  ASSERT_TRUE(pair.right->recv(got));
  EXPECT_EQ(got.type, MsgType::kMetricsGet);
  EXPECT_TRUE(got.body.empty());

  // Reverse direction.
  ASSERT_TRUE(pair.right->send(Frame{MsgType::kReply, 3, {0xaa}}));
  ASSERT_TRUE(pair.left->recv(got));
  EXPECT_EQ(got.type, MsgType::kReply);
  EXPECT_EQ(got.body, std::vector<std::uint8_t>{0xaa});

  // Close: frames sent before the close still drain, then recv reports
  // EOF — the property the worker relies on to finish in-flight work.
  ASSERT_TRUE(pair.left->send(Frame{MsgType::kShutdown, 4, {}}));
  pair.left->close();
  ASSERT_TRUE(pair.right->recv(got));
  EXPECT_EQ(got.type, MsgType::kShutdown);
  EXPECT_FALSE(pair.right->recv(got));
  EXPECT_FALSE(pair.right->send(Frame{MsgType::kReply, 5, {}}));
}

TEST(Transport, LoopbackDeliversFramesAndDrainsOnClose) {
  exercise_channel(make_loopback_pair());
}

TEST(Transport, SocketpairDeliversFramesAndDrainsOnClose) {
  exercise_channel(make_socket_pair());
}

TEST(Transport, SocketpairCrossesThreads) {
  const ChannelPair pair = make_socket_pair();
  constexpr int kFrames = 200;
  std::thread producer([&] {
    for (int i = 0; i < kFrames; ++i) {
      Frame f{MsgType::kSubmit, static_cast<std::uint64_t>(i), {}};
      f.body.assign(static_cast<std::size_t>(i % 17) * 100, 0x5c);
      ASSERT_TRUE(pair.left->send(f));
    }
    pair.left->close();
  });
  Frame got;
  int received = 0;
  while (pair.right->recv(got)) {
    EXPECT_EQ(got.id, static_cast<std::uint64_t>(received));
    EXPECT_EQ(got.body.size(), static_cast<std::size_t>(received % 17) * 100);
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, kFrames);
}

TEST(Transport, SocketRecvDoesNotTrustTheAnnouncedLength) {
  // A peer announces a maximal frame, sends a few bytes and hangs up.
  // recv must report the short frame without first allocating the
  // announced kMaxFrameBytes: peak RSS grows by well under 64 MB.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::shared_ptr<Channel> ch = channel_from_fd(fds[0]);
  std::vector<std::uint8_t> bytes(4 + 16, 0x5a);
  const std::uint32_t len = kMaxFrameBytes;
  std::memcpy(bytes.data(), &len, sizeof len);
  ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(fds[1]);

  rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
  Frame got;
  EXPECT_FALSE(ch->recv(got));
  rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  const long grown_kib = after.ru_maxrss - before.ru_maxrss;  // KiB on Linux
  EXPECT_LT(grown_kib, 64L * 1024);
}

// ---------------------------------------------------------------------
// Spec catalog: both ends rebuild the same Request.
// ---------------------------------------------------------------------

TEST(SpecCatalog, RebuildAgreesOnCacheKeyAcrossTheWire) {
  SpecCatalog router_catalog;
  Request req = sample_request(router_catalog);
  req.kind = RequestKind::kCostEval;

  // Shard side: rebuild from the frame, in a fresh catalog.
  SpecCatalog shard_catalog;
  const Request shard_view =
      decoded(encoded(req, router_catalog), shard_catalog);
  ASSERT_NE(shard_view.spec.get(), req.spec.get());

  EXPECT_EQ(make_cache_key(req), make_cache_key(shard_view));
  constexpr std::uint64_t kHomes = 0x5eed;  // any resolved-home fingerprint
  EXPECT_EQ(make_stage_compile_key(*req.spec, req.machine, kHomes),
            make_stage_compile_key(*shard_view.spec, shard_view.machine,
                                   kHomes));
}

TEST(SpecCatalog, AllFamiliesBuildMemoizeAndName) {
  SpecCatalog catalog;
  for (const char* name : {"editdist:4x5", "stencil:16,4", "conv:24,3",
                           "matmul:4", "irregular:12,3,7"}) {
    const auto first = catalog.spec(name);
    ASSERT_NE(first, nullptr) << name;
    // Memoized: the second probe is the same object, not a rebuild.
    EXPECT_EQ(catalog.spec(name), first) << name;
    EXPECT_EQ(catalog.name_of(*first), name);
  }
  for (const char* name :
       {"fft:8", "scanchain:6", "diamond:4", "irregular:8,2,3"}) {
    const auto first = catalog.pipeline(name);
    ASSERT_NE(first, nullptr) << name;
    EXPECT_EQ(catalog.pipeline(name), first) << name;
    EXPECT_EQ(catalog.name_of(*first), name);
  }
  // Specs and pipelines are separate namespaces: one name, two objects.
  EXPECT_EQ(catalog.name_of(*catalog.spec("irregular:8,2,3")),
            catalog.name_of(*catalog.pipeline("irregular:8,2,3")));
  // A structurally identical spec built elsewhere has no name here.
  EXPECT_THROW((void)catalog.name_of(*SpecCatalog().spec("matmul:4")),
               WireError);
}

TEST(SpecCatalog, RejectsUnknownAndMalformedNames) {
  SpecCatalog catalog;
  EXPECT_THROW((void)catalog.spec("bogus:3"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist:4"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist:4x-2"), WireError);
  EXPECT_THROW((void)catalog.spec("matmul:abc"), WireError);
  // All digits, but past int64: still a WireError, not out_of_range.
  EXPECT_THROW((void)catalog.spec("editdist:99999999999999999999x2"),
               WireError);
  EXPECT_THROW((void)catalog.spec("irregular:12,3"), WireError);
  // Zero extents are bad names, not builder preconditions.
  EXPECT_THROW((void)catalog.spec("editdist:0x4"), WireError);
  EXPECT_THROW((void)catalog.spec("stencil:8,0"), WireError);
  EXPECT_THROW((void)catalog.spec("irregular:12,0,7"), WireError);
  // Over the 2^20-point budget: matmul's N^3 would overflow a domain
  // size, an INT_MAX+1 fan-in would wrap the int cast.
  EXPECT_THROW((void)catalog.spec("matmul:3000000"), WireError);
  EXPECT_THROW((void)catalog.spec("matmul:102"), WireError);
  EXPECT_THROW((void)catalog.spec("editdist:1025x1024"), WireError);
  EXPECT_THROW((void)catalog.spec("irregular:12,2147483648,7"), WireError);
  EXPECT_NO_THROW((void)catalog.spec("editdist:1024x1024"));
  EXPECT_NO_THROW((void)catalog.spec("matmul:101"));
  // Pipelines: same grammar rules, plus the builders' own shape checks.
  EXPECT_THROW((void)catalog.pipeline("bogus:4"), WireError);
  EXPECT_THROW((void)catalog.pipeline("editdist:4x4"), WireError);
  EXPECT_THROW((void)catalog.pipeline("fft:3"), WireError);  // not 2^k
  EXPECT_THROW((void)catalog.pipeline("fft:0"), WireError);
  EXPECT_THROW((void)catalog.pipeline("scanchain:2000000"), WireError);
  EXPECT_THROW((void)catalog.pipeline("irregular:8,2"), WireError);
  // Nothing refused was memoized or named.
  EXPECT_THROW((void)catalog.pipeline("fft:3"), WireError);
}

}  // namespace
}  // namespace harmony::serve
