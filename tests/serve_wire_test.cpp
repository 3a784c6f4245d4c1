// Wire codec, routing identity, transports, and spec-catalog rebuild
// equivalence (DESIGN.md §17, ISSUE 10).
//
// The distributed tier's correctness rests on four codec-level facts
// pinned here:
//   * every message body round-trips bit-exactly (re-encoding a decode
//     reproduces the original bytes — the encoding is canonical), and
//     the reply layout is pinned byte for byte;
//   * truncated or bit-flipped frames throw WireError instead of
//     reading past the end or crashing;
//   * routing_key() covers the semantic fields and *excludes* the QoS
//     fields, so a deadline change never migrates a key off its warm
//     shard;
//   * the router's spec rebuild and the shard's spec rebuild agree on
//     make_cache_key bit for bit — the property that lets a shard's
//     result cache serve a key the router hashed.

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

#include "serve/catalog.hpp"
#include "serve/request.hpp"
#include "serve/snapshot.hpp"
#include "serve/wire.hpp"

namespace harmony::serve {
namespace {

WireRequest sample_request() {
  WireRequest req;
  req.kind = RequestKind::kTune;
  req.spec = "editdist:6x5";
  req.machine_cols = 6;
  req.machine_rows = 2;
  req.cycle_ps = 250.0;
  req.pe_capacity_values = 4096;
  req.link_bits_per_cycle = 128.0;
  req.local_access_pitch_fraction = 0.5;
  req.fom = fm::FigureOfMerit::kTime;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::dram()};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 6, .rows = 1};
  req.check_storage = false;
  req.check_bandwidth = true;
  req.max_messages = 16;
  req.time_coeffs = {-2, -1, 0, 1, 2};
  req.space_coeffs = {0, 1};
  req.search_y = false;
  req.quick_sample = 32;
  req.makespan_slack = 3.5;
  req.top_k = 3;
  req.deadline_ns = 5'000'000;
  req.tune_workers = 4;
  return req;
}

std::vector<std::uint8_t> encoded(const WireRequest& req) {
  Writer w;
  encode(w, req);
  return w.take();
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
  const WireRequest req = sample_request();
  const std::vector<std::uint8_t> bytes = encoded(req);

  Reader r(bytes);
  const WireRequest back = decode_request(r);
  EXPECT_NO_THROW(r.expect_end());

  // Spot-check the fields a byte comparison cannot localize...
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.spec, req.spec);
  EXPECT_EQ(back.machine_cols, req.machine_cols);
  EXPECT_EQ(back.cycle_ps, req.cycle_ps);
  EXPECT_EQ(back.inputs.size(), 2u);
  EXPECT_EQ(back.inputs[0].kind, InputPlacement::Kind::kPe);
  EXPECT_EQ(back.inputs[1].kind, InputPlacement::Kind::kDram);
  EXPECT_EQ(back.map.cols, 6);
  EXPECT_EQ(back.time_coeffs, req.time_coeffs);
  EXPECT_EQ(back.deadline_ns, req.deadline_ns);
  EXPECT_EQ(back.tune_workers, req.tune_workers);
  // ...then pin canonicality: re-encoding the decode is bit-identical.
  EXPECT_EQ(encoded(back), bytes);
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
  // The reply bytes of sample_response() as CacheSnapshot version 1
  // encoded them, minus the 6-byte router delivery tail (u32 shard,
  // stolen, coalesced) that replies no longer carry.  Any change here
  // is a wire-format change: bump CacheSnapshot::kVersion with it.
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
      "0000000400000001000000060000004d41503030310101000000480300000000"
      "0000000700000000000000030000006d73670400000068696e74010000000000"
      "00000040e20100000000000000000000000000";
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
  const std::vector<std::uint8_t> bytes = encoded(sample_request());
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    Reader r(bytes.data(), len);
    EXPECT_THROW((void)decode_request(r), WireError) << "len=" << len;
  }
}

TEST(WireCodec, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> bytes = encoded(sample_request());
  bytes.push_back(0x00);
  Reader r(bytes);
  (void)decode_request(r);
  EXPECT_THROW(r.expect_end(), WireError);
}

TEST(RoutingKey, ExcludesQoSFields) {
  const WireRequest base = sample_request();
  const CacheKey key = routing_key(base);

  WireRequest patient = base;
  patient.deadline_ns = 0;
  patient.tune_workers = 0;
  EXPECT_EQ(routing_key(patient), key)
      << "deadline/workers are QoS, not identity";

  WireRequest hurried = base;
  hurried.deadline_ns = 1;
  hurried.tune_workers = 16;
  EXPECT_EQ(routing_key(hurried), key);
}

TEST(RoutingKey, CoversSemanticFields) {
  const WireRequest base = sample_request();
  const CacheKey key = routing_key(base);

  WireRequest other_spec = base;
  other_spec.spec = "editdist:6x6";
  EXPECT_NE(routing_key(other_spec), key);

  WireRequest other_map = base;
  other_map.map.tj = 2;
  EXPECT_NE(routing_key(other_map), key);

  WireRequest other_machine = base;
  other_machine.machine_cols = 7;
  EXPECT_NE(routing_key(other_machine), key);

  WireRequest other_kind = base;
  other_kind.kind = RequestKind::kCostEval;
  EXPECT_NE(routing_key(other_kind), key);
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
  // and version 2 keyed entries by encoded request instead of cache
  // key; both are rejected rather than misparsed.
  skewed[0] = 1;
  EXPECT_THROW((void)decode_snapshot(skewed), WireError);
  skewed[0] = 2;
  EXPECT_THROW((void)decode_snapshot(skewed), WireError);
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

void decode_whole_request(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  (void)decode_request(r);
  r.expect_end();
}

void decode_whole_response(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  (void)decode_response(r);
  r.expect_end();
}

TEST(CorruptInput, RequestDecoderReturnsOrThrowsWireError) {
  sweep_corruptions(encoded(sample_request()), "request",
                    decode_whole_request);
}

TEST(CorruptInput, ResponseDecoderReturnsOrThrowsWireError) {
  sweep_corruptions(encoded(sample_response()), "response",
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
  WireRequest wire = sample_request();
  wire.kind = RequestKind::kCostEval;

  // Router side: rebuild from the in-memory WireRequest.
  SpecCatalog router_catalog;
  const Request router_view = to_request(wire, router_catalog);

  // Shard side: rebuild from the *decoded* frame, in a fresh catalog.
  const std::vector<std::uint8_t> bytes = encoded(wire);
  Reader r(bytes);
  const WireRequest off_the_wire = decode_request(r);
  SpecCatalog shard_catalog;
  const Request shard_view = to_request(off_the_wire, shard_catalog);

  EXPECT_EQ(make_cache_key(router_view), make_cache_key(shard_view));
  constexpr std::uint64_t kHomes = 0x5eed;  // any resolved-home fingerprint
  EXPECT_EQ(make_stage_compile_key(*router_view.spec, router_view.machine,
                                   kHomes),
            make_stage_compile_key(*shard_view.spec, shard_view.machine,
                                   kHomes));
}

TEST(SpecCatalog, AllFamiliesBuildAndMemoize) {
  SpecCatalog catalog;
  for (const char* name : {"editdist:4x5", "stencil:16,4", "conv:24,3",
                           "matmul:4", "irregular:12,3,7"}) {
    const auto first = catalog.spec(name);
    ASSERT_NE(first, nullptr) << name;
    // Memoized: the second probe is the same object, not a rebuild.
    EXPECT_EQ(catalog.spec(name), first) << name;
  }
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
}

TEST(SpecCatalog, ToRequestAppliesMachineOverrides) {
  SpecCatalog catalog;
  const WireRequest wire = sample_request();
  const Request req = to_request(wire, catalog);
  EXPECT_EQ(req.machine.geom.cols(), 6);
  EXPECT_EQ(req.machine.geom.rows(), 2);
  EXPECT_EQ(req.machine.cycle.picoseconds(), 250.0);
  EXPECT_EQ(req.machine.pe_capacity_values, 4096);
  EXPECT_EQ(req.machine.link_bits_per_cycle, 128.0);
  EXPECT_EQ(req.fom, fm::FigureOfMerit::kTime);
  EXPECT_EQ(req.search.space.time_coeffs, wire.time_coeffs);
  EXPECT_FALSE(req.search.space.search_y);
  EXPECT_EQ(req.deadline.count(), wire.deadline_ns);
}

}  // namespace
}  // namespace harmony::serve
