// harmony::trace: ring-buffer semantics (drop-oldest + counters),
// exporter correctness (Chrome trace-event JSON schema, summarizer
// busy-time and critical-path identities), zero-cost disabled mode,
// concurrent writers (the TSan target), and the instrumentation wired
// into sched::Scheduler, fm::search_affine, and serve::Service.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algos/editdist.hpp"
#include "fm/idioms.hpp"
#include "fm/search.hpp"
#include "sched/scheduler.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace harmony::trace {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON value + recursive-descent parser, enough to validate
// the exporter's output structurally (no external JSON dependency).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] bool has(const std::string& key) const {
    return type == Type::kObject && object.count(key) > 0;
  }
  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    return object.at(key);
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(const std::string& why) {
    if (error_.empty()) {
      error_ = why + " at offset " + std::to_string(pos_);
    }
    pos_ = text_.size();  // unwind
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return '\0';
    }
    return text_[pos_];
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    if (!ok() || pos_ >= text_.size()) {
      fail("expected value");
      return v;
    }
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = string();
      return v;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return v;
    }
    return number();
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue v;
    if (pos_ == start) {
      fail("expected number");
      return v;
    }
    v.type = JsonValue::Type::kNumber;
    try {
      v.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      fail("malformed number");
    }
    return v;
  }

  std::string string() {
    if (!consume('"')) fail("expected string");
    std::string out;
    while (ok() && pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          fail("truncated escape");
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) {
              fail("truncated \\u escape");
            } else {
              pos_ += 4;  // validated length only; value not needed here
              out += '?';
            }
            break;
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    if (!consume('"')) fail("unterminated string");
    return out;
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (!consume('[')) fail("expected array");
    skip_ws();
    if (consume(']')) return v;
    do {
      v.array.push_back(value());
    } while (ok() && consume(','));
    if (!consume(']')) fail("unterminated array");
    return v;
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (!consume('{')) fail("expected object");
    skip_ws();
    if (consume('}')) return v;
    do {
      skip_ws();
      std::string key = string();
      if (!consume(':')) fail("expected ':'");
      v.object.emplace(std::move(key), value());
    } while (ok() && consume(','));
    if (!consume('}')) fail("unterminated object");
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
  std::string error_;
};

// ---------------------------------------------------------------------

std::vector<Event> spans_named(const Capture& cap, const char* cat,
                               const char* name) {
  std::vector<Event> out;
  for (const Event& e : cap.events) {
    if (e.kind == EventKind::kSpan && std::string(e.cat) == cat &&
        std::string(e.name) == name) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(Trace, DisabledByDefaultAndEmitIsANoOp) {
  EXPECT_FALSE(enabled());
  // Event sites outside any session must be safe no-ops.
  emit_span("test", "orphan", 0, 10);
  emit_counter("test", "orphan", 42);
  { Span s("test", "orphan"); }
  TraceSession session;
  session.stop();
  const Capture cap = session.capture();
  EXPECT_EQ(cap.events.size(), 0u);
  EXPECT_EQ(cap.dropped, 0u);
}

TEST(Trace, SessionCapturesSpansCountersAndThreadNames) {
  set_thread_name("trace-test-main");
  TraceSession session;
  EXPECT_TRUE(enabled());
  emit_span("cat", "alpha", 100, 200, /*id=*/7, /*arg0=*/1, /*arg1=*/2);
  emit_counter("cat", "gauge", 99);
  { Span s("cat", "scoped", 3); }
  session.stop();
  EXPECT_FALSE(enabled());

  const Capture cap = session.capture();
  ASSERT_EQ(cap.events.size(), 3u);
  const auto alpha = spans_named(cap, "cat", "alpha");
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_EQ(alpha[0].begin_ns, 100u);
  EXPECT_EQ(alpha[0].end_ns, 200u);
  EXPECT_EQ(alpha[0].id, 7u);
  EXPECT_EQ(alpha[0].arg0, 1u);
  EXPECT_EQ(alpha[0].arg1, 2u);
  EXPECT_EQ(spans_named(cap, "cat", "scoped").size(), 1u);
  bool saw_counter = false;
  for (const Event& e : cap.events) {
    if (e.kind == EventKind::kCounter) {
      saw_counter = true;
      EXPECT_EQ(e.arg0, 99u);
    }
  }
  EXPECT_TRUE(saw_counter);
  bool saw_name = false;
  for (const CapturedThread& t : cap.threads) {
    if (t.name == "trace-test-main") saw_name = true;
  }
  EXPECT_TRUE(saw_name);
  // Events are time-sorted.
  for (std::size_t i = 1; i < cap.events.size(); ++i) {
    EXPECT_LE(cap.events[i - 1].begin_ns, cap.events[i].begin_ns);
  }
}

TEST(Trace, RingDropsOldestAndCountsDropped) {
  TraceSession session(/*events_per_thread=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    emit_span("ring", "e", i, i + 1, /*id=*/i);
  }
  EXPECT_EQ(dropped_total(), 12u);
  session.stop();
  const Capture cap = session.capture();
  ASSERT_EQ(cap.events.size(), 8u);
  EXPECT_EQ(cap.dropped, 12u);
  // The *newest* 8 events survive, in order.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(cap.events[i].id, 12u + i);
  }
}

TEST(Trace, SecondSessionResetsCountsAndCapacity) {
  {
    TraceSession first(/*events_per_thread=*/4);
    for (int i = 0; i < 10; ++i) emit_span("a", "x", i, i + 1);
    EXPECT_EQ(dropped_total(), 6u);
  }
  TraceSession second(/*events_per_thread=*/64);
  EXPECT_EQ(dropped_total(), 0u);
  emit_span("b", "y", 1, 2);
  second.stop();
  const Capture cap = second.capture();
  ASSERT_EQ(cap.events.size(), 1u);
  EXPECT_EQ(std::string(cap.events[0].cat), "b");
  EXPECT_EQ(cap.dropped, 0u);
}

TEST(Trace, CaptureBeforeStopThrows) {
  TraceSession session;
  EXPECT_THROW((void)session.capture(), std::exception);
  session.stop();
  EXPECT_NO_THROW((void)session.capture());
}

TEST(Trace, SecondConcurrentSessionThrows) {
  TraceSession session;
  EXPECT_THROW(TraceSession another, std::exception);
  // The failed constructor must not have disabled the active session.
  EXPECT_TRUE(enabled());
}

TEST(TraceExport, ChromeJsonIsValidTraceEventSchema) {
  set_thread_name("json-writer");
  TraceSession session;
  emit_span("sched", "run", 1000, 2500, /*id=*/1, /*arg0=*/3);
  emit_span("serve", "admit", 2000, 2200, /*id=*/2);
  emit_counter("serve", "queue_depth", 5);
  session.stop();
  const Capture cap = session.capture();

  std::ostringstream os;
  write_chrome_json(os, cap);
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error() << "\n" << os.str();

  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_EQ(events.type, JsonValue::Type::kArray);
  // 3 events + 1 thread_name metadata record.
  ASSERT_EQ(events.array.size(), 4u);

  std::size_t spans = 0, counters = 0, metas = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    const std::string ph = e.at("ph").string;
    ASSERT_TRUE(ph == "X" || ph == "C" || ph == "M") << ph;
    if (ph == "X") {
      ++spans;
      ASSERT_TRUE(e.has("ts"));
      ASSERT_TRUE(e.has("dur"));
      ASSERT_TRUE(e.has("cat"));
      ASSERT_TRUE(e.has("args"));
      EXPECT_EQ(e.at("ts").type, JsonValue::Type::kNumber);
      EXPECT_EQ(e.at("dur").type, JsonValue::Type::kNumber);
      EXPECT_GE(e.at("dur").number, 0.0);
    } else if (ph == "C") {
      ++counters;
      ASSERT_TRUE(e.has("args"));
      ASSERT_TRUE(e.at("args").has("value"));
    } else {
      ++metas;
      EXPECT_EQ(e.at("name").string, "thread_name");
      ASSERT_TRUE(e.at("args").has("name"));
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_EQ(counters, 1u);
  EXPECT_EQ(metas, 1u);

  // Timestamps are normalized to the earliest event and converted to
  // microseconds: the run span began at 1000 ns -> ts 0.0, dur 1.5 us.
  for (const JsonValue& e : events.array) {
    if (e.at("ph").string == "X" && e.at("name").string == "run") {
      EXPECT_DOUBLE_EQ(e.at("ts").number, 0.0);
      EXPECT_DOUBLE_EQ(e.at("dur").number, 1.5);
    }
  }
}

TEST(TraceExport, JsonEscapesThreadNames) {
  set_thread_name("weird \"name\"\\with\nescapes");
  TraceSession session;
  emit_span("c", "n", 0, 1);
  session.stop();
  std::ostringstream os;
  write_chrome_json(os, session.capture());
  JsonParser parser(os.str());
  const JsonValue root = parser.parse();
  ASSERT_TRUE(parser.ok()) << parser.error();
  set_thread_name("trace-test-main");  // restore for later tests
}

TEST(TraceExport, SummarizerBusyTimeEqualsSumOfSpanDurations) {
  TraceSession session;
  emit_span("w", "a", 0, 10);
  emit_span("w", "b", 20, 35);
  emit_span("w", "c", 40, 41);
  emit_counter("w", "ignored", 7);  // counters contribute no busy time
  session.stop();
  const Capture cap = session.capture();
  const Summary s = summarize(cap);

  // Acceptance identity: per-worker busy time == the sum of that
  // worker's span durations in the same capture.
  std::map<std::uint32_t, std::uint64_t> manual;
  for (const Event& e : cap.events) {
    if (e.kind == EventKind::kSpan && std::string(e.name) != "sleep") {
      manual[e.tid] += e.end_ns - e.begin_ns;
    }
  }
  for (const WorkerSummary& w : s.workers) {
    const auto it = manual.find(w.tid);
    const std::uint64_t expect = it == manual.end() ? 0 : it->second;
    EXPECT_EQ(w.busy_ns, expect) << "tid " << w.tid;
  }
  EXPECT_EQ(s.events, cap.events.size());
  EXPECT_EQ(s.wall_ns, 41u);  // max end - min begin over spans

  const Table t = summary_table(s);
  EXPECT_GT(t.rows(), 4u);
}

TEST(TraceExport, SummarizerBusyTimeIsTheUnionOfNestedAndOverlappingSpans) {
  TraceSession session;
  emit_span("w", "outer", 0, 100);
  emit_span("w", "nested", 10, 40);     // inside outer
  emit_span("w", "deeper", 20, 30);     // inside nested
  emit_span("w", "overlap", 90, 120);   // straddles outer's end
  session.stop();
  const Summary s = summarize(session.capture());
  ASSERT_EQ(s.wall_ns, 120u);
  ASSERT_FALSE(s.workers.empty());
  for (const WorkerSummary& w : s.workers) {
    if (w.spans == 0) continue;
    // A plain sum would read 100 + 30 + 10 + 30 = 170 ns.
    EXPECT_EQ(w.busy_ns, 120u) << "tid " << w.tid;
    EXPECT_LE(w.utilization, 1.0) << "tid " << w.tid;
    EXPECT_DOUBLE_EQ(w.utilization, 1.0) << "tid " << w.tid;
  }
}

TEST(TraceExport, SleepSpansExcludedFromBusyAndCriticalPath) {
  TraceSession session;
  emit_span("sched", "run", 0, 10);
  emit_span("sched", "sleep", 10, 1000);
  session.stop();
  const Summary s = summarize(session.capture());
  std::uint64_t busy = 0, sleep = 0;
  for (const WorkerSummary& w : s.workers) {
    busy += w.busy_ns;
    sleep += w.sleep_ns;
  }
  EXPECT_EQ(busy, 10u);
  EXPECT_EQ(sleep, 990u);
  EXPECT_EQ(s.critical_path_ns, 10u);
}

TEST(TraceExport, CriticalPathChainsTimeOrderedSpans) {
  TraceSession session;
  // A [0,10) and C [5,8) overlap (no chain); B [10,25) follows A.
  // Longest chain: A -> B = 25.
  emit_span("t", "A", 0, 10);
  emit_span("t", "B", 10, 25);
  emit_span("t", "C", 5, 8);
  session.stop();
  const Summary s = summarize(session.capture());
  EXPECT_EQ(s.critical_path_ns, 25u);
}

TEST(TraceExport, CriticalPathPicksBestPredecessorNotLatest) {
  TraceSession session;
  // Two candidate predecessors for C[25,40]: A (long, ends 20) and B
  // (short, ends 25).  B overlaps A, so B cannot chain off it.  The
  // latest finisher is B, but the best chain is A(20) -> C(15) = 35,
  // not B(10) -> C(15) = 25 — the DP must track the max-finished
  // predecessor, not the last-finished one.
  emit_span("t", "A", 0, 20);
  emit_span("t", "B", 15, 25);
  emit_span("t", "C", 25, 40);
  session.stop();
  const Summary s = summarize(session.capture());
  EXPECT_EQ(s.critical_path_ns, 35u);
}

TEST(TraceConcurrent, ParallelWritersAccountForEveryEvent) {
  // The TSan target: many threads writing their own rings while the
  // session is live.  After they join, retained + dropped must equal
  // the total written — nothing lost, nothing double-counted.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;  // well past the ring size
  TraceSession session(/*events_per_thread=*/1024);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      set_thread_name("writer-" + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        Span s("load", "w", static_cast<std::uint64_t>(t), i);
      }
    });
  }
  for (auto& t : threads) t.join();
  session.stop();
  const Capture cap = session.capture();

  std::uint64_t from_writers = 0;
  std::uint64_t writer_dropped = 0;
  for (const CapturedThread& t : cap.threads) {
    if (t.name.rfind("writer-", 0) == 0) {
      from_writers += t.events;
      writer_dropped += t.dropped;
    }
  }
  EXPECT_EQ(from_writers + writer_dropped, kThreads * kPerThread);
  EXPECT_EQ(from_writers, kThreads * 1024u);  // each ring exactly full
}

TEST(TraceSched, SchedulerEmitsRunStealAndSleepSpans) {
  TraceSession session;
  std::uint64_t steal_count_delta = 0;
  {
    sched::Scheduler pool(4);
    const std::uint64_t steals_before = pool.steal_count();
    // Force a steal deterministically (even on a one-core host where
    // preemption alone may never let a thief win): f busy-waits until g
    // has run, and g can only run via a thief — the owner is stuck
    // inside f, so the pushed child is reachable only from the top of
    // the deque.
    pool.run([&] {
      std::atomic<bool> g_ran{false};
      sched::Scheduler::fork2(
          [&] {
            while (!g_ran.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
          },
          [&] { g_ran.store(true, std::memory_order_release); });
      // Then a small fork tree for volume (run/steal spans, either mix).
      std::atomic<int> ran{0};
      std::function<void(int, int)> spawn = [&](int lo, int hi) {
        if (hi - lo == 1) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          ran.fetch_add(1);
          return;
        }
        const int mid = lo + (hi - lo) / 2;
        sched::Scheduler::fork2([&] { spawn(lo, mid); },
                                [&] { spawn(mid, hi); });
      };
      spawn(0, 64);
      ASSERT_EQ(ran.load(), 64);
    });
    steal_count_delta = pool.steal_count() - steals_before;
    // ~Scheduler joins the workers: every traced thread quiesces here.
  }
  session.stop();
  const Capture cap = session.capture();

  const auto steals = spans_named(cap, "sched", "steal");
  EXPECT_GT(steals.size(), 0u);
  // No ring wrapped (64 tasks <<< default capacity), so the capture
  // holds every steal span and the summarizer's count must match the
  // scheduler's own counter.
  ASSERT_EQ(cap.dropped, 0u);
  EXPECT_EQ(steals.size(), steal_count_delta);
  const Summary s = summarize(cap);
  std::uint64_t summary_steals = 0;
  for (const WorkerSummary& w : s.workers) summary_steals += w.steals;
  EXPECT_EQ(summary_steals, steal_count_delta);
  // Worker threads introduced themselves.
  std::set<std::string> names;
  for (const CapturedThread& t : cap.threads) names.insert(t.name);
  EXPECT_TRUE(names.count("sched-w1") == 1) << "missing worker thread name";
}

TEST(TraceFm, GrainSpansCoverTheEnumeratedSlotRange) {
  algos::SwScores scores;
  const fm::FunctionSpec spec = algos::editdist_spec(8, 8, scores);
  const fm::MachineConfig cfg = fm::make_machine(8, 1);
  fm::Mapping proto;
  for (fm::TensorId in : spec.input_tensors()) {
    proto.set_input(in,
                    fm::InputHome::distributed(
                        fm::block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }

  TraceSession session;
  fm::SearchResult res;
  {
    sched::Scheduler pool(4);
    fm::SearchOptions opts;
    opts.scheduler = &pool;
    res = fm::search_affine(spec, cfg, proto, opts);
  }
  session.stop();
  const Capture cap = session.capture();
  ASSERT_TRUE(res.exhausted);
  ASSERT_EQ(cap.dropped, 0u);

  // One span per grain, annotated [lo, hi): the union of grain ranges
  // is exactly the enumerated slot count, and every lane id is sane.
  const auto grains = spans_named(cap, "fm", "grain");
  ASSERT_GT(grains.size(), 0u);
  std::uint64_t covered = 0;
  for (const Event& g : grains) {
    EXPECT_LT(g.arg0, g.arg1) << "grain with empty slot range";
    EXPECT_LT(g.id, 4u) << "lane id out of range";
    covered += g.arg1 - g.arg0;
  }
  EXPECT_EQ(covered, res.enumerated);
  // The whole search is wrapped in its own span.
  EXPECT_EQ(spans_named(cap, "fm", "search_affine").size(), 1u);
}

TEST(TraceServe, RequestLifecycleSpansAreStitchedByRequestId) {
  TraceSession session;
  {
    serve::ServiceConfig cfg;
    cfg.num_workers = 2;
    serve::Service svc(cfg);

    algos::SwScores scores;
    serve::Request req;
    req.kind = serve::RequestKind::kCostEval;
    req.spec = std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(8, 8, scores));
    req.machine = fm::make_machine(8, 1);
    req.inputs = {serve::InputPlacement::at({0, 0}),
                  serve::InputPlacement::at({0, 0})};
    req.map = fm::AffineMap{.ti = 1, .tj = 1, .tk = 0, .t0 = 0,
                            .xi = 1, .xj = 0, .xk = 0, .x0 = 0,
                            .yi = 0, .yj = 0, .yk = 0, .y0 = 0,
                            .cols = 8, .rows = 1};
    const serve::Response r1 = svc.call(req);
    ASSERT_TRUE(r1.ok());
    EXPECT_FALSE(r1.cache_hit);
    // While the session is live, the metrics snapshot reports the
    // trace's drop counter.
    const serve::MetricsSnapshot snap = svc.metrics();
    EXPECT_EQ(snap.trace_dropped, dropped_total());
    // Second call: cache fast path -> admit span flagged as a hit.
    const serve::Response r2 = svc.call(req);
    EXPECT_TRUE(r2.cache_hit);
    // ~Service joins dispatcher + workers before capture.
  }
  session.stop();
  const Capture cap = session.capture();
  ASSERT_EQ(cap.dropped, 0u);

  // The miss request's lifecycle, stitched by one request id: admit,
  // queue_wait, cache_probe, cost_eval (the oracle span), reply.
  const auto oracle = spans_named(cap, "serve", "cost_eval");
  ASSERT_EQ(oracle.size(), 1u);
  const std::uint64_t rid = oracle[0].id;
  EXPECT_NE(rid, 0u);
  for (const char* name : {"admit", "queue_wait", "cache_probe", "reply"}) {
    const auto matches = spans_named(cap, "serve", name);
    const bool stitched =
        std::any_of(matches.begin(), matches.end(),
                    [rid](const Event& e) { return e.id == rid; });
    EXPECT_TRUE(stitched) << "no '" << name << "' span with rid " << rid;
  }
  // The queue-wait interval nests inside admit-to-reply.
  const auto waits = spans_named(cap, "serve", "queue_wait");
  for (const Event& w : waits) {
    if (w.id == rid) {
      EXPECT_LE(w.begin_ns, w.end_ns);
    }
  }
  // The cached call produced an admit span with the hit flag and a
  // different request id.
  const auto admits = spans_named(cap, "serve", "admit");
  const bool saw_hit =
      std::any_of(admits.begin(), admits.end(), [rid](const Event& e) {
        return e.id != rid && e.arg0 == 1;
      });
  EXPECT_TRUE(saw_hit) << "cache-hit admit span missing";
  // Exactly one batch span carried the work (one miss -> one batch).
  EXPECT_GE(spans_named(cap, "serve", "batch").size(), 1u);
}

TEST(TraceServe, TuneCompilesOnceAndCertificationCompilesNothing) {
  // A kTune compiles its one stage (the fm/compile span); certification
  // lints and exec-checks the winner on that same compiled spec, and a
  // cost eval of the same triple afterwards shares the compile cache.
  TraceSession session;
  {
    serve::ServiceConfig cfg;
    cfg.num_workers = 2;
    serve::Service svc(cfg);
    algos::SwScores scores;
    serve::Request req;
    req.kind = serve::RequestKind::kTune;
    req.spec = std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(8, 8, scores));
    req.machine = fm::make_machine(8, 1);
    req.inputs = {serve::InputPlacement::at({0, 0}),
                  serve::InputPlacement::at({0, 0})};
    const serve::Response tuned = svc.call(req);
    ASSERT_TRUE(tuned.ok()) << tuned.error;
    ASSERT_TRUE(tuned.exec_checked);
    req.kind = serve::RequestKind::kCostEval;
    req.map = tuned.search.best.map;
    const serve::Response priced = svc.call(req);
    ASSERT_TRUE(priced.ok()) << priced.error;
    EXPECT_EQ(priced.cost.makespan_cycles, tuned.cost.makespan_cycles);
  }
  session.stop();
  const Capture cap = session.capture();
  ASSERT_EQ(cap.dropped, 0u);
  EXPECT_EQ(spans_named(cap, "fm", "compile").size(), 1u);
}

}  // namespace
}  // namespace harmony::trace
