// Self-tests of the benchmark's own machinery: the request generators
// are pure functions of (workload, seed), the percentile helper matches
// a sorted-array oracle and refuses thin tails, and the self-time
// reduction subtracts the union of children.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "gen.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<TuneItem> take(Workload w, std::uint64_t seed, std::size_t n) {
  TuneStream s(w, seed);
  std::vector<TuneItem> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(s.next());
  return v;
}

/// Share of each request class: spec family (or pipeline) and kind.
std::map<std::string, double> shares(const std::vector<TuneItem>& v) {
  std::map<std::string, double> m;
  for (const TuneItem& t : v) {
    const std::string cls =
        std::to_string(static_cast<int>(t.kind)) + ":" +
        (t.kind == TuneItem::Kind::kPipeline ? std::to_string(t.pipeline)
                                             : t.spec.substr(0, t.spec.find(':')));
    m[cls] += 1.0 / static_cast<double>(v.size());
  }
  return m;
}

void test_generators() {
  for (const Workload w : {Workload::kTuneAffine, Workload::kTuneStochastic}) {
    const std::string name = to_string(w);
    // Whole blocks: 30 triples x 3 FoMs, or 12 stochastic requests.
    const std::size_t n = w == Workload::kTuneAffine ? 900 : 600;
    const auto a = take(w, 7, n), b = take(w, 7, n), c = take(w, 8, n);
    expect(a == b, name + ": same seed gives the same sequence");
    expect(a != c, name + ": another seed gives another sequence");
    const auto sa = shares(a), sc = shares(c);
    expect(sa.size() == sc.size(), name + ": same request classes");
    for (const auto& [cls, share] : sa) {
      const auto it = sc.find(cls);
      expect(it != sc.end() && std::fabs(it->second - share) < 0.01,
             name + ": class " + cls + " share matches across seeds");
    }
    std::map<std::string, int> seen;
    for (const TuneItem& t : a) ++seen[t.str()];
    bool unique = true;
    for (const auto& [k, count] : seen) unique = unique && count == 1;
    expect(unique, name + ": no request repeats within a stream");
  }
}

/// Oracle: the smallest sample with at least q*n samples at or below it.
double oracle(const std::vector<double>& v, double q) {
  double best = INFINITY;
  for (const double x : v) {
    std::size_t at_or_below = 0;
    for (const double y : v) at_or_below += y <= x ? 1 : 0;
    if (static_cast<double>(at_or_below) >= q * static_cast<double>(v.size()) - 1e-9) {
      best = std::min(best, x);
    }
  }
  return best;
}

void test_percentile() {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.below(400);
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng.below(50));  // ties
    std::sort(v.begin(), v.end());
    for (const double q : {0.5, 0.9, 0.95, 0.99}) {
      const auto p = percentile(v, q);
      const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
      const bool thin = n - rank < kMinTail;
      expect(p.has_value() == !thin, "percentile refuses exactly the thin tails");
      if (p) expect(*p == oracle(v, q), "percentile matches the oracle");
    }
  }
  std::vector<double> v(200);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  expect(percentile(v, 0.95).has_value(), "p95 of 200 has 10 beyond it");
  v.pop_back();
  expect(!percentile(v, 0.95).has_value(), "p95 of 199 has only 9 beyond it");
  expect(!percentile({}, 0.5).has_value(), "empty input has no percentile");
}

void test_self_time() {
  // parent [0,100] with children [10,30], [20,50] (overlapping) and
  // [60,70]; grandchild [22,28] under the first child.
  const std::vector<SpanRec> spans = {
      {1, 0, 1, "parent", 0, 100}, {2, 1, 1, "child", 10, 30},
      {3, 1, 1, "child", 20, 50},  {4, 1, 1, "child", 60, 70},
      {5, 2, 1, "grand", 22, 28},
  };
  const auto t = reduce_self_time(spans);
  expect(t.at("parent").self_ns == 50.0, "parent self = 100 - union(40 + 10)");
  expect(t.at("child").self_ns == 54.0, "child self subtracts its grandchild");
  expect(t.at("grand").self_ns == 6.0, "leaf self = duration");
  SpanRecorder rec(2);
  for (int i = 0; i < 3; ++i) rec.close(rec.open(), 0, 1, "x", 0, 1);
  expect(rec.spans().size() == 2 && rec.dropped() == 1,
         "a full recorder counts drops");
}

}  // namespace

int run_selftests() {
  test_generators();
  test_percentile();
  test_self_time();
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
