// Workload runners and the pieces they share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/mapping.hpp"
#include "serve/request.hpp"
#include "gen.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace perfbench {

struct RunConfig {
  Workload workload = Workload::kTuneAffine;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans.
  std::string trace_path;
};

struct RunResult {
  /// Every reply matched its independent check.
  bool correct = true;
  std::uint64_t attempted = 0;
  /// kError + kRejected + unanswered.
  std::uint64_t failed = 0;
  /// End-to-end metrics (see main.cpp).
  std::vector<Metric> e2e;
  /// Per-layer metrics this workload exercises; main.cpp fills the rest.
  std::vector<Metric> layers;
  /// Sample counts behind the end-to-end percentiles, printed for people.
  std::vector<Metric> counts;
  /// First mismatches found by the output gate.
  std::vector<std::string> mismatches;
  /// Why the run measured nothing comparable (a percentile without
  /// enough samples beyond it): such a run fails without a result,
  /// although every reply may be right.
  std::vector<std::string> invalid;
};

/// Times each set-up this many times and reports the median.
inline constexpr int kSetups = 15;

RunResult run_tune(const RunConfig& cfg);

/// Field-by-field equality of two cost reports (bitwise on doubles).
[[nodiscard]] bool same_cost(const harmony::fm::CostReport& a,
                             const harmony::fm::CostReport& b);
/// The input homes of `req` as a mapping prototype (what the service
/// compiles and searches with).
[[nodiscard]] harmony::fm::Mapping input_proto(const harmony::serve::Request& req);
/// `req`'s input homes plus `map` on its computed tensor.
[[nodiscard]] harmony::fm::Mapping full_mapping(const harmony::serve::Request& req,
                                                const harmony::fm::AffineMap& map);

/// Records a gate mismatch (keeps the first few for the report).
void mismatch(RunResult& r, const std::string& what);

/// Adds a per-layer metric.
inline void layer(RunResult& r, const char* name, double value,
                  const char* unit) {
  r.layers.push_back(Metric{name, value, unit});
}

}  // namespace perfbench
