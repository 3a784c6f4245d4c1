// Request generators: each workload's request stream is a pure function
// of (workload, seed).  The program under test only ever sees the
// requests built from these descriptors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "serve/request.hpp"
#include "util.hpp"

namespace perfbench {

enum class Workload { kTuneAffine, kTuneStochastic };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& s);
[[nodiscard]] const char* to_string(Workload w);

/// One tune request of the closed-loop workloads.
struct TuneItem {
  enum class Kind : std::uint8_t { kAffine, kAnneal, kBeam, kPipeline };
  Kind kind = Kind::kAffine;
  std::string spec;  ///< SpecCatalog name (kAffine / kAnneal / kBeam)
  int cols = 4;
  int rows = 1;
  int fom = 0;  ///< fm::FigureOfMerit ordinal
  /// Input homes in input-tensor order: -1 = DRAM, else linear PE index.
  std::vector<int> inputs;
  std::uint64_t strategy_seed = 0;  ///< kAnneal / kBeam / irregular chain
  int pipeline = 0;  ///< kPipeline: 0 fft, 1 scan, 2 irregular, 3 diamond
  std::int64_t n = 0;  ///< kPipeline: chain length parameter
  int pair_candidates = 4;
  int quick_sample = 64;
  /// Machine PE capacity (live values).  Every draw is far above what
  /// any spec here keeps live, so it changes no answer and no amount of
  /// work; it is drawn per triple so that triples (and their result and
  /// compile keys) never repeat however long a run is.
  std::int64_t pe_capacity = 1 << 20;

  bool operator==(const TuneItem&) const = default;
  /// Canonical text of the whole descriptor (dedup key, self-tests).
  [[nodiscard]] std::string str() const;
};

/// Closed-loop tune stream.  Items come in stratified blocks so every
/// run sees the same family/grid (or strategy/chain) shares whatever
/// its seed; within a block the order, sizes, placements and seeds are
/// drawn from the seed.  No descriptor repeats within one stream.
class TuneStream {
 public:
  TuneStream(Workload w, std::uint64_t seed);
  [[nodiscard]] TuneItem next();

 private:
  void refill();
  Workload w_;
  Rng rng_;
  std::uint64_t block_ = 0;
  std::vector<TuneItem> pending_;  ///< popped from the back
  std::unordered_set<std::string> seen_;
};

}  // namespace perfbench
