#include "gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

namespace perfbench {

std::optional<Workload> parse_workload(const std::string& s) {
  if (s == "tune_affine") return Workload::kTuneAffine;
  if (s == "tune_stochastic") return Workload::kTuneStochastic;
  return std::nullopt;
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kTuneAffine:
      return "tune_affine";
    case Workload::kTuneStochastic:
      return "tune_stochastic";
  }
  return "?";
}

std::string TuneItem::str() const {
  std::ostringstream os;
  os << static_cast<int>(kind) << '|' << spec << '|' << cols << 'x' << rows
     << "|f" << fom << "|s" << strategy_seed << "|p" << pipeline << ",n"
     << n << ",k" << pair_candidates << ",q" << quick_sample << ",c"
     << pe_capacity << "|in";
  for (const int i : inputs) os << ',' << i;
  return os.str();
}

namespace {

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

struct Grid {
  int cols, rows;
};

// tune_affine: five spec families on six grids.  The size lists mix
// legal-rich spaces (conv, matmul on 2-D grids: 50-1100 legal
// candidates) with spaces that reject every candidate (most editdist and
// stencil tunes on rows < 8, matmul on 4x1), so both the evaluate path
// and the reject path of the search carry weight.
/// A capacity salt in [2^16, 2^17 + 2^16): thousands of times what any
/// spec of these workloads keeps live on one PE.
std::int64_t draw_capacity(Rng& rng) {
  return (std::int64_t{1} << 16) + static_cast<std::int64_t>(rng.below(1u << 17));
}

constexpr std::array<Grid, 6> kAffineGrids{
    {{4, 1}, {4, 2}, {4, 4}, {8, 1}, {8, 2}, {8, 4}}};

struct Family {
  const char* name;
  int num_inputs;
  std::vector<std::string> sizes;  ///< catalog suffixes; irregular: N
};

const std::vector<Family>& affine_families() {
  static const std::vector<Family> f = {
      {"conv", 2,
       {"16,2", "16,3", "24,3", "24,4", "32,2", "32,3", "40,3", "40,4"}},
      {"matmul", 2, {"3", "4", "5", "4"}},
      {"editdist", 2, {"6x6", "8x6", "8x8", "10x8", "12x8", "12x12"}},
      {"stencil", 1, {"12,3", "16,4", "24,3", "24,6", "32,4", "32,3"}},
      {"irregular", 1, {"16", "24", "32", "48"}},
  };
  return f;
}

// tune_stochastic: irregular DAGs on 2-D grids.
constexpr std::array<Grid, 4> kStochGrids{{{2, 2}, {4, 2}, {4, 4}, {8, 2}}};
constexpr std::array<int, 4> kIrregularSizes{16, 24, 32, 48};

std::vector<int> draw_inputs(Rng& rng, int num_inputs, int pes) {
  std::vector<int> in(static_cast<std::size_t>(num_inputs));
  for (int& h : in) h = static_cast<int>(rng.below(pes + 1)) - 1;
  return in;
}

}  // namespace

TuneStream::TuneStream(Workload w, std::uint64_t seed)
    : w_(w), rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<int>(w)) {}

TuneItem TuneStream::next() {
  while (pending_.empty()) refill();
  TuneItem it = std::move(pending_.back());
  pending_.pop_back();
  return it;
}

void TuneStream::refill() {
  std::vector<TuneItem> block;
  const std::uint64_t b = block_++;
  if (w_ == Workload::kTuneAffine) {
    // One triple per (family, grid) stratum; the size cycles with the
    // block number so size shares are exact too.  Each triple is tuned
    // under all three figures of merit back to back: the result keys
    // differ, the compile key is shared.
    std::vector<std::vector<TuneItem>> triples;
    const auto& fams = affine_families();
    for (std::size_t f = 0; f < fams.size(); ++f) {
      for (std::size_t g = 0; g < kAffineGrids.size(); ++g) {
        const Family& fam = fams[f];
        const Grid grid = kAffineGrids[g];
        const std::string& size =
            fam.sizes[(b + f + g) % fam.sizes.size()];
        TuneItem t;
        t.kind = TuneItem::Kind::kAffine;
        t.cols = grid.cols;
        t.rows = grid.rows;
        bool fresh = false;
        for (int attempt = 0; attempt < 64 && !fresh; ++attempt) {
          t.spec = std::string(fam.name) + ":" + size;
          if (std::string(fam.name) == "irregular") {
            t.spec += ",3," + std::to_string(rng_.below(1u << 30));
          }
          t.inputs = draw_inputs(rng_, fam.num_inputs, grid.cols * grid.rows);
          t.pe_capacity = draw_capacity(rng_);
          fresh = seen_.insert(t.str()).second;
        }
        if (!fresh) continue;
        std::vector<TuneItem> trio;
        std::array<int, 3> foms{0, 1, 2};
        for (int i = 2; i > 0; --i) {
          std::swap(foms[i], foms[rng_.below(i + 1)]);
        }
        for (const int fom : foms) {
          t.fom = fom;
          trio.push_back(t);
        }
        triples.push_back(std::move(trio));
      }
    }
    shuffle(triples, rng_);
    for (auto& trio : triples) {
      for (auto& t : trio) block.push_back(std::move(t));
    }
  } else {
    // Four anneal and four beam tunes (one per DAG size) plus one paired
    // pipeline tune per canned chain.
    std::vector<TuneItem> items;
    for (const TuneItem::Kind kind :
         {TuneItem::Kind::kAnneal, TuneItem::Kind::kBeam}) {
      for (const int n : kIrregularSizes) {
        const Grid grid = kStochGrids[rng_.below(kStochGrids.size())];
        TuneItem t;
        t.kind = kind;
        t.spec = "irregular:" + std::to_string(n) + ",3," +
                 std::to_string(rng_.below(1u << 30));
        t.cols = grid.cols;
        t.rows = grid.rows;
        t.fom = static_cast<int>(rng_.below(3));
        t.inputs = draw_inputs(rng_, 1, grid.cols * grid.rows);
        t.strategy_seed = rng_.next();
        items.push_back(std::move(t));
      }
    }
    static const std::array<std::array<std::int64_t, 3>, 4> kChainN{
        {{8, 16, 32}, {16, 24, 32}, {16, 24, 32}, {8, 16, 32}}};
    for (int p = 0; p < 4; ++p) {
      TuneItem t;
      t.kind = TuneItem::Kind::kPipeline;
      t.pipeline = p;
      bool fresh = false;
      for (int attempt = 0; attempt < 64 && !fresh; ++attempt) {
        const Grid grid = kStochGrids[rng_.below(kStochGrids.size())];
        t.cols = grid.cols;
        t.rows = grid.rows;
        t.n = kChainN[static_cast<std::size_t>(p)][(b + p) % 3];
        t.fom = static_cast<int>(rng_.below(3));
        t.pair_candidates = p == 2 ? 2 : 2 + static_cast<int>(rng_.below(3));
        t.quick_sample = 16 * (1 + static_cast<int>(rng_.below(4)));
        t.strategy_seed = p == 2 ? rng_.next() : 0;
        t.pe_capacity = draw_capacity(rng_);
        fresh = seen_.insert(t.str()).second;
      }
      if (fresh) items.push_back(std::move(t));
    }
    shuffle(items, rng_);
    block = std::move(items);
  }
  // next() pops from the back.
  std::reverse(block.begin(), block.end());
  pending_ = std::move(block);
}

}  // namespace perfbench
