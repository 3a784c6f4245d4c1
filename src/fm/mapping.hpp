// Mapping: the space-time half of the F&M model (Dally, paper §3).
//
// "The mapping specifies when and where each element is computed and where
//  elements reside from definition to last use.  The time axis can be
//  discretized into cycles.  Location can be discretized onto a grid."
//
// A Mapping assigns every element of every computed tensor a grid
// coordinate (place) and a cycle (time), and every input tensor a home
// (a PE or the DRAM layer).  AffineMap covers the classical systolic /
// block / cyclic family — including the paper's edit-distance example
// "Map H(i,j) at i % P, time ..." — and is what the mapping autotuner
// (search.hpp) enumerates; arbitrary lambdas remain available for
// hand-crafted mappings.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fm/domain.hpp"
#include "fm/spec.hpp"
#include "noc/mesh.hpp"
#include "support/error.hpp"

namespace harmony::fm {

using Cycle = std::int64_t;
using PlaceFn = std::function<noc::Coord(const Point&)>;
using TimeFn = std::function<Cycle(const Point&)>;

/// Where an input tensor's values live before the computation starts.
/// Input layout is part of the mapping ("The F&M model supports modular
/// program composition, but with constraints on mappings of input and
/// output data structures"): a tensor may sit in DRAM, on one PE, or
/// distributed element-wise across the grid.
struct InputHome {
  enum class Kind { kDram, kPe, kDistributed } kind = Kind::kDram;
  noc::Coord pe{};  ///< meaningful when kind == kPe
  std::function<noc::Coord(const Point&)> place;  ///< kDistributed

  [[nodiscard]] static InputHome dram() { return InputHome{}; }
  [[nodiscard]] static InputHome at(noc::Coord c) {
    return InputHome{Kind::kPe, c, nullptr};
  }
  [[nodiscard]] static InputHome distributed(
      std::function<noc::Coord(const Point&)> fn) {
    return InputHome{Kind::kDistributed, {}, std::move(fn)};
  }

  /// Home PE of element `p`; only valid for kPe / kDistributed.
  [[nodiscard]] noc::Coord home_of(const Point& p) const {
    HARMONY_ASSERT(kind != Kind::kDram);
    return kind == Kind::kPe ? pe : place(p);
  }
};

class Mapping {
 public:
  /// Assigns place/time functions to a computed tensor.
  void set_computed(TensorId t, PlaceFn place, TimeFn time);
  /// Assigns a home to an input tensor.
  void set_input(TensorId t, InputHome home);

  [[nodiscard]] bool has_computed(TensorId t) const;
  [[nodiscard]] bool has_input(TensorId t) const;
  [[nodiscard]] noc::Coord place(TensorId t, const Point& p) const;
  [[nodiscard]] Cycle time(TensorId t, const Point& p) const;
  [[nodiscard]] const InputHome& input_home(TensorId t) const;

  /// Checks that every tensor of `spec` has an assignment.
  void require_complete(const FunctionSpec& spec) const;

 private:
  struct ComputedEntry {
    PlaceFn place;
    TimeFn time;
  };
  std::vector<ComputedEntry> computed_;  // indexed by TensorId (sparse)
  std::vector<InputHome> inputs_;
  std::vector<char> has_computed_;
  std::vector<char> has_input_;
  void grow(TensorId t);
};

/// An affine space-time map for rank <= 3 domains:
///   time     = ti*i + tj*j + tk*k + t0
///   place.x  = ((xi*i + xj*j + xk*k + x0) mod cols, wrapped non-negative)
///   place.y  = ((yi*i + yj*j + yk*k + y0) mod rows, wrapped non-negative)
/// This is the family the mapping autotuner (search.hpp) enumerates —
/// it contains the serial loop nests, wavefronts (when the array is wide
/// enough), projections, and cyclic distributions of classic systolic
/// design.
struct AffineMap {
  std::int64_t ti = 0, tj = 0, tk = 0, t0 = 0;
  std::int64_t xi = 0, xj = 0, xk = 0, x0 = 0;
  std::int64_t yi = 0, yj = 0, yk = 0, y0 = 0;
  int cols = 1, rows = 1;

  // always_inline: the compiled evaluators call time/place per element
  // and per dependence edge (fm/compiled.cpp).
  [[nodiscard, gnu::always_inline]] Cycle time(const Point& p) const {
    return ti * p.i + tj * p.j + tk * p.k + t0;
  }
  [[nodiscard, gnu::always_inline]] noc::Coord place(const Point& p) const {
    return noc::Coord{wrap(xi * p.i + xj * p.j + xk * p.k + x0, cols),
                      wrap(yi * p.i + yj * p.j + yk * p.k + y0, rows)};
  }
  [[nodiscard]] PlaceFn place_fn() const {
    return [m = *this](const Point& p) { return m.place(p); };
  }
  [[nodiscard]] TimeFn time_fn() const {
    return [m = *this](const Point& p) { return m.time(p); };
  }

 private:
  [[gnu::always_inline]] static int wrap(std::int64_t v, int m) {
    const std::int64_t r = v % m;
    return static_cast<int>(r < 0 ? r + m : r);
  }
};

/// Everything-on-one-PE, one-op-per-cycle in row-major order: the "serial
/// RAM" mapping used as the conventional-architecture baseline.
[[nodiscard]] Mapping serial_mapping(const FunctionSpec& spec,
                                     noc::Coord pe = {0, 0});

/// The paper's edit-distance wavefront, corrected to be causal: row i runs
/// on PE (i mod P, 0); time is skewed by one cycle per row so each
/// anti-diagonal marches across the processor array:
///   time(i,j) = floor(i/P)*(N+P) + (i mod P) + j
/// (The paper's sketch "time floor(i/P)*N + j" omits the "+ (i mod P)"
/// skew and the +P block drain; without them H(i-1,j) and H(i,j) would be
/// simultaneous.  DESIGN.md §4 records this fix.)  Not affine (floor/mod
/// of i), hence returned as closures rather than an AffineMap.
struct WavefrontMap {
  std::int64_t n_cols = 0;
  int num_pes = 1;
  [[nodiscard]] PlaceFn place_fn() const;
  [[nodiscard]] TimeFn time_fn() const;
};
[[nodiscard]] WavefrontMap wavefront_map(std::int64_t n_cols, int num_pes);

/// LSGP (locally-sequential, globally-parallel) folding: re-expresses a
/// schedule built for a `logical_cols` x R grid on `physical_cols` x R
/// PEs by time-multiplexing — Dally's "many possible mappings that range
/// from completely serial to minimum-depth parallel with many points
/// between", generated mechanically from one end of the range:
///
///   place'(p) = (place(p).x mod P, place(p).y)
///   time'(p)  = time(p) * F + (place(p).x / P),   F = ceil(L / P)
///
/// Each original cycle stretches to F so the up-to-F logical PEs folded
/// onto one physical PE get disjoint phases (exclusivity preserved), and
/// every original >=1-cycle dependence retains >=1 cycle of slack.
/// Folding can *lengthen* wires (logical neighbours that straddle a
/// mod-P boundary end up P-1 hops apart), so the result must still pass
/// verify() — folding generates candidates, the verifier disposes.
struct FoldedMap {
  PlaceFn place;
  TimeFn time;
  std::int64_t fold_factor = 1;
};
[[nodiscard]] FoldedMap fold_columns(PlaceFn place, TimeFn time,
                                     int logical_cols, int physical_cols);

}  // namespace harmony::fm
