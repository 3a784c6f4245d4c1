// 2-D mesh interconnect model.
//
// The F&M grid machine (src/fm) discretizes location "onto a grid of two
// or more dimensions" (paper §3).  This module supplies:
//
//   * GridGeometry — coordinates, XY (dimension-ordered) routing distance,
//     per-hop energy/latency from the TechnologyModel;
//   * MeshNetwork  — an event-driven store-and-forward simulator with
//     per-link serialization and contention (busy-until per directed
//     link), used where queueing matters (E14) and to audit the analytic
//     transfer costs used by the F&M evaluator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "noc/tech.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

namespace harmony::noc {

/// A processing-element coordinate on the grid.
struct Coord {
  int x = 0;
  int y = 0;
  friend bool operator==(Coord, Coord) = default;
};

enum class Topology {
  kMesh,   ///< links between adjacent PEs only
  kTorus,  ///< plus wrap-around links (folded-torus wiring assumed, so
           ///< a wrap hop costs the same pitch as a neighbour hop)
};

class GridGeometry {
 public:
  /// `pitch` is the physical distance between adjacent grid points.
  GridGeometry(int cols, int rows, Length pitch, TechnologyModel tech = {},
               Topology topology = Topology::kMesh);

  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int num_nodes() const { return cols_ * rows_; }
  [[nodiscard]] Length pitch() const { return pitch_; }
  [[nodiscard]] const TechnologyModel& tech() const { return tech_; }
  [[nodiscard]] Topology topology() const { return topology_; }

  [[nodiscard]] bool contains(Coord c) const {
    return c.x >= 0 && c.x < cols_ && c.y >= 0 && c.y < rows_;
  }
  [[nodiscard]] std::size_t index(Coord c) const {
    HARMONY_ASSERT(contains(c));
    return static_cast<std::size_t>(c.y) * cols_ + c.x;
  }
  [[nodiscard]] Coord coord(std::size_t index) const {
    HARMONY_ASSERT(index < static_cast<std::size_t>(num_nodes()));
    return Coord{static_cast<int>(index % cols_),
                 static_cast<int>(index / cols_)};
  }

  /// Manhattan hop count of the dimension-ordered route (wrap-aware on
  /// a torus).
  [[nodiscard]] int hops(Coord a, Coord b) const;
  /// One step of the dimension-ordered (X then Y) route from `at`
  /// toward `dst`; `at` must differ from `dst`.
  [[nodiscard]] Coord next_hop(Coord at, Coord dst) const;

  /// Directed links out of a node, numbered `index(node) * 4 + dir`.
  enum LinkDir : int { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3 };
  static constexpr std::size_t kLinksPerNode = 4;

  /// Walks the dimension-ordered route from `a` to `b` — the hops
  /// next_hop() takes — calling `on_link(id)` with the directed-link id
  /// of each hop.  The single source of truth for link attribution: the
  /// mesh simulator and the hardware lowering charge traffic through
  /// this, and the compiled bandwidth check and delta evaluator through
  /// the route legs fm::compile_spec records from it.  A hop's
  /// direction is the sign of its axis step, so one- and two-wide axes
  /// (where `(x + 1) % cols` matches every neighbour) decode correctly.
  template <typename F>
  void for_each_route_link(Coord a, Coord b, F&& on_link) const {
    HARMONY_ASSERT(contains(a) && contains(b));
    constexpr auto kL = static_cast<std::ptrdiff_t>(kLinksPerNode);
    const auto cols = static_cast<std::ptrdiff_t>(cols_);
    // X leg along row a.y, then Y leg along column b.x.
    walk_leg(a.x, axis_delta(a.x, b.x, cols_), cols_,
             (a.y * cols + a.x) * kL, kL, kEast, kWest, on_link);
    walk_leg(a.y, axis_delta(a.y, b.y, rows_), rows_,
             (a.y * cols + b.x) * kL, cols * kL, kNorth, kSouth, on_link);
  }

  /// Physical length of the XY route.
  [[nodiscard]] Length distance(Coord a, Coord b) const;

  /// Zero-contention transfer cost of `bits` from `a` to `b`:
  /// energy = bits * wire_energy * distance; latency = wire delay over the
  /// distance (zero for a == b).
  [[nodiscard]] Energy transfer_energy(std::size_t bits, Coord a,
                                       Coord b) const;
  [[nodiscard]] Time transfer_latency(Coord a, Coord b) const;

  /// Longest dimension-ordered route on this grid, in hops.
  [[nodiscard]] int diameter_hops() const;
  /// Directed links crossing the vertical bisection (a first-order
  /// global-bandwidth figure: torus wrap links double it).
  [[nodiscard]] int bisection_links() const;

  /// Distance from `c` to the nearest die-edge memory controller
  /// (controllers sit along x = -1 in this model).
  [[nodiscard]] Length distance_to_memory(Coord c) const;
  /// Energy of a DRAM access of `bits` issued from `c`: on-chip transport
  /// to the edge plus the off-chip penalty.
  [[nodiscard]] Energy dram_access_energy(std::size_t bits, Coord c) const;
  [[nodiscard]] Time dram_access_latency(std::size_t bits, Coord c) const;

 private:
  /// One axis leg of a route: `delta` hops from coordinate `from` on an
  /// axis of `extent` nodes, starting at link-id base `id` (the node's
  /// first link id) with `stride` ids per node.  A torus leg runs off
  /// the edge at most once; its ids then continue from the other edge.
  template <typename F>
  static void walk_leg(int from, int delta, int extent, std::ptrdiff_t id,
                       std::ptrdiff_t stride, LinkDir inc, LinkDir dec,
                       F& on_link) {
    if (delta == 0) return;
    const int n = delta > 0 ? delta : -delta;
    const std::ptrdiff_t step = delta > 0 ? stride : -stride;
    const int to_edge = delta > 0 ? extent - from : from + 1;
    const int first = n < to_edge ? n : to_edge;
    id += delta > 0 ? inc : dec;
    for (int k = 0; k < first; ++k, id += step) {
      on_link(static_cast<std::size_t>(id));
    }
    id -= step * extent;
    for (int k = first; k < n; ++k, id += step) {
      on_link(static_cast<std::size_t>(id));
    }
  }

  /// Signed step count along one axis: positive = increasing coordinate.
  [[nodiscard]] int axis_delta(int from, int to, int extent) const {
    const int fwd = to - from;
    if (topology_ == Topology::kMesh || extent <= 2 || fwd == 0) return fwd;
    // Torus: pick the shorter way around.  On a tie (|delta| ==
    // extent/2) both ways are equally short; `fwd` alone would go
    // whichever way the operand order happened to point, making
    // hops(a,b) routes disagree with hops(b,a) routes, so ties go the
    // increasing way.
    const int alt = fwd > 0 ? fwd - extent : fwd + extent;
    const int afwd = fwd < 0 ? -fwd : fwd;
    const int aalt = alt < 0 ? -alt : alt;
    if (afwd == aalt) return fwd > alt ? fwd : alt;
    return afwd < aalt ? fwd : alt;
  }

  int cols_;
  int rows_;
  Length pitch_;
  TechnologyModel tech_;
  Topology topology_;
};

/// Event-driven mesh with per-link serialization and FIFO contention.
class MeshNetwork {
 public:
  /// `link_bits_per_ps`: link bandwidth.  Default 0.064 bits/ps = 64 Gb/s.
  explicit MeshNetwork(GridGeometry geom, double link_bits_per_ps = 0.064);

  /// Directed link direction out of a node (4 links per node), the same
  /// numbering as GridGeometry::LinkDir.  Public so link-level
  /// accounting (link_bits below) is testable: direction decoding bugs
  /// show up as traffic attributed to the wrong link.
  enum Dir : int {
    kEast = GridGeometry::kEast,
    kWest = GridGeometry::kWest,
    kNorth = GridGeometry::kNorth,
    kSouth = GridGeometry::kSouth,
  };

  struct Delivery {
    Time arrival = Time::zero();
    Energy energy = Energy::zero();
    int hops = 0;
  };

  /// Injects a message of `bits` at `when`; returns its delivery record.
  /// Messages on the same link serialize in injection-call order
  /// (deterministic).  Store-and-forward per hop.
  Delivery send(Coord src, Coord dst, std::size_t bits, Time when);

  /// Aggregate statistics since construction.
  [[nodiscard]] Energy total_energy() const { return total_energy_; }
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  [[nodiscard]] std::uint64_t total_bit_hops() const { return bit_hops_; }
  /// Largest busy-until over all links (network drain time).
  [[nodiscard]] Time drain_time() const;
  /// Maximum bits carried by any single directed link (hot-spot metric).
  [[nodiscard]] std::uint64_t max_link_bits() const;
  /// Bits carried so far by the directed link leaving `from` toward `d`.
  [[nodiscard]] std::uint64_t link_bits(Coord from, Dir d) const {
    return link_bits_[link_id(from, d)];
  }

  [[nodiscard]] const GridGeometry& geometry() const { return geom_; }

 private:
  // Directed link id: 4 per node (E,W,N,S).
  [[nodiscard]] std::size_t link_id(Coord from, Dir d) const {
    return geom_.index(from) * GridGeometry::kLinksPerNode +
           static_cast<std::size_t>(d);
  }

  GridGeometry geom_;
  double link_bw_;
  std::vector<Time> busy_until_;
  std::vector<std::uint64_t> link_bits_;
  Energy total_energy_ = Energy::zero();
  std::uint64_t messages_ = 0;
  std::uint64_t bit_hops_ = 0;
};

}  // namespace harmony::noc
