#include "noc/mesh.hpp"

#include <algorithm>
#include <cmath>

namespace harmony::noc {

Time TechnologyModel::op_delay(std::size_t bits) const {
  HARMONY_REQUIRE(bits > 0, "op_delay: zero-width op");
  // log-depth adder, normalized to 200 ps at 32 bits.
  const double scale = std::log2(static_cast<double>(bits) + 1.0) /
                       std::log2(33.0);
  return add_delay * scale;
}

GridGeometry::GridGeometry(int cols, int rows, Length pitch,
                           TechnologyModel tech, Topology topology)
    : cols_(cols),
      rows_(rows),
      pitch_(pitch),
      tech_(tech),
      topology_(topology) {
  HARMONY_REQUIRE(cols >= 1 && rows >= 1, "GridGeometry: empty grid");
  HARMONY_REQUIRE(pitch.millimetres() > 0.0,
                  "GridGeometry: pitch must be positive");
}

int GridGeometry::hops(Coord a, Coord b) const {
  HARMONY_ASSERT(contains(a) && contains(b));
  return std::abs(axis_delta(a.x, b.x, cols_)) +
         std::abs(axis_delta(a.y, b.y, rows_));
}

Coord GridGeometry::next_hop(Coord at, Coord dst) const {
  HARMONY_ASSERT(contains(at) && contains(dst) && !(at == dst));
  // Dimension order: resolve x first.
  if (at.x != dst.x) {
    const int d = axis_delta(at.x, dst.x, cols_);
    const int step = d > 0 ? 1 : -1;
    return Coord{(at.x + step + cols_) % cols_, at.y};
  }
  const int d = axis_delta(at.y, dst.y, rows_);
  const int step = d > 0 ? 1 : -1;
  return Coord{at.x, (at.y + step + rows_) % rows_};
}

int GridGeometry::diameter_hops() const {
  if (topology_ == Topology::kMesh) {
    return (cols_ - 1) + (rows_ - 1);
  }
  return cols_ / 2 + rows_ / 2;
}

int GridGeometry::bisection_links() const {
  // Directed E/W links crossing the x = cols/2 cut, both directions.
  const int per_row = topology_ == Topology::kTorus && cols_ > 2 ? 4 : 2;
  return rows_ * per_row;
}

Length GridGeometry::distance(Coord a, Coord b) const {
  return pitch_ * static_cast<double>(hops(a, b));
}

Energy GridGeometry::transfer_energy(std::size_t bits, Coord a,
                                     Coord b) const {
  return tech_.move_energy(bits, distance(a, b));
}

Time GridGeometry::transfer_latency(Coord a, Coord b) const {
  return tech_.move_delay(distance(a, b));
}

Length GridGeometry::distance_to_memory(Coord c) const {
  HARMONY_ASSERT(contains(c));
  // Memory controllers along the west edge: distance to x = -1 column.
  return pitch_ * static_cast<double>(c.x + 1);
}

Energy GridGeometry::dram_access_energy(std::size_t bits, Coord c) const {
  return tech_.move_energy(bits, distance_to_memory(c)) +
         tech_.offchip_energy(bits);
}

Time GridGeometry::dram_access_latency(std::size_t bits, Coord c) const {
  (void)bits;
  return tech_.move_delay(distance_to_memory(c)) + tech_.offchip_latency;
}

MeshNetwork::MeshNetwork(GridGeometry geom, double link_bits_per_ps)
    : geom_(geom),
      link_bw_(link_bits_per_ps),
      busy_until_(static_cast<std::size_t>(geom.num_nodes()) * 4,
                  Time::zero()),
      link_bits_(static_cast<std::size_t>(geom.num_nodes()) * 4, 0) {
  HARMONY_REQUIRE(link_bits_per_ps > 0.0,
                  "MeshNetwork: bandwidth must be positive");
}

MeshNetwork::Delivery MeshNetwork::send(Coord src, Coord dst,
                                        std::size_t bits, Time when) {
  HARMONY_REQUIRE(geom_.contains(src) && geom_.contains(dst),
                  "MeshNetwork::send: coordinate off grid");
  ++messages_;
  Delivery d;
  d.arrival = when;
  if (src == dst || bits == 0) return d;

  const Time serialization =
      Time::picoseconds(static_cast<double>(bits) / link_bw_);
  const Time hop_wire = geom_.tech().move_delay(geom_.pitch());

  Time t = when;
  // Store-and-forward along the dimension-ordered route: the whole
  // message serializes onto each link after the link frees up.
  geom_.for_each_route_link(src, dst, [&](std::size_t link) {
    const Time start = std::max(t, busy_until_[link]);
    const Time done = start + serialization + hop_wire;
    busy_until_[link] = done;
    link_bits_[link] += bits;
    bit_hops_ += bits;
    t = done;
    ++d.hops;
  });
  d.arrival = t;
  d.energy = geom_.tech().move_energy(
      bits, geom_.pitch() * static_cast<double>(d.hops));
  total_energy_ += d.energy;
  return d;
}

Time MeshNetwork::drain_time() const {
  Time t = Time::zero();
  for (Time b : busy_until_) t = std::max(t, b);
  return t;
}

std::uint64_t MeshNetwork::max_link_bits() const {
  std::uint64_t m = 0;
  for (std::uint64_t b : link_bits_) m = std::max(m, b);
  return m;
}

}  // namespace harmony::noc
