#include "fm/idioms.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace harmony::fm {

Distribution block_distribution(IndexDomain dom,
                                const noc::GridGeometry& geom) {
  const std::int64_t size = dom.size();
  const auto pes = static_cast<std::int64_t>(geom.num_nodes());
  return Distribution{
      "block",
      [dom, size, pes, geom](const Point& p) {
        const std::int64_t lin = dom.linearize(p);
        return geom.coord(
            static_cast<std::size_t>(std::min(lin * pes / size, pes - 1)));
      }};
}

Distribution cyclic_distribution(IndexDomain dom,
                                 const noc::GridGeometry& geom) {
  const auto pes = static_cast<std::int64_t>(geom.num_nodes());
  return Distribution{"cyclic", [dom, pes, geom](const Point& p) {
                        return geom.coord(static_cast<std::size_t>(
                            dom.linearize(p) % pes));
                      }};
}

Distribution tile2d_distribution(IndexDomain dom,
                                 const noc::GridGeometry& geom) {
  HARMONY_REQUIRE(dom.rank() >= 2, "tile2d_distribution: need rank >= 2");
  const std::int64_t ei = dom.extent(0);
  const std::int64_t ej = dom.extent(1);
  const int cols = geom.cols();
  const int rows = geom.rows();
  return Distribution{
      "tile2d", [ei, ej, cols, rows](const Point& p) {
        return noc::Coord{
            static_cast<int>(std::min<std::int64_t>(p.j * cols / ej,
                                                    cols - 1)),
            static_cast<int>(std::min<std::int64_t>(p.i * rows / ei,
                                                    rows - 1))};
      }};
}

Distribution single_pe_distribution(noc::Coord pe) {
  return Distribution{"single", [pe](const Point&) { return pe; }};
}

Distribution transposed(const Distribution& base) {
  auto place = base.place;
  return Distribution{base.name + "^T", [place](const Point& p) {
                        return place(Point{p.j, p.i, p.k});
                      }};
}

RemapCost remap_cost(const IndexDomain& dom, std::size_t bits,
                     const Distribution& from, const Distribution& to,
                     const MachineConfig& machine) {
  RemapCost cost;
  dom.for_each([&](const Point& p) {
    const noc::Coord src = from.place(p);
    const noc::Coord dst = to.place(p);
    if (src == dst) return;
    cost.energy += machine.geom.transfer_energy(bits, src, dst);
    cost.latency = std::max(cost.latency,
                            machine.geom.transfer_latency(src, dst));
    ++cost.messages;
    cost.bit_hops += bits * static_cast<std::uint64_t>(
                                machine.geom.hops(src, dst));
    ++cost.moved_values;
  });
  return cost;
}

Time remap_simulate(const IndexDomain& dom, std::size_t bits,
                    const Distribution& from, const Distribution& to,
                    noc::MeshNetwork& net) {
  Time done = Time::zero();
  dom.for_each([&](const Point& p) {
    const noc::Coord src = from.place(p);
    const noc::Coord dst = to.place(p);
    if (src == dst) return;
    const auto d = net.send(src, dst, bits, Time::zero());
    done = std::max(done, d.arrival);
  });
  return done;
}

RemapCost gather_cost(const IndexDomain& dom, std::size_t bits,
                      const Distribution& from, noc::Coord root,
                      const MachineConfig& machine) {
  return remap_cost(dom, bits, from, single_pe_distribution(root), machine);
}

RemapCost scatter_cost(const IndexDomain& dom, std::size_t bits,
                       noc::Coord root, const Distribution& to,
                       const MachineConfig& machine) {
  return remap_cost(dom, bits, single_pe_distribution(root), to, machine);
}

RemapCost broadcast_cost(std::size_t bits, noc::Coord root,
                         const MachineConfig& machine) {
  // Dimension-ordered copy tree: root -> every node of its column, then
  // each column node -> its row.  Each edge carries one copy of `bits`.
  RemapCost cost;
  const auto& geom = machine.geom;
  for (int y = 0; y < geom.rows(); ++y) {
    const noc::Coord row_head{root.x, y};
    if (!(row_head == root)) {
      cost.energy += geom.transfer_energy(bits, root, row_head);
      cost.latency =
          std::max(cost.latency, geom.transfer_latency(root, row_head));
      ++cost.messages;
      cost.bit_hops +=
          bits * static_cast<std::uint64_t>(geom.hops(root, row_head));
    }
    for (int x = 0; x < geom.cols(); ++x) {
      const noc::Coord dst{x, y};
      if (dst == row_head) continue;
      cost.energy += geom.transfer_energy(bits, row_head, dst);
      cost.latency = std::max(
          cost.latency, geom.transfer_latency(root, row_head) +
                            geom.transfer_latency(row_head, dst));
      ++cost.messages;
      cost.bit_hops +=
          bits * static_cast<std::uint64_t>(geom.hops(row_head, dst));
    }
  }
  cost.moved_values = static_cast<std::uint64_t>(geom.num_nodes() - 1);
  return cost;
}

RemapCost reduce_tree_cost(std::size_t bits, noc::Coord root,
                           const MachineConfig& machine) {
  // Mirror of broadcast: rows reduce into the root's column, the column
  // reduces into the root.  Same traffic, opposite direction.
  RemapCost cost = broadcast_cost(bits, root, machine);
  return cost;
}

}  // namespace harmony::fm
