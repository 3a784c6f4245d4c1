// Remapping idioms and modular composition (Dally, paper §3).
//
// "The F&M model supports modular program composition, but with
//  constraints on mappings of input and output data structures. ...
//  The output of module A must have the same mapping as the input of
//  module B for the two to be composed in series, or a remapping module
//  must be inserted between the two to shuffle the data.  Common idioms
//  such as map, reduce, gather, scatter, and shuffle can be used by many
//  programs to realize common communication patterns."
//
// This module provides named data distributions, the cost of remapping a
// tensor between two distributions (analytic, and simulated on the
// contention-aware MeshNetwork), and the classic idioms as cost
// generators.  Composition itself — aligning a producer's committed
// mapping with its consumer's and pricing the remap where they disagree
// — lives in fm::Pipeline (fm/pipeline.hpp).
#pragma once

#include <functional>
#include <string>

#include "fm/domain.hpp"
#include "fm/machine.hpp"
#include "noc/mesh.hpp"
#include "support/units.hpp"

namespace harmony::fm {

/// A named assignment of tensor elements to PEs.
struct Distribution {
  std::string name;
  std::function<noc::Coord(const Point&)> place;
};

/// Block distribution of the row-major linearization over all PEs.
[[nodiscard]] Distribution block_distribution(IndexDomain dom,
                                              const noc::GridGeometry& geom);
/// Cyclic distribution of the row-major linearization.
[[nodiscard]] Distribution cyclic_distribution(IndexDomain dom,
                                               const noc::GridGeometry& geom);
/// 2-D tile distribution: element (i,j) on PE (i*cols/rows_of_dom, ...).
[[nodiscard]] Distribution tile2d_distribution(IndexDomain dom,
                                               const noc::GridGeometry& geom);
/// Everything on one PE.
[[nodiscard]] Distribution single_pe_distribution(noc::Coord pe);
/// The transpose view: element (i,j) lives where (j,i) lives under `base`.
[[nodiscard]] Distribution transposed(const Distribution& base);

/// Cost of a data-movement module.
struct RemapCost {
  Energy energy = Energy::zero();
  /// Zero-contention latency: the longest single transfer.
  Time latency = Time::zero();
  std::uint64_t messages = 0;
  std::uint64_t bit_hops = 0;
  std::uint64_t moved_values = 0;

  RemapCost& operator+=(const RemapCost& o) {
    energy += o.energy;
    latency = std::max(latency, o.latency);
    messages += o.messages;
    bit_hops += o.bit_hops;
    moved_values += o.moved_values;
    return *this;
  }
};

/// Element-wise remap `from` -> `to` (the general shuffle module).
/// Elements already in place move zero distance and cost nothing.
[[nodiscard]] RemapCost remap_cost(const IndexDomain& dom, std::size_t bits,
                                   const Distribution& from,
                                   const Distribution& to,
                                   const MachineConfig& machine);

/// Same movement pattern executed on the contention-aware mesh; returns
/// the network drain time (serialization + queueing included).
[[nodiscard]] Time remap_simulate(const IndexDomain& dom, std::size_t bits,
                                  const Distribution& from,
                                  const Distribution& to,
                                  noc::MeshNetwork& net);

// --- the classic idioms as cost generators --------------------------

/// gather: every element of `from` moves to `root`.
[[nodiscard]] RemapCost gather_cost(const IndexDomain& dom, std::size_t bits,
                                    const Distribution& from, noc::Coord root,
                                    const MachineConfig& machine);

/// scatter: root sends one element to each location of `to`.
[[nodiscard]] RemapCost scatter_cost(const IndexDomain& dom, std::size_t bits,
                                     noc::Coord root, const Distribution& to,
                                     const MachineConfig& machine);

/// broadcast: root sends the same `bits` value to every PE (mesh tree:
/// one copy per row along column 0, then along each row).
[[nodiscard]] RemapCost broadcast_cost(std::size_t bits, noc::Coord root,
                                       const MachineConfig& machine);

/// reduce: combine one value per PE into `root` along a dimension-ordered
/// tree; counts both movement and the combine ops.
[[nodiscard]] RemapCost reduce_tree_cost(std::size_t bits, noc::Coord root,
                                         const MachineConfig& machine);

}  // namespace harmony::fm
