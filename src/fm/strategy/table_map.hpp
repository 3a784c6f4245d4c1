// TableMap — per-op / per-value placement, the non-affine half of the
// mapping space (Dally, paper §3).
//
// "One can systematically search the space of possible mappings" — but
// the AffineMap family search_affine() enumerates is a vanishing slice
// of that space.  A TableMap stores one (pe, cycle) per linearized
// computed element and one home PE per input value, so *every* legal
// mapping is representable, at the price of an O(n) representation
// instead of twelve coefficients.
//
// A TableMap is what the one evaluator reads: compiled.hpp's TableMap
// overloads of evaluate_cost / verify / verify_ok / recompute_report and
// analyze::lint_mapping run it through the CompiledSpec flat arrays.
// Any closure Mapping reaches them through table_from_mapping(); that is
// how the fm::evaluate_cost / verify / recompute_report front doors work.
// to_mapping() goes the other way, for the GridMachine (which executes a
// closure Mapping) and for the input-home kinds a compile needs.
// The stochastic searchers (fm/strategy/strategy.hpp) mutate TableMaps
// through the delta evaluator (fm/strategy/delta.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "noc/mesh.hpp"

namespace harmony::fm {

struct CompiledSpec;  // fm/compiled.hpp

/// Per-op/per-value placement table.  Op order is the CompiledSpec's
/// linearization: segments (computed tensors) in computed_tensors()
/// order, row-major within each; input values use its dense ordinal
/// numbering.  The searchers produce single-tensor tables.
struct TableMap {
  /// The first computed tensor and its domain — the whole table for a
  /// single-tensor spec (what the searchers, the wire and to_mapping
  /// handle); a multi-tensor table's later segments follow in pe/cycle.
  TensorId target = -1;
  IndexDomain domain{1};
  int cols = 1, rows = 1;
  /// Linear PE index and schedule cycle of each computed element, by
  /// global linear index.
  std::vector<std::int32_t> pe;
  std::vector<Cycle> cycle;
  /// Home PE per dense input-value ordinal; -1 means DRAM.  The kind is
  /// fixed at compile time (a DRAM-homed value never moves on-chip), so
  /// entries are either always -1 or always a valid PE index.
  std::vector<std::int32_t> input_home;
  /// Exemplar (tensor, point) of each input ordinal — what to_mapping()
  /// needs to rebuild per-tensor InputHome closures.
  struct InputRef {
    TensorId tensor = -1;
    Point point{};
  };
  std::vector<InputRef> input_refs;

  [[nodiscard]] std::int64_t num_ops() const {
    return static_cast<std::int64_t>(pe.size());
  }
  [[nodiscard]] noc::Coord coord_of(std::int64_t lin) const {
    const std::int32_t q = pe[static_cast<std::size_t>(lin)];
    return noc::Coord{q % cols, q / cols};
  }
  /// max(0, max over elements of cycle + 1) — the same integers as the
  /// reference evaluator's per-point running max seeded at 0.
  [[nodiscard]] Cycle makespan_cycles() const {
    Cycle m = 0;
    for (const Cycle c : cycle) m = std::max(m, c + 1);
    return m;
  }
};

/// The affine family embedded in the table space: snapshots `map` (and
/// the compiled input homes) into a TableMap.  Used to seed searches
/// from an affine winner, to lint it, and to pin table-vs-affine oracle
/// parity.  InvalidArgument on a multi-tensor spec.
[[nodiscard]] TableMap table_from_affine(const CompiledSpec& cs,
                                         const AffineMap& map);

/// Any closure Mapping embedded in the table space: snapshots the
/// mapping's (place, time) per computed element of every segment and its
/// input homes per ordinal.  This is how the fm::evaluate_cost / verify
/// / recompute_report front doors and the Mapping linter reach the
/// compiled bodies, and how `harmony-lint --check-exec` builds an
/// execution witness.  The mapping must cover every computed and input
/// tensor; a place off the machine's grid fails geom.index()'s check.
[[nodiscard]] TableMap table_from_mapping(const CompiledSpec& cs,
                                          const Mapping& m);

/// Lowers a single-tensor TableMap to a closure-based Mapping, for the
/// executing GridMachine and for compiling with the table's input-home
/// kinds (the TableMap lint front door).  Input tensors whose
/// ordinals are DRAM-homed get InputHome::dram(); PE-homed tensors get a
/// distributed closure over the table's per-value homes (unreferenced
/// elements of the tensor default to PE 0 — no oracle ever asks for
/// them, they are off every dependence edge).
[[nodiscard]] Mapping to_mapping(const FunctionSpec& spec,
                                 const TableMap& tm);

}  // namespace harmony::fm
