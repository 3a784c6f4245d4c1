// Recompute-instead-of-communicate analysis (Dally, paper §3).
//
// "A mapping may compute the same element at multiple points in time
//  and/or space — rather than storing it or communicating it between
//  those points."
//
// recompute_report() walks every *remote* computed-operand edge of a
// mapped computation (the compiled dependence arrays, fm/compiled.hpp;
// this Mapping overload compiles first) and compares
//
//   move cost      = wire energy of shipping the value along its route
//   recompute cost = the producer's op energy + the energy of acquiring
//                    the producer's own operands at the consumer
//
// Depth-1 feasibility: the producer's operands must all be inputs (the
// common case for streamed/broadcast values).  This is an *energy-bound
// analysis*: it tells the mapper where replication would pay; inserting
// the replicated ops into the schedule (extra (PE, cycle) slots) is the
// mapper's follow-up job.
#pragma once

#include <cstdint>

#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "support/units.hpp"

namespace harmony::fm {

struct RecomputeReport {
  std::uint64_t remote_edges = 0;     ///< computed operands that move
  std::uint64_t feasible_edges = 0;   ///< producer's operands all inputs
  std::uint64_t profitable_edges = 0; ///< recompute beats the wire
  /// Current movement energy of all remote computed-operand edges.
  Energy move_energy = Energy::zero();
  /// The same edges priced at min(move, feasible recompute).
  Energy best_energy = Energy::zero();

  [[nodiscard]] Energy savings() const { return move_energy - best_energy; }
  [[nodiscard]] double savings_fraction() const {
    const double m = move_energy.femtojoules();
    return m > 0.0 ? savings().femtojoules() / m : 0.0;
  }
};

[[nodiscard]] RecomputeReport recompute_report(const FunctionSpec& spec,
                                               const Mapping& mapping,
                                               const MachineConfig& machine);

}  // namespace harmony::fm
