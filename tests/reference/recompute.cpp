#include "reference/reference.hpp"

#include <algorithm>

namespace harmony::fm::reference {

RecomputeReport recompute_report(const FunctionSpec& spec,
                                 const Mapping& mapping,
                                 const MachineConfig& machine) {
  mapping.require_complete(spec);
  RecomputeReport rep;
  const noc::TechnologyModel& tech = machine.geom.tech();
  const Length local_reach =
      machine.geom.pitch() * machine.local_access_pitch_fraction;

  for (TensorId t : spec.computed_tensors()) {
    const IndexDomain& dom = spec.domain(t);
    dom.for_each([&](const Point& p) {
      const noc::Coord here = mapping.place(t, p);
      for (const ValueRef& d : spec.deps(t, p)) {
        if (spec.is_input(d.tensor)) continue;
        const noc::Coord there = mapping.place(d.tensor, d.point);
        if (there == here) continue;
        ++rep.remote_edges;
        const std::size_t bits = spec.bits(d.tensor);
        const Energy move = machine.geom.transfer_energy(bits, there, here);
        rep.move_energy += move;

        // Depth-1 recompute feasibility.
        const auto producer_deps = spec.deps(d.tensor, d.point);
        const bool feasible = std::all_of(
            producer_deps.begin(), producer_deps.end(),
            [&](const ValueRef& pd) { return spec.is_input(pd.tensor); });
        if (!feasible) {
          rep.best_energy += move;
          continue;
        }
        ++rep.feasible_edges;
        Energy recompute =
            tech.op_energy(bits) * spec.cost(d.tensor).ops;
        for (const ValueRef& pd : producer_deps) {
          const std::size_t pbits = spec.bits(pd.tensor);
          const InputHome& home = mapping.input_home(pd.tensor);
          if (home.kind == InputHome::Kind::kDram) {
            recompute += machine.geom.dram_access_energy(pbits, here);
          } else if (home.home_of(pd.point) == here) {
            recompute += tech.sram_access_energy(pbits, local_reach);
          } else {
            recompute += machine.geom.transfer_energy(
                pbits, home.home_of(pd.point), here);
          }
        }
        if (recompute < move) {
          ++rep.profitable_edges;
          rep.best_energy += recompute;
        } else {
          rep.best_energy += move;
        }
      }
    });
  }
  return rep;
}

}  // namespace harmony::fm::reference
