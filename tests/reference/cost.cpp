#include "reference/reference.hpp"

#include <algorithm>

#include "fm/delivered.hpp"

namespace harmony::fm::reference {

CostReport evaluate_cost(const FunctionSpec& spec, const Mapping& mapping,
                         const MachineConfig& machine) {
  mapping.require_complete(spec);
  CostReport rep;
  const noc::TechnologyModel& tech = machine.geom.tech();
  const Length local_reach =
      machine.geom.pitch() * machine.local_access_pitch_fraction;
  // Input values reside at a PE from first delivery to last use (the
  // mapping's "elements reside from definition to last use"), so each
  // (input value, consumer PE) transfer is paid once; repeat uses are
  // local SRAM reads.  Tracked pair-exact (fm/delivered.hpp) — a packed
  // value*num_pes+pe key overflows uint64 on large specs.
  DeliveredSet delivered;
  auto first_delivery = [&](const ValueRef& d, std::size_t pe) {
    return delivered.first_delivery(spec.value_index(d), pe);
  };

  for (TensorId t : spec.computed_tensors()) {
    const IndexDomain& dom = spec.domain(t);
    const std::size_t bits = spec.bits(t);
    const double ops = spec.cost(t).ops;
    const Energy op_e = tech.op_energy(bits) * ops;

    dom.for_each([&](const Point& p) {
      const noc::Coord here = mapping.place(t, p);
      rep.makespan_cycles =
          std::max(rep.makespan_cycles, mapping.time(t, p) + 1);
      rep.compute_energy += op_e;
      rep.total_ops += ops;

      for (const ValueRef& d : spec.deps(t, p)) {
        if (spec.is_input(d.tensor)) {
          const InputHome& home = mapping.input_home(d.tensor);
          if (!first_delivery(d, machine.geom.index(here))) {
            rep.local_access_energy +=
                tech.sram_access_energy(bits, local_reach);
          } else if (home.kind == InputHome::Kind::kDram) {
            rep.dram_energy += machine.geom.dram_access_energy(bits, here);
          } else if (home.home_of(d.point) == here) {
            rep.local_access_energy +=
                tech.sram_access_energy(bits, local_reach);
          } else {
            const noc::Coord from = home.home_of(d.point);
            rep.onchip_movement_energy +=
                machine.geom.transfer_energy(bits, from, here);
            ++rep.messages;
            rep.bit_hops += bits * static_cast<std::uint64_t>(
                                       machine.geom.hops(from, here));
          }
        } else {
          const noc::Coord there = mapping.place(d.tensor, d.point);
          if (there == here) {
            rep.local_access_energy +=
                tech.sram_access_energy(bits, local_reach);
          } else {
            rep.onchip_movement_energy +=
                machine.geom.transfer_energy(bits, there, here);
            ++rep.messages;
            rep.bit_hops += bits * static_cast<std::uint64_t>(
                                       machine.geom.hops(there, here));
          }
        }
      }
    });
  }
  rep.makespan = machine.cycle * static_cast<double>(rep.makespan_cycles);
  return rep;
}

}  // namespace harmony::fm::reference
