#include "fm/machine.hpp"

#include <algorithm>
#include <cmath>

#include "fm/delivered.hpp"
#include "support/error.hpp"

namespace harmony::fm {

Cycle MachineConfig::transit_cycles(noc::Coord a, noc::Coord b) const {
  if (a == b) return 0;
  const Time lat = geom.transfer_latency(a, b);
  return static_cast<Cycle>(
      std::ceil(lat.picoseconds() / cycle.picoseconds()));
}

Cycle MachineConfig::dram_cycles(noc::Coord c) const {
  const Time lat = geom.dram_access_latency(32, c);
  return static_cast<Cycle>(
      std::ceil(lat.picoseconds() / cycle.picoseconds()));
}

Cycle MachineConfig::earliest_start(const FunctionSpec& spec,
                                    const Mapping& mapping, TensorId t,
                                    const Point& p,
                                    const ValueRef& dep) const {
  const noc::Coord here = mapping.place(t, p);
  if (spec.is_input(dep.tensor)) {
    const InputHome& home = mapping.input_home(dep.tensor);
    if (home.kind == InputHome::Kind::kDram) return dram_cycles(here);
    return transit_cycles(home.home_of(dep.point), here);
  }
  const noc::Coord there = mapping.place(dep.tensor, dep.point);
  const Cycle ready = mapping.time(dep.tensor, dep.point);
  return ready + std::max<Cycle>(1, transit_cycles(there, here));
}

MachineConfig make_machine(int cols, int rows, noc::TechnologyModel tech) {
  noc::GridGeometry geom(cols, rows, Length::millimetres(0.2), tech);
  MachineConfig cfg{.geom = geom};
  cfg.cycle = tech.add_delay;  // one 32-bit op per cycle
  return cfg;
}

ExecutionResult GridMachine::run(
    const FunctionSpec& spec, const Mapping& mapping,
    const std::vector<std::vector<double>>& inputs) const {
  mapping.require_complete(spec);

  // Flat value store.
  const auto total = static_cast<std::size_t>(spec.total_values());
  std::vector<double> values(total, 0.0);
  std::vector<char> ready(total, 0);

  // Load inputs (available at their homes at cycle 0).
  {
    std::size_t idx = 0;
    for (TensorId t : spec.input_tensors()) {
      HARMONY_REQUIRE(idx < inputs.size(),
                      "GridMachine::run: missing input data");
      const auto& data = inputs[idx++];
      const IndexDomain& dom = spec.domain(t);
      HARMONY_REQUIRE(data.size() == static_cast<std::size_t>(dom.size()),
                      "GridMachine::run: input size mismatch");
      for (std::int64_t i = 0; i < dom.size(); ++i) {
        const auto vi = static_cast<std::size_t>(
            spec.value_index(ValueRef{t, dom.delinearize(i)}));
        values[vi] = data[static_cast<std::size_t>(i)];
        ready[vi] = 1;
      }
    }
  }

  // Collect all computed elements with their schedule slots.
  struct Slot {
    Cycle time;
    std::int64_t pe;
    TensorId tensor;
    std::int64_t lin;  // linearized point
  };
  std::vector<Slot> slots;
  for (TensorId t : spec.computed_tensors()) {
    const IndexDomain& dom = spec.domain(t);
    slots.reserve(slots.size() + static_cast<std::size_t>(dom.size()));
    dom.for_each([&](const Point& p) {
      const Cycle c = mapping.time(t, p);
      HARMONY_REQUIRE(c >= 0, "GridMachine::run: negative schedule time");
      slots.push_back(Slot{c,
                           static_cast<std::int64_t>(
                               cfg_.geom.index(mapping.place(t, p))),
                           t, dom.linearize(p)});
    });
  }
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.pe != b.pe) return a.pe < b.pe;
    if (a.tensor != b.tensor) return a.tensor < b.tensor;
    return a.lin < b.lin;
  });

  // One op per PE per cycle.
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i].time == slots[i - 1].time &&
        slots[i].pe == slots[i - 1].pe) {
      throw SimulationError(
          "GridMachine: two elements mapped to one (PE, cycle) slot "
          "(tensor " + spec.name(slots[i].tensor) + ")");
    }
  }

  ExecutionResult res;
  const noc::TechnologyModel& tech = cfg_.geom.tech();
  const Length local_reach =
      cfg_.geom.pitch() * cfg_.local_access_pitch_fraction;

  // Input values reside at a PE once delivered (fm/cost.hpp); repeat
  // uses are local accesses.  Must mirror evaluate_cost exactly — tests
  // pin the two ledgers together.
  DeliveredSet delivered;
  auto first_delivery = [&](const ValueRef& d, std::size_t pe) {
    return delivered.first_delivery(spec.value_index(d), pe);
  };

  std::vector<double> dep_values;
  for (const Slot& s : slots) {
    const IndexDomain& dom = spec.domain(s.tensor);
    const Point p = dom.delinearize(s.lin);
    const noc::Coord here = cfg_.geom.coord(static_cast<std::size_t>(s.pe));
    const std::size_t bits = spec.bits(s.tensor);

    const std::vector<ValueRef> deps = spec.deps(s.tensor, p);
    dep_values.clear();
    dep_values.reserve(deps.size());
    for (const ValueRef& d : deps) {
      const auto di = static_cast<std::size_t>(spec.value_index(d));
      if (!ready[di]) {
        throw SimulationError("GridMachine: element of " +
                              spec.name(s.tensor) +
                              " consumes a value that is never produced "
                              "before it (causality violation)");
      }
      const Cycle need = cfg_.earliest_start(spec, mapping, s.tensor, p, d);
      if (s.time < need) {
        throw SimulationError(
            "GridMachine: causality violation — element of " +
            spec.name(s.tensor) + " scheduled at cycle " +
            std::to_string(s.time) + " but its operand arrives at cycle " +
            std::to_string(need));
      }
      dep_values.push_back(values[di]);

      // Movement accounting for this operand.
      if (spec.is_input(d.tensor)) {
        const InputHome& home = mapping.input_home(d.tensor);
        if (!first_delivery(d, cfg_.geom.index(here))) {
          res.local_access_energy += tech.sram_access_energy(bits,
                                                             local_reach);
        } else if (home.kind == InputHome::Kind::kDram) {
          res.dram_energy += cfg_.geom.dram_access_energy(bits, here);
        } else if (home.home_of(d.point) == here) {
          res.local_access_energy += tech.sram_access_energy(bits,
                                                             local_reach);
        } else {
          const noc::Coord from = home.home_of(d.point);
          res.onchip_movement_energy +=
              cfg_.geom.transfer_energy(bits, from, here);
          ++res.messages;
          res.bit_hops += bits * static_cast<std::uint64_t>(
                                     cfg_.geom.hops(from, here));
        }
      } else {
        const noc::Coord there = mapping.place(d.tensor, d.point);
        if (there == here) {
          res.local_access_energy += tech.sram_access_energy(bits,
                                                             local_reach);
        } else {
          res.onchip_movement_energy +=
              cfg_.geom.transfer_energy(bits, there, here);
          ++res.messages;
          res.bit_hops += bits * static_cast<std::uint64_t>(
                                     cfg_.geom.hops(there, here));
        }
      }
    }

    const auto vi = static_cast<std::size_t>(
        spec.value_index(ValueRef{s.tensor, p}));
    values[vi] = spec.eval(s.tensor, p, dep_values);
    ready[vi] = 1;
    res.compute_energy +=
        tech.op_energy(bits) * spec.cost(s.tensor).ops;
    res.makespan_cycles = std::max(res.makespan_cycles, s.time + 1);
  }

  res.makespan = cfg_.cycle * static_cast<double>(res.makespan_cycles);

  // Extract outputs.
  for (TensorId t : spec.output_tensors()) {
    const IndexDomain& dom = spec.domain(t);
    std::vector<double> data(static_cast<std::size_t>(dom.size()));
    for (std::int64_t i = 0; i < dom.size(); ++i) {
      data[static_cast<std::size_t>(i)] = values[static_cast<std::size_t>(
          spec.value_index(ValueRef{t, dom.delinearize(i)}))];
    }
    res.outputs.push_back(std::move(data));
  }
  return res;
}

}  // namespace harmony::fm
