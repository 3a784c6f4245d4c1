// Analytic cost evaluation for (function, mapping) pairs (Dally, §3).
//
// "This model makes it possible to write algorithms (function + mapping)
//  with predictable execution time and energy because communication — the
//  major source of delay and energy consumption — is made explicit."
//
// evaluate_cost() prices a mapping without executing it (no input data, no
// value storage): compute energy, movement energy per dependence edge,
// DRAM traffic, and the schedule makespan.  The body is the compiled
// evaluator (fm/compiled.hpp) — the one the autotuner runs per candidate;
// this overload over a closure Mapping is its front door (compile_spec +
// table_from_mapping).  Tests pin it to the Mapping-walking reference
// (tests/reference) and to the executing GridMachine's ledger (they must
// agree exactly).
#pragma once

#include <cstdint>

#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "support/units.hpp"

namespace harmony::fm {

struct CostReport {
  Cycle makespan_cycles = 0;
  Time makespan = Time::zero();
  Energy compute_energy = Energy::zero();
  Energy onchip_movement_energy = Energy::zero();
  Energy local_access_energy = Energy::zero();
  Energy dram_energy = Energy::zero();
  std::uint64_t messages = 0;
  std::uint64_t bit_hops = 0;
  double total_ops = 0.0;

  [[nodiscard]] Energy total_energy() const {
    return compute_energy + onchip_movement_energy + local_access_energy +
           dram_energy;
  }
  /// Energy per ALU operation — the efficiency metric of bench E12.
  [[nodiscard]] Energy energy_per_op() const {
    return total_ops > 0 ? total_energy() / total_ops : Energy::zero();
  }
  /// Energy-delay product (fJ * ps), a common combined figure of merit.
  [[nodiscard]] double energy_delay_product() const {
    return total_energy().femtojoules() * makespan.picoseconds();
  }
};

/// Figures of merit the autotuner can optimize.
enum class FigureOfMerit { kTime, kEnergy, kEnergyDelay };

[[nodiscard]] double merit_value(const CostReport& r, FigureOfMerit fom);

[[nodiscard]] CostReport evaluate_cost(const FunctionSpec& spec,
                                       const Mapping& mapping,
                                       const MachineConfig& machine);

}  // namespace harmony::fm
