// Reference oracles: the F&M cost, legality and recompute rules written
// directly over a (FunctionSpec, Mapping, MachineConfig) triple.
//
// They walk the spec's dependence closures and the mapping's place/time
// closures per point, with a hashed (value, PE) delivered set — slow,
// and independent of fm/compiled.cpp by construction.  That is their
// job: tests (and bench_e22's baseline column) pin the production
// evaluator, CompiledSpec, to these on every report field, diagnostic
// text and order included.  Nothing under src/ links this library.
//
// The rules (Dally, paper §3; Martonosi, paper §4):
//   evaluate_cost    — compute energy, movement energy per dependence
//                      edge, DRAM traffic and the schedule makespan;
//   verify           — causality + transit, PE exclusivity, storage
//                      bounds, average link bandwidth (FM001–FM004);
//   recompute_report — remote computed-operand edges priced as move vs.
//                      depth-1 recompute at the consumer.
#pragma once

#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/recompute.hpp"
#include "fm/spec.hpp"

namespace harmony::fm::reference {

[[nodiscard]] CostReport evaluate_cost(const FunctionSpec& spec,
                                       const Mapping& mapping,
                                       const MachineConfig& machine);

[[nodiscard]] LegalityReport verify(const FunctionSpec& spec,
                                    const Mapping& mapping,
                                    const MachineConfig& machine,
                                    const VerifyOptions& opts = {});

[[nodiscard]] RecomputeReport recompute_report(const FunctionSpec& spec,
                                               const Mapping& mapping,
                                               const MachineConfig& machine);

}  // namespace harmony::fm::reference
