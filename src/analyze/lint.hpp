// Mapping linter (harmony::analyze) — structured diagnostics over a
// compiled spec and a per-op placement table.
//
// lint_mapping() runs the compiled legality report (fm::verify over
// CompiledSpec) and forwards its error diagnostics (FM001–FM004), then
// adds warning-tier rules for mappings that are *legal but smelly* —
// the gap Dally's paper cares about between "runs" and "runs well on
// this machine":
//
//   FM101 fm-idle-pes           a large fraction of PEs never compute
//   FM102 fm-storage-highwater  peak live values near PE capacity
//   FM103 fm-bandwidth-hotspot  a link runs near its bandwidth cap
//   FM104 fm-recompute          shipped values cheaper to recompute
//
// One body, over (CompiledSpec, TableMap): FM101 reads the table's PEs,
// FM102/FM103 the legality report's peaks, FM104 the compiled recompute
// report.  A caller that already holds the compiled spec (serve's
// certification loop) lints with no further compile; the
// (spec, Mapping | TableMap, machine) overloads compile first.
//
// All thresholds live in LintOptions so tests and the harmony-lint CLI
// can tighten or relax them.
#pragma once

#include <cstdint>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "fm/strategy/table_map.hpp"

namespace harmony::fm {
struct CompiledSpec;  // fm/compiled.hpp
}  // namespace harmony::fm

namespace harmony::analyze {

struct LintOptions {
  fm::VerifyOptions verify;
  /// FM101 fires when at least this fraction of PEs compute nothing
  /// (only on machines with more than one PE).
  double idle_pe_warn_fraction = 0.5;
  /// FM102 fires when peak live values reach this fraction of
  /// pe_capacity_values without actually violating it.
  double storage_highwater_fraction = 0.75;
  /// FM103 fires when a link's average rate reaches this fraction of
  /// link_bits_per_cycle without actually violating it.
  double bandwidth_hotspot_fraction = 0.75;
  /// FM104 fires when recompute would save at least this fraction of
  /// the movement energy on remote computed-operand edges.
  double recompute_savings_fraction = 0.25;
  /// Cap on stored diagnostic records (counts continue past it).
  std::size_t max_diagnostics = 64;
};

struct LintReport {
  /// The underlying legality result (counters, peaks).
  fm::LegalityReport legality;
  /// Errors (forwarded from legality) followed by lint warnings.
  std::vector<Diagnostic> diagnostics;
  std::uint64_t errors = 0;
  std::uint64_t warnings = 0;
  /// Records dropped at the max_diagnostics cap.
  std::uint64_t dropped = 0;
  /// PEs that compute at least one element / total PEs (FM101 inputs).
  std::int64_t busy_pes = 0;
  std::int64_t total_pes = 0;

  /// ok == legal; warnings do not make a mapping illegal.
  [[nodiscard]] bool ok() const { return errors == 0; }
  [[nodiscard]] std::uint64_t count(std::string_view rule_id) const {
    std::uint64_t n = 0;
    for (const Diagnostic& d : diagnostics) {
      if (d.rule_id == rule_id) ++n;
    }
    return n;
  }
};

/// The one lint body.  `tm` must match `cs` (table_from_affine /
/// table_from_mapping of it, or a search_table winner on it).
[[nodiscard]] LintReport lint_mapping(const fm::CompiledSpec& cs,
                                      const fm::TableMap& tm,
                                      const LintOptions& opts = {});

/// Front door for a closure Mapping: compile_spec + table_from_mapping.
[[nodiscard]] LintReport lint_mapping(const fm::FunctionSpec& spec,
                                      const fm::Mapping& mapping,
                                      const fm::MachineConfig& machine,
                                      const LintOptions& opts = {});

/// Front door for a per-op placement table (fm/strategy/table_map.hpp)
/// of a single-computed-tensor spec: compiles with the table's input
/// homes and lints the table itself.
[[nodiscard]] LintReport lint_mapping(const fm::FunctionSpec& spec,
                                      const fm::TableMap& table,
                                      const fm::MachineConfig& machine,
                                      const LintOptions& opts = {});

}  // namespace harmony::analyze
