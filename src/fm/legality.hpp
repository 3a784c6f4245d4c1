// Mapping legality verification (Dally, paper §3; Martonosi, paper §4).
//
// "A legal mapping is one that preserves causality — scheduling element
//  computations after their inputs have been computed, allows time for
//  elements to move from definition to use, and does not exceed storage
//  bounds for elements in transit."
//
// verify() checks a (FunctionSpec, Mapping, MachineConfig) triple without
// executing it — the compiled body (fm/compiled.hpp) behind a front door
// that compiles the triple and snapshots the mapping as a TableMap:
//   1. causality + transit time   (always)
//   2. PE exclusivity             (one element per (PE, cycle); always)
//   3. storage bounds             (peak live values per PE; optional)
//   4. link bandwidth             (average-rate per directed link; optional)
//
// This is also the library's instance of Martonosi's "formal specification
// + automated verification" discipline: every mapping a bench uses must
// pass verify() before it is simulated.
#pragma once

#include <cstdint>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"

namespace harmony::fm {

struct VerifyOptions {
  bool check_storage = true;
  bool check_bandwidth = true;
  /// Stop collecting diagnostic records after this many (counts continue).
  std::size_t max_messages = 8;
};

struct LegalityReport {
  bool ok = true;
  std::uint64_t causality_violations = 0;
  std::uint64_t exclusivity_violations = 0;
  std::uint64_t storage_violations = 0;
  std::uint64_t bandwidth_violations = 0;
  /// Peak live values over all PEs (filled when storage is checked),
  /// and the PE where the peak occurs (-1 if storage was not checked).
  std::int64_t peak_live_values = 0;
  std::int32_t peak_live_pe = -1;
  /// Peak average bits/cycle over all directed links (when checked),
  /// and the directed-link index where it occurs (-1 if not checked).
  double peak_link_bits_per_cycle = 0.0;
  std::int64_t peak_link = -1;
  /// Typed violation records (rules FM001–FM004, analyze/diagnostic.hpp),
  /// capped at VerifyOptions::max_messages; the counters above keep
  /// counting past the cap.
  std::vector<analyze::Diagnostic> diagnostics;

  [[nodiscard]] std::uint64_t total_violations() const {
    return causality_violations + exclusivity_violations +
           storage_violations + bandwidth_violations;
  }

  /// First diagnostic message, or "" — handy for error/assert output.
  [[nodiscard]] std::string first_message() const {
    return diagnostics.empty() ? std::string{} : diagnostics.front().message;
  }
};

[[nodiscard]] LegalityReport verify(const FunctionSpec& spec,
                                    const Mapping& mapping,
                                    const MachineConfig& machine,
                                    const VerifyOptions& opts = {});

}  // namespace harmony::fm
