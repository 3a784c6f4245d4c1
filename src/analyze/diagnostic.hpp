// Structured diagnostics — the shared core of harmony::analyze.
//
// Every analysis pass in the library (the mapping legality checker and
// linter, the determinacy-race detector, future sanitizers) reports its
// findings as typed Diagnostic records instead of flat strings:
//
//   Diagnostic{rule_id, severity, location(op/PE/cycle), message, hint}
//
// Rule IDs are *stable*: they come from the registry below, tests assert
// them, and the serving metrics layer counts them, so a rule keeps its ID
// for its lifetime.  The registry also carries each rule's default
// severity and a generic remediation hint, so emitters only supply the
// location and the specific message.
//
// Layering: this header is self-contained (support-only) on purpose —
// fm::verify fills LegalityReport::diagnostics by including it, without
// harmony_fm linking against harmony_analyze.  Rendering (Table / JSON)
// lives in diagnostic.cpp inside the harmony_analyze library.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace harmony {
class Table;  // support/table.hpp
}

namespace harmony::analyze {

enum class Severity : std::uint8_t { kError, kWarning, kInfo };

[[nodiscard]] constexpr const char* to_string(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kInfo:
      return "info";
  }
  return "?";
}

/// Where in space-time a diagnostic points.  `op` names the offending
/// operation or memory element ("H(3,4)", "data[17]"); `pe` is a linear
/// PE index (kNoPe when not tied to a PE); `cycle` is a schedule cycle
/// (kNoCycle when not tied to one).
struct Location {
  static constexpr std::int32_t kNoPe = -1;
  static constexpr std::int64_t kNoCycle =
      std::numeric_limits<std::int64_t>::min();

  std::string op;
  std::int32_t pe = kNoPe;
  std::int64_t cycle = kNoCycle;
};

struct Diagnostic {
  std::string rule_id;
  Severity severity = Severity::kError;
  Location location;
  std::string message;
  std::string hint;
};

// ---------------------------------------------------------------------
// Rule registry.  IDs are stable; append new rules, never renumber.
// ---------------------------------------------------------------------

struct RuleInfo {
  const char* id;
  Severity severity;
  const char* title;
  const char* hint;
};

inline constexpr RuleInfo kRules[] = {
    // F&M legality errors (fm::verify) — Dally's three conditions
    // plus PE exclusivity.
    {"FM001", Severity::kError, "fm-causality",
     "delay the consumer (larger time coefficient) or move producer and "
     "consumer closer together"},
    {"FM002", Severity::kError, "fm-exclusivity",
     "skew the schedule or spread the space map so elements stop sharing "
     "a (PE, cycle) slot"},
    {"FM003", Severity::kError, "fm-storage",
     "consume values sooner, spread placement, or raise pe_capacity_values"},
    {"FM004", Severity::kError, "fm-bandwidth",
     "re-place producers nearer their consumers or stretch the schedule"},
    // Search option validation (fm/search.cpp, fm/strategy) — degenerate
    // option values that would silently search nothing.
    {"FM005", Severity::kError, "fm-search-options",
     "fix the degenerate search option (0 means \"none\", not \"auto\"; "
     "use kAutoGrain for automatic grain sizing)"},
    // Enumeration-plan overflow (fm/enum_plan.cpp) — the mixed-radix
    // slot count would wrap uint64 and silently truncate the space.
    {"FM006", Severity::kError, "fm-enum-overflow",
     "shrink the coefficient pools or split the search space; a wrapped "
     "slot count would silently enumerate a truncated space"},
    // Mapping lint warnings (analyze/lint.cpp) — legal but smelly.
    {"FM101", Severity::kWarning, "fm-idle-pes",
     "spread the space map (nonzero space coefficients) so idle PEs do "
     "useful work"},
    {"FM102", Severity::kWarning, "fm-storage-highwater",
     "transit buffering is close to PE capacity; shorten value lifetimes "
     "before scaling the problem up"},
    {"FM103", Severity::kWarning, "fm-bandwidth-hotspot",
     "a link runs near its bandwidth cap; rebalance routes before scaling "
     "the problem up"},
    {"FM104", Severity::kWarning, "fm-recompute",
     "these values are cheaper to recompute at the consumer than to ship "
     "(fm::recompute_report); consider replicating the producer"},
    // Determinacy races (analyze/race.hpp) — Blelloch's work-depth model
    // assumes race-free series-parallel programs.
    {"RACE001", Severity::kError, "race-write-write",
     "two logically parallel strands write the same location; partition "
     "the output or privatize the accumulator"},
    {"RACE002", Severity::kError, "race-read-write",
     "a read and a write of the same location are logically parallel; "
     "join before reading or double-buffer"},
    // Execution-witness axioms (analyze/exec.hpp) — the relational model
    // of a legal F&M execution (EXEC001–EXEC005, checked over op events,
    // value deliveries, and storage-residency intervals) and of the
    // scheduler's fork-join runs (EXEC006–EXEC008, checked over
    // trace-extracted witnesses).  EXEC009 marks truncated evidence.
    {"EXEC001", Severity::kError, "exec-order-cycle",
     "the union of dependence order and same-PE program order has a "
     "cycle; no schedule of these events can have happened"},
    {"EXEC002", Severity::kError, "exec-event-domain",
     "an op event is malformed (PE out of range, negative or oversized "
     "cycle, or two ops in one (PE, cycle) slot); later axioms skip it"},
    {"EXEC003", Severity::kError, "exec-delivery-before-use",
     "a value arrives after the op that consumes it executes; delay the "
     "consumer or move the producer/home closer"},
    {"EXEC004", Severity::kError, "exec-residency-overflow",
     "more values are resident on a PE than its capacity at some cycle; "
     "the modelled storage ledger cannot hold this execution"},
    {"EXEC005", Severity::kError, "exec-unrouted-delivery",
     "a delivery names an endpoint with no route in the witness's "
     "routability relation; no link walk can carry it"},
    {"EXEC006", Severity::kError, "exec-span-nesting",
     "two spans on one thread overlap without nesting; a fork-join "
     "(series-parallel) execution cannot produce this interval order"},
    {"EXEC007", Severity::kError, "exec-lane-overlap",
     "search-lane grains overlap in time on one lane, migrate threads "
     "mid-lane, or claim overlapping slot ranges; the grain ticket "
     "contract (one lane, one grain, once) is broken"},
    {"EXEC008", Severity::kError, "exec-steal-sanity",
     "a steal event is impossible (self-steal, unknown worker, or "
     "outside any run session); the scheduler witness is inconsistent"},
    {"EXEC009", Severity::kWarning, "exec-witness-truncated",
     "the trace ring dropped events, so the witness is incomplete; "
     "error verdicts still hold, but a clean pass is advisory — enlarge "
     "the ring (TraceSession events_per_thread) to certify"},
};

inline constexpr std::size_t kRuleCount = sizeof(kRules) / sizeof(kRules[0]);

/// Registry index of a rule ID, or -1 for unknown IDs.
[[nodiscard]] constexpr int rule_index(std::string_view id) {
  for (std::size_t i = 0; i < kRuleCount; ++i) {
    if (id == kRules[i].id) return static_cast<int>(i);
  }
  return -1;
}

/// Registry entry for a rule ID; nullptr for unknown IDs.
[[nodiscard]] constexpr const RuleInfo* find_rule(std::string_view id) {
  const int idx = rule_index(id);
  return idx < 0 ? nullptr : &kRules[idx];
}

/// Builds a Diagnostic for a registered rule: severity and hint come
/// from the registry, the caller supplies location and message.
[[nodiscard]] inline Diagnostic make_diagnostic(std::string_view rule_id,
                                                Location location,
                                                std::string message) {
  const RuleInfo* info = find_rule(rule_id);
  Diagnostic d;
  d.rule_id = std::string(rule_id);
  d.severity = info != nullptr ? info->severity : Severity::kError;
  d.location = std::move(location);
  d.message = std::move(message);
  if (info != nullptr) d.hint = info->hint;
  return d;
}

/// Bounded diagnostic collector with per-rule counts.  Stores up to
/// `capacity` records; counters keep counting past the cap (the same
/// truncation semantics as fm::VerifyOptions::max_messages).
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::size_t capacity = 64) : capacity_(capacity) {}

  void add(Diagnostic d) {
    switch (d.severity) {
      case Severity::kError:
        ++errors_;
        break;
      case Severity::kWarning:
        ++warnings_;
        break;
      case Severity::kInfo:
        ++infos_;
        break;
    }
    const int idx = rule_index(d.rule_id);
    if (idx >= 0) ++by_rule_[static_cast<std::size_t>(idx)];
    if (diags_.size() < capacity_) {
      diags_.push_back(std::move(d));
    } else {
      ++dropped_;
    }
  }

  void add(std::string_view rule_id, Location location, std::string message) {
    add(make_diagnostic(rule_id, std::move(location), std::move(message)));
  }

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  [[nodiscard]] std::uint64_t warnings() const { return warnings_; }
  [[nodiscard]] std::uint64_t infos() const { return infos_; }
  [[nodiscard]] std::uint64_t total() const {
    return errors_ + warnings_ + infos_;
  }
  /// Records not stored because the capacity was reached.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t count(std::string_view rule_id) const {
    const int idx = rule_index(rule_id);
    return idx < 0 ? 0 : by_rule_[static_cast<std::size_t>(idx)];
  }
  [[nodiscard]] bool ok() const { return errors_ == 0; }

 private:
  std::size_t capacity_;
  std::vector<Diagnostic> diags_;
  std::uint64_t by_rule_[kRuleCount] = {};
  std::uint64_t errors_ = 0;
  std::uint64_t warnings_ = 0;
  std::uint64_t infos_ = 0;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------
// Rendering (diagnostic.cpp, harmony_analyze).
// ---------------------------------------------------------------------

/// One row per diagnostic: rule, severity, op, pe, cycle, message, hint.
/// print() for humans, print_json() for machines (harmony-lint --json).
[[nodiscard]] Table diagnostics_table(const std::vector<Diagnostic>& diags);

/// The table above rendered as a JSON string.
[[nodiscard]] std::string diagnostics_json(const std::vector<Diagnostic>& diags);

}  // namespace harmony::analyze
