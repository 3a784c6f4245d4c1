// Exporters for harmony::trace captures.
//
// Two consumers, two formats:
//   * write_chrome_json — Chrome trace-event JSON ("traceEvents" array of
//     "X" complete events, "C" counters, and "M" thread_name metadata),
//     loadable in Perfetto / chrome://tracing for interactive timelines.
//   * summarize — an in-process reduction to per-worker utilization,
//     steal counts, and the critical path through the span DAG, rendered
//     as a Table like every other harmony report.  DESIGN.md §11.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/table.hpp"
#include "trace/trace.hpp"

namespace harmony::trace {

/// Writes `cap` as Chrome trace-event JSON.  Timestamps are normalized
/// to the earliest event (µs since capture start) so Perfetto's viewport
/// opens on the data rather than on steady-clock epoch.
void write_chrome_json(std::ostream& os, const Capture& cap);

/// write_chrome_json to a file.  Throws InvalidArgument if the file
/// cannot be opened.
void write_chrome_json_file(const std::string& path, const Capture& cap);

/// One traced thread's reduction.
struct WorkerSummary {
  std::uint32_t tid = 0;
  std::string name;
  std::uint64_t spans = 0;    ///< span events (sleep included)
  /// Union of the thread's non-sleep span intervals: nested and
  /// overlapping spans count their covered time once.
  std::uint64_t busy_ns = 0;
  std::uint64_t sleep_ns = 0; ///< sum of "sleep" span durations
  std::uint64_t steals = 0;   ///< sched/steal spans recorded by this thread
  /// busy_ns / capture wall time: a duty cycle, at most 1.
  double utilization = 0.0;
};

struct Summary {
  std::vector<WorkerSummary> workers;  ///< sorted by tid
  std::uint64_t wall_ns = 0;           ///< max end − min begin over spans
  /// Longest chain of spans under time-induced happens-before
  /// (a span can follow another only if it begins at-or-after the other
  /// ends).  Sleep spans are excluded — they are waiting, not work.
  std::uint64_t critical_path_ns = 0;
  std::uint64_t events = 0;   ///< events in the capture
  std::uint64_t dropped = 0;  ///< events lost to ring wrap
};

[[nodiscard]] Summary summarize(const Capture& cap);

/// Renders a Summary in the {"metric","value"} style of metrics_table.
[[nodiscard]] Table summary_table(const Summary& s);

/// Parses `--trace=PATH` or `--trace PATH` out of argv; returns "" when
/// absent.  Shared by serve_demo and the bench binaries.
[[nodiscard]] std::string trace_flag(int argc, char** argv);

}  // namespace harmony::trace
