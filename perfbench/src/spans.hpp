// The benchmark's own span recorder.  Spans are taken around calls
// into the program's public functions (never inside them), kept in a
// bounded in-memory buffer and written out when the run ends.
//
// Self time is a span's duration minus the union of its children's
// intervals clipped to it, so overlapping or nested children are never
// counted twice (a parent's self time can not go negative and summed
// self times never exceed wall time).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRec {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t rid = 0;     ///< request id shared by a request's spans
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct LayerTotals {
  std::uint64_t count = 0;
  double self_ns = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Reserves a span id (so children can name their parent before the
  /// parent has ended).
  std::uint32_t open();
  /// Records a finished span; counts a drop when the buffer is full.
  void close(std::uint32_t id, std::uint32_t parent, std::uint64_t rid,
             const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::vector<SpanRec> spans() const;

  /// Writes the spans as a JSON array of objects.
  bool write_json(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint32_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<SpanRec> spans_;
};

/// RAII span: times its scope and records it on destruction.  A null
/// recorder makes it a no-op, so untraced runs pay one branch.
class Span {
 public:
  Span(SpanRecorder* rec, const char* name, std::uint64_t rid,
       std::uint32_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  const char* name_;
  std::uint64_t rid_;
  std::uint32_t parent_;
  std::uint32_t id_ = 0;
  std::uint64_t start_ = 0;
};

/// Per-name totals with self time = duration - union(children).
[[nodiscard]] std::map<std::string, LayerTotals> reduce_self_time(
    const std::vector<SpanRec>& spans);

/// Totals of one name (zero when no span had it).
[[nodiscard]] inline LayerTotals totals_of(
    const std::map<std::string, LayerTotals>& by_name, const char* name) {
  const auto it = by_name.find(name);
  return it == by_name.end() ? LayerTotals{} : it->second;
}

}  // namespace perfbench
