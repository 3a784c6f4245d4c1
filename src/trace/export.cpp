#include "trace/export.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <tuple>

#include "support/error.hpp"

namespace harmony::trace {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
/// Event names are string literals, but thread names are user-supplied.
void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(ch >> 4) & 0xf] << hex[ch & 0xf];
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

/// Trace-event timestamps are microseconds; emit fractional µs so
/// nanosecond-resolution spans survive the unit change.
void write_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns / 100) % 10)
     << static_cast<char>('0' + (ns / 10) % 10)
     << static_cast<char>('0' + ns % 10);
}

[[nodiscard]] bool is_sleep(const Event& e) {
  return std::strcmp(e.name, "sleep") == 0;
}

[[nodiscard]] bool is_steal(const Event& e) {
  return std::strcmp(e.cat, "sched") == 0 && std::strcmp(e.name, "steal") == 0;
}

}  // namespace

void write_chrome_json(std::ostream& os, const Capture& cap) {
  // Normalize to the earliest timestamp so the viewport opens on data.
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const Event& e : cap.events) t0 = std::min(t0, e.begin_ns);
  if (cap.events.empty()) t0 = 0;

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const CapturedThread& t : cap.threads) {
    if (t.name.empty()) continue;
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
       << t.tid << ",\"args\":{\"name\":";
    write_json_string(os, t.name);
    os << "}}";
  }
  for (const Event& e : cap.events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"ph\":\"" << (e.kind == EventKind::kSpan ? 'X' : 'C')
       << "\",\"name\":";
    write_json_string(os, e.name);
    os << ",\"cat\":";
    write_json_string(os, e.cat);
    os << ",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":";
    write_us(os, e.begin_ns - t0);
    if (e.kind == EventKind::kSpan) {
      os << ",\"dur\":";
      write_us(os, e.end_ns - e.begin_ns);
      os << ",\"args\":{\"id\":" << e.id << ",\"arg0\":" << e.arg0
         << ",\"arg1\":" << e.arg1 << "}";
    } else {
      os << ",\"args\":{\"value\":" << e.arg0 << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

void write_chrome_json_file(const std::string& path, const Capture& cap) {
  std::ofstream os(path);
  HARMONY_REQUIRE(os.good(), "trace: cannot open output file: " + path);
  write_chrome_json(os, cap);
}

Summary summarize(const Capture& cap) {
  Summary s;
  s.dropped = cap.dropped;
  s.events = cap.events.size();

  // Per-thread reductions.  Threads that recorded nothing still appear
  // (a parked worker whose sleep spans were all dropped is worth seeing).
  for (const CapturedThread& t : cap.threads) {
    WorkerSummary w;
    w.tid = t.tid;
    w.name = t.name;
    s.workers.push_back(std::move(w));
  }
  auto worker = [&s](std::uint32_t tid) -> WorkerSummary& {
    for (WorkerSummary& w : s.workers) {
      if (w.tid == tid) return w;
    }
    s.workers.push_back(WorkerSummary{});
    s.workers.back().tid = tid;
    return s.workers.back();
  };

  std::uint64_t min_begin = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_end = 0;
  // (begin, end) of chainable work spans for the critical-path scan.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> work;
  // (tid, begin, end) of every non-sleep span, for the busy-time union.
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>> busy;
  for (const Event& e : cap.events) {
    if (e.kind != EventKind::kSpan) continue;
    WorkerSummary& w = worker(e.tid);
    w.spans += 1;
    min_begin = std::min(min_begin, e.begin_ns);
    max_end = std::max(max_end, e.end_ns);
    if (is_sleep(e)) {
      w.sleep_ns += e.end_ns - e.begin_ns;
      continue;  // waiting, not work: no busy time, no chain membership
    }
    busy.emplace_back(e.tid, e.begin_ns, e.end_ns);
    if (is_steal(e)) w.steals += 1;
    if (e.end_ns > e.begin_ns) work.emplace_back(e.begin_ns, e.end_ns);
  }
  // Busy time is the union of a thread's non-sleep span intervals: a
  // span nested in (or overlapping) another on the same thread — a serve
  // exec span inside a steal span, grains inside either — adds only the
  // time not already covered, so utilization is a duty cycle, <= 1.
  std::sort(busy.begin(), busy.end());
  for (std::size_t i = 0; i < busy.size();) {
    const auto [tid, first_begin, first_end] = busy[i];
    WorkerSummary& w = worker(tid);
    std::uint64_t lo = first_begin;
    std::uint64_t hi = first_end;
    for (++i; i < busy.size() && std::get<0>(busy[i]) == tid; ++i) {
      const std::uint64_t begin = std::get<1>(busy[i]);
      if (begin > hi) {
        w.busy_ns += hi - lo;
        lo = begin;
      }
      hi = std::max(hi, std::get<2>(busy[i]));
    }
    w.busy_ns += hi - lo;
  }
  if (max_end >= min_begin) s.wall_ns = max_end - min_begin;
  for (WorkerSummary& w : s.workers) {
    w.utilization =
        s.wall_ns == 0 ? 0.0
                       : static_cast<double>(w.busy_ns) /
                             static_cast<double>(s.wall_ns);
  }
  std::sort(s.workers.begin(), s.workers.end(),
            [](const WorkerSummary& a, const WorkerSummary& b) {
              return a.tid < b.tid;
            });

  // Critical path: longest chain of work spans where each span begins
  // at-or-after its predecessor ends (the only ordering a timestamp
  // trace can certify).  Zero-duration spans were excluded above — they
  // add nothing to any chain and would complicate the tie handling.
  //
  // DP in begin order: f(i) = dur(i) + max{ f(j) : end(j) <= begin(i) }.
  // Every such j has begin(j) < end(j) <= begin(i), so j precedes i in
  // begin order and f(j) is already computed; a pointer over the
  // end-sorted order maintains the running max in O(n log n) total.
  std::sort(work.begin(), work.end());
  std::vector<std::size_t> by_end(work.size());
  for (std::size_t i = 0; i < by_end.size(); ++i) by_end[i] = i;
  std::sort(by_end.begin(), by_end.end(),
            [&work](std::size_t a, std::size_t b) {
              return work[a].second < work[b].second;
            });
  std::vector<std::uint64_t> f(work.size(), 0);
  std::uint64_t best_finished = 0;  // max f(j) over consumed spans
  std::size_t k = 0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    while (k < by_end.size() && work[by_end[k]].second <= work[i].first) {
      best_finished = std::max(best_finished, f[by_end[k]]);
      ++k;
    }
    f[i] = (work[i].second - work[i].first) + best_finished;
    s.critical_path_ns = std::max(s.critical_path_ns, f[i]);
  }
  return s;
}

Table summary_table(const Summary& s) {
  Table t({"metric", "value"});
  t.title("trace summary");
  t.add_row({"wall_us", static_cast<double>(s.wall_ns) / 1000.0});
  t.add_row(
      {"critical_path_us", static_cast<double>(s.critical_path_ns) / 1000.0});
  t.add_row({"events", static_cast<std::int64_t>(s.events)});
  t.add_row({"dropped", static_cast<std::int64_t>(s.dropped)});
  for (const WorkerSummary& w : s.workers) {
    const std::string who =
        w.name.empty() ? "tid" + std::to_string(w.tid) : w.name;
    t.add_row({who + ".spans", static_cast<std::int64_t>(w.spans)});
    t.add_row({who + ".busy_us", static_cast<double>(w.busy_ns) / 1000.0});
    t.add_row({who + ".util", w.utilization});
    t.add_row({who + ".steals", static_cast<std::int64_t>(w.steals)});
    t.add_row({who + ".sleep_us", static_cast<double>(w.sleep_ns) / 1000.0});
  }
  return t;
}

std::string trace_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--trace=", 0) == 0) {
      return std::string(arg.substr(std::strlen("--trace=")));
    }
    if (arg == "--trace" && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

}  // namespace harmony::trace
