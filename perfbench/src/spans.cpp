#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "util.hpp"

namespace perfbench {

std::uint32_t SpanRecorder::open() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::close(std::uint32_t id, std::uint32_t parent,
                         std::uint64_t rid, const char* name,
                         std::uint64_t start_ns, std::uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back(SpanRec{id, parent, rid, name, start_ns, end_ns});
}

std::uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<SpanRec> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_json(const std::string& path) const {
  const std::vector<SpanRec> all = spans();
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"rid\":" << s.rid << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}" << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

Span::Span(SpanRecorder* rec, const char* name, std::uint64_t rid,
           std::uint32_t parent)
    : rec_(rec), name_(name), rid_(rid), parent_(parent) {
  if (rec_ == nullptr) return;
  id_ = rec_->open();
  start_ = now_ns();
}

Span::~Span() {
  if (rec_ == nullptr) return;
  rec_->close(id_, parent_, rid_, name_, start_, now_ns());
}

std::map<std::string, LayerTotals> reduce_self_time(
    const std::vector<SpanRec>& spans) {
  std::unordered_map<std::uint32_t, std::vector<const SpanRec*>> children;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTotals> out;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const SpanRec& s : spans) {
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    std::uint64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      iv.clear();
      for (const SpanRec* c : it->second) {
        const std::uint64_t lo = std::max(c->start_ns, s.start_ns);
        const std::uint64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : iv) {
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    LayerTotals& t = out[s.name];
    ++t.count;
    t.self_ns += static_cast<double>(dur - covered);
  }
  return out;
}

}  // namespace perfbench
