#include <atomic>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {
std::atomic<std::uint64_t> g_sink{0};
}  // namespace

void keep(std::uint64_t v) { g_sink.fetch_xor(v, std::memory_order_relaxed); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void mismatch(RunResult& r, const std::string& what) {
  r.correct = false;
  if (r.mismatches.size() < 20) r.mismatches.push_back(what);
}

bool same_cost(const harmony::fm::CostReport& a,
               const harmony::fm::CostReport& b) {
  return a.makespan_cycles == b.makespan_cycles &&
         a.makespan.picoseconds() == b.makespan.picoseconds() &&
         a.compute_energy.femtojoules() == b.compute_energy.femtojoules() &&
         a.onchip_movement_energy.femtojoules() ==
             b.onchip_movement_energy.femtojoules() &&
         a.local_access_energy.femtojoules() ==
             b.local_access_energy.femtojoules() &&
         a.dram_energy.femtojoules() == b.dram_energy.femtojoules() &&
         a.messages == b.messages && a.bit_hops == b.bit_hops &&
         a.total_ops == b.total_ops;
}

harmony::fm::Mapping input_proto(const harmony::serve::Request& req) {
  harmony::fm::Mapping m;
  const auto inputs = req.spec->input_tensors();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    m.set_input(inputs[i], i < req.inputs.size() ? req.inputs[i].to_home()
                                                 : harmony::fm::InputHome::dram());
  }
  return m;
}

harmony::fm::Mapping full_mapping(const harmony::serve::Request& req,
                                  const harmony::fm::AffineMap& map) {
  harmony::fm::Mapping m = input_proto(req);
  m.set_computed(req.spec->computed_tensors().front(), map.place_fn(),
                 map.time_fn());
  return m;
}

}  // namespace perfbench
