// program_pipeline — modular composition, tuned and executed: the
// scan -> filter -> scan chain from algos/pipelines.hpp, tuned stage by
// stage (greedy) and co-optimized across each producer->consumer joint
// (paired), then run for real on the grid machine by
// fm::execute_pipeline.  Every stage's executed ledger must equal the
// cost the tuner priced for it, and the chain's output must equal a host
// reference under both tunings.  Exits 1 on any mismatch.
//
//   $ ./program_pipeline [n] [cols]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "algos/pipelines.hpp"
#include "fm/pipeline.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace harmony;

namespace {

/// Host reference: inclusive scan, ReLU gate, inclusive scan.
std::vector<double> scan_filter_scan_reference(const std::vector<double>& x) {
  std::vector<double> out(x.size());
  double scan = 0.0;
  double rescan = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    scan = x[i] + scan;
    rescan = std::max(scan, 0.0) + rescan;
    out[i] = rescan;
  }
  return out;
}

bool ledger_matches(const fm::ExecutionResult& run, const fm::CostReport& c) {
  return run.makespan_cycles == c.makespan_cycles &&
         run.compute_energy == c.compute_energy &&
         run.onchip_movement_energy == c.onchip_movement_energy &&
         run.local_access_energy == c.local_access_energy &&
         run.dram_energy == c.dram_energy && run.messages == c.messages &&
         run.bit_hops == c.bit_hops;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t n = 32;
  int cols = 4;
  if (argc > 1) n = std::atoll(argv[1]);
  if (argc > 2) cols = std::atoi(argv[2]);
  if (n < 2 || cols < 1) {
    std::cerr << "usage: " << argv[0] << " [n>=2] [cols>=1]\n";
    return 2;
  }

  const fm::Pipeline pipe = algos::scan_filter_scan_pipeline(n);
  const fm::MachineConfig machine = fm::make_machine(cols, 1);
  fm::PipelineOptions opts;
  opts.search.space.time_coeffs = {0, 1, 2};
  opts.search.space.space_coeffs = {-1, 0, 1};

  Rng rng(1);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.next_double(-1.0, 1.0);
  const std::vector<double> want = scan_filter_scan_reference(x);

  Table t({"tuner", "stage", "start", "finish", "priced_nJ", "executed_nJ",
           "ledger"});
  t.title("scan -> filter -> scan (n=" + std::to_string(n) + ") on a " +
          std::to_string(cols) + "x1 grid");
  bool ok = true;
  for (const bool paired : {false, true}) {
    const char* tuner = paired ? "paired" : "greedy";
    const fm::PipelineResult r =
        paired ? fm::tune_pipeline_paired(pipe, machine, opts)
               : fm::tune_pipeline_greedy(pipe, machine, opts);
    if (!r.found) {
      std::cerr << tuner << ": no legal mapping for some stage\n";
      return 1;
    }
    const std::vector<fm::ExecutionResult> runs =
        fm::execute_pipeline(pipe, machine, opts.strategy, r, {x});
    for (std::size_t s = 0; s < runs.size(); ++s) {
      const fm::StageResult& st = r.stages[s];
      const bool same = ledger_matches(runs[s], st.cost);
      ok = ok && same;
      t.add_row({std::string(tuner), st.name, st.start_cycle,
                 st.finish_cycle, st.cost.total_energy().nanojoules(),
                 runs[s].total_energy().nanojoules(),
                 std::string(same ? "equal" : "DIFFERS")});
    }
    const bool values = runs.back().outputs.front() == want;
    ok = ok && values;
    std::cout << tuner << ": chain makespan " << r.total.makespan_cycles
              << " cycles, " << r.total.total_energy().nanojoules()
              << " nJ; output vs host reference: "
              << (values ? "MATCHES" : "MISMATCH") << "\n";
  }
  t.print(std::cout);
  return ok ? 0 : 1;
}
