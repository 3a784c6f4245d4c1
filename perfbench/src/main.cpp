// perfbench — the harmony benchmark.
//
//   perfbench --workload <tune_affine|tune_stochastic>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --selftest
//
// Prints one line per metric for people, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics; each
// list is fixed below and is the same for every workload, so a layer a
// workload does not exercise reads 0 there.  Exits 1 when any reply
// failed its check, 2 on bad arguments, 3 without a result when the run
// measured nothing comparable (a p95 without ten samples beyond it).
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace perfbench {
int run_selftests();
}  // namespace perfbench

namespace {

using perfbench::Metric;

struct Spec {
  const char* name;
  const char* unit;
};

// End-to-end metrics over every call of the timed window: the median
// and p95 call latency of all tunes and of the workload's heavy class
// (tunes with 100+ legal candidates; pipeline tunes), and tunes per
// second of call time.
constexpr Spec kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"tune_p50_ms", "ms"},      {"tune_p95_ms", "ms"},
    {"heavy_p50_ms", "ms"},     {"heavy_p95_ms", "ms"},
    {"tunes_per_s", "1/s"},
};

constexpr Spec kPerLayer[] = {
    {"fm.compile_spec.ms", "ms"},
    {"fm.search_affine.ms", "ms"},
    {"fm.search_affine_serial.ms", "ms"},
    {"sched.search_speedup", "x"},
    {"sched.steals", "count"},
    {"fm.decode_slots.ns_per_cand", "ns"},
    {"fm.verify_ok.ns_per_cand", "ns"},
    {"fm.evaluate_cost.ns_per_cand", "ns"},
    {"fm.search.candidates_per_s", "1/s"},
    {"fm.search.enumerated", "count"},
    {"fm.search.quick_rejected", "count"},
    {"fm.search.verify_rejected", "count"},
    {"fm.search.legal", "count"},
    {"fm.search.legal_ratio", "share"},
    {"fm.search.quick_reject_share", "share"},
    {"fm.search.verify_reject_share", "share"},
    {"tune.legal_winner_share", "share"},
    {"analyze.exec_check.ms", "ms"},
    {"analyze.lint_mapping.ms", "ms"},
    {"serve.compile_cache.hit_ratio", "share"},
    {"serve.tune.residual_ms", "ms"},
    {"serve.tune.call_ms", "ms"},
    {"fm.build_strategy_spec.ms", "ms"},
    {"fm.search_table.ms", "ms"},
    {"fm.strategy.moves_per_s", "1/s"},
    {"fm.strategy.accept_ratio", "share"},
    {"fm.strategy.illegal_ratio", "share"},
    {"fm.tune_pipeline_paired.ms", "ms"},
    {"fm.pipeline.probe_searches", "count"},
    {"serve.stage_compile.hit_ratio", "share"},
    {"trace.overhead_share", "share"},
    {"trace.drops", "count"},
    {"error_share", "share"},
};

const Metric* find(const std::vector<Metric>& v, const char* name) {
  for (const Metric& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_line(const Metric& m) {
  std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<tune_affine|tune_stochastic> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return perfbench::run_selftests();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        const auto w = perfbench::parse_workload(v);
        if (!w) return usage(("unknown workload " + v).c_str());
        cfg.workload = *w;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = v == "1";
      } else if (a == "--trace-out") {
        cfg.trace_path = v;
      } else {
        return usage(("unknown flag " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  perfbench::RunResult r = perfbench::run_tune(cfg);

  std::printf("%s seed=%llu seconds=%g trace=%d\n",
              perfbench::to_string(cfg.workload),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? 1 : 0);
  std::printf(" end to end:\n");
  for (const Metric& m : r.e2e) print_line(m);
  std::printf(" samples:\n");
  for (const Metric& m : r.counts) print_line(m);
  std::printf(" per layer%s:\n", cfg.trace ? "" : " (shares only; run with --trace 1 for times)");
  for (const Metric& m : r.layers) print_line(m);
  for (const std::string& s : r.mismatches) {
    std::fprintf(stderr, "MISMATCH: %s\n", s.c_str());
  }
  for (const std::string& s : r.invalid) {
    std::fprintf(stderr, "NO RESULT: %s\n", s.c_str());
  }
  if (!r.invalid.empty()) return 3;

  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name, const char* unit, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(value) ? value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + unit + "\"}";
    first = false;
  };
  if (cfg.trace) {
    for (const auto& s : kPerLayer) {
      const Metric* m = find(r.layers, s.name);
      emit(s.name, s.unit, m != nullptr ? m->value : 0.0);
    }
  } else {
    for (const auto& s : kEndToEnd) {
      const Metric* m = find(r.e2e, s.name);
      emit(s.name, s.unit, m != nullptr ? m->value : 0.0);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
