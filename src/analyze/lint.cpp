#include "analyze/lint.hpp"

#include <sstream>
#include <string>

#include "fm/compiled.hpp"

namespace harmony::analyze {

LintReport lint_mapping(const fm::CompiledSpec& cs, const fm::TableMap& tm,
                        const LintOptions& opts) {
  LintReport rep;
  DiagnosticSink sink(opts.max_diagnostics);

  // ---- errors: the compiled legality report, forwarded verbatim ------
  {
    fm::EvalContext ctx(cs);
    rep.legality = fm::verify(cs, tm, ctx, opts.verify);
  }
  for (const Diagnostic& d : rep.legality.diagnostics) sink.add(d);

  // ---- FM101: idle-PE imbalance --------------------------------------
  rep.total_pes = static_cast<std::int64_t>(cs.num_pes);
  {
    std::vector<char> busy(cs.num_pes, 0);
    for (const std::int32_t q : tm.pe) busy[static_cast<std::size_t>(q)] = 1;
    for (char b : busy) rep.busy_pes += b;
    const std::int64_t idle = rep.total_pes - rep.busy_pes;
    const double idle_frac =
        static_cast<double>(idle) / static_cast<double>(rep.total_pes);
    if (rep.total_pes > 1 && idle_frac >= opts.idle_pe_warn_fraction) {
      std::ostringstream os;
      os << idle << " of " << rep.total_pes
         << " PEs never compute an element (" << rep.busy_pes << " busy)";
      sink.add("FM101", Location{}, os.str());
    }
  }

  // ---- FM102: storage high-water (legal, but close to the cap) -------
  if (opts.verify.check_storage && rep.legality.storage_violations == 0 &&
      rep.legality.peak_live_values >=
          static_cast<std::int64_t>(opts.storage_highwater_fraction *
                                    static_cast<double>(
                                        cs.pe_capacity_values))) {
    std::ostringstream os;
    os << "peak live values " << rep.legality.peak_live_values << " on PE "
       << rep.legality.peak_live_pe << " is at "
       << static_cast<int>(100.0 *
                           static_cast<double>(rep.legality.peak_live_values) /
                           static_cast<double>(cs.pe_capacity_values))
       << "% of capacity " << cs.pe_capacity_values;
    sink.add("FM102",
             Location{"", rep.legality.peak_live_pe, Location::kNoCycle},
             os.str());
  }

  // ---- FM103: bandwidth hotspot (legal, but close to the cap) --------
  if (opts.verify.check_bandwidth && rep.legality.bandwidth_violations == 0 &&
      rep.legality.peak_link >= 0 &&
      rep.legality.peak_link_bits_per_cycle >=
          opts.bandwidth_hotspot_fraction * cs.link_bits_per_cycle) {
    std::ostringstream os;
    os << "directed link " << rep.legality.peak_link << " averages "
       << rep.legality.peak_link_bits_per_cycle << " bits/cycle, "
       << static_cast<int>(100.0 * rep.legality.peak_link_bits_per_cycle /
                           cs.link_bits_per_cycle)
       << "% of capacity " << cs.link_bits_per_cycle;
    sink.add("FM103",
             Location{"link " + std::to_string(rep.legality.peak_link),
                      static_cast<std::int32_t>(rep.legality.peak_link / 4),
                      Location::kNoCycle},
             os.str());
  }

  // ---- FM104: values shipped when recompute is cheaper ---------------
  {
    const fm::RecomputeReport rc = fm::recompute_report(cs, tm);
    if (rc.profitable_edges > 0 &&
        rc.savings_fraction() >= opts.recompute_savings_fraction) {
      std::ostringstream os;
      os << rc.profitable_edges << " of " << rc.remote_edges
         << " remote operand edges are cheaper to recompute than to ship ("
         << static_cast<int>(100.0 * rc.savings_fraction())
         << "% of movement energy recoverable)";
      sink.add("FM104", Location{}, os.str());
    }
  }

  rep.diagnostics = sink.diagnostics();
  rep.errors = sink.errors();
  rep.warnings = sink.warnings();
  rep.dropped = sink.dropped();
  return rep;
}

LintReport lint_mapping(const fm::FunctionSpec& spec,
                        const fm::Mapping& mapping,
                        const fm::MachineConfig& machine,
                        const LintOptions& opts) {
  mapping.require_complete(spec);
  const auto cs = fm::compile_spec(spec, machine, mapping);
  return lint_mapping(*cs, fm::table_from_mapping(*cs, mapping), opts);
}

LintReport lint_mapping(const fm::FunctionSpec& spec,
                        const fm::TableMap& table,
                        const fm::MachineConfig& machine,
                        const LintOptions& opts) {
  // The lowered Mapping only supplies the compile's input-home kinds;
  // the rules read the table itself.
  const auto cs = fm::compile_spec(spec, machine, fm::to_mapping(spec, table));
  return lint_mapping(*cs, table, opts);
}

}  // namespace harmony::analyze
