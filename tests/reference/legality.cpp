#include "reference/reference.hpp"

#include <algorithm>
#include <sstream>
#include <string>

#include "fm/delivered.hpp"

namespace harmony::fm::reference {

namespace {

using analyze::Diagnostic;
using analyze::Location;

void add_diag(LegalityReport& rep, const VerifyOptions& opts,
              const char* rule_id, Location loc, const std::string& msg) {
  if (rep.diagnostics.size() < opts.max_messages) {
    rep.diagnostics.push_back(
        analyze::make_diagnostic(rule_id, std::move(loc), msg));
  }
}

std::string element_name(const FunctionSpec& spec, TensorId t,
                         const Point& p) {
  std::ostringstream os;
  os << spec.name(t) << p;
  return os.str();
}

}  // namespace

LegalityReport verify(const FunctionSpec& spec, const Mapping& mapping,
                      const MachineConfig& machine,
                      const VerifyOptions& opts) {
  mapping.require_complete(spec);
  LegalityReport rep;

  // ---- 1. causality & transit, plus per-edge link traffic ------------
  // ---- 2. exclusivity: collect (pe, cycle) of every element ----------
  std::vector<std::uint64_t> slots;  // (pe << 40) | cycle  (cycle < 2^40)
  Cycle makespan = 0;

  // Per-directed-link aggregate bits for the average-rate bandwidth check.
  const auto num_links =
      static_cast<std::size_t>(machine.geom.num_nodes()) * 4;
  std::vector<std::uint64_t> link_bits(opts.check_bandwidth ? num_links : 0,
                                       0);
  // Mirror of the cost model's input-residency rule: an input value is
  // routed to a consumer PE once, then read locally.  Pair-exact
  // tracking (fm/delivered.hpp) — the old packed key overflowed.
  DeliveredSet delivered;
  auto first_delivery = [&](const ValueRef& d, std::size_t pe) {
    return delivered.first_delivery(spec.value_index(d), pe);
  };
  auto record_route = [&](noc::Coord src, noc::Coord dst,
                          std::uint64_t bits) {
    if (!opts.check_bandwidth || src == dst) return;
    machine.geom.for_each_route_link(
        src, dst, [&](std::size_t link) { link_bits[link] += bits; });
  };

  for (TensorId t : spec.computed_tensors()) {
    const IndexDomain& dom = spec.domain(t);
    const std::size_t bits = spec.bits(t);
    dom.for_each([&](const Point& p) {
      const Cycle when = mapping.time(t, p);
      const noc::Coord here = mapping.place(t, p);
      const auto here_pe = static_cast<std::int32_t>(machine.geom.index(here));
      if (when < 0) {
        ++rep.causality_violations;
        std::ostringstream os;
        os << element_name(spec, t, p) << " scheduled at negative cycle "
           << when;
        add_diag(rep, opts, "FM001",
                 Location{element_name(spec, t, p), here_pe, when}, os.str());
        return;
      }
      makespan = std::max(makespan, when + 1);
      HARMONY_REQUIRE(when < (Cycle{1} << 40),
                      "verify: schedule exceeds 2^40 cycles");
      slots.push_back(
          (static_cast<std::uint64_t>(machine.geom.index(here)) << 40) |
          static_cast<std::uint64_t>(when));

      for (const ValueRef& d : spec.deps(t, p)) {
        const Cycle need = machine.earliest_start(spec, mapping, t, p, d);
        if (when < need) {
          ++rep.causality_violations;
          std::ostringstream os;
          os << element_name(spec, t, p) << " at cycle " << when
             << " consumes " << element_name(spec, d.tensor, d.point)
             << " which arrives at cycle " << need;
          add_diag(rep, opts, "FM001",
                   Location{element_name(spec, t, p), here_pe, when},
                   os.str());
        }
        if (spec.is_input(d.tensor)) {
          const InputHome& home = mapping.input_home(d.tensor);
          if (home.kind != InputHome::Kind::kDram &&
              first_delivery(d, machine.geom.index(here))) {
            record_route(home.home_of(d.point), here, bits);
          }
        } else {
          record_route(mapping.place(d.tensor, d.point), here, bits);
        }
      }
    });
  }

  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i] == slots[i - 1]) {
      ++rep.exclusivity_violations;
      const auto pe = static_cast<std::int32_t>(slots[i] >> 40);
      const auto cycle = static_cast<Cycle>(
          slots[i] & ((std::uint64_t{1} << 40) - 1));
      std::ostringstream os;
      os << "two elements share PE " << pe << " at cycle " << cycle;
      add_diag(rep, opts, "FM002", Location{"", pe, cycle}, os.str());
    }
  }

  // ---- 3. storage: peak live values per PE ---------------------------
  if (opts.check_storage) {
    // def/last-use sweep.  A value occupies its producer's PE from its
    // definition cycle until its last consumption cycle (transit buffering
    // is charged to the producer — a simple, conservative rule).
    const auto total = static_cast<std::size_t>(spec.total_values());
    std::vector<Cycle> def_time(total, -1);
    std::vector<Cycle> last_use(total, -1);
    std::vector<std::int32_t> owner_pe(total, -1);

    for (TensorId t : spec.computed_tensors()) {
      const IndexDomain& dom = spec.domain(t);
      dom.for_each([&](const Point& p) {
        const auto vi = static_cast<std::size_t>(
            spec.value_index(ValueRef{t, p}));
        def_time[vi] = mapping.time(t, p);
        last_use[vi] = std::max(last_use[vi], def_time[vi]);
        owner_pe[vi] = static_cast<std::int32_t>(
            machine.geom.index(mapping.place(t, p)));
        for (const ValueRef& d : spec.deps(t, p)) {
          if (spec.is_input(d.tensor)) continue;  // inputs live off-ledger
          const auto di = static_cast<std::size_t>(spec.value_index(d));
          last_use[di] = std::max(last_use[di], mapping.time(t, p));
        }
      });
    }
    // Outputs stay live until the end of the computation.
    for (TensorId t : spec.output_tensors()) {
      const IndexDomain& dom = spec.domain(t);
      dom.for_each([&](const Point& p) {
        const auto vi = static_cast<std::size_t>(
            spec.value_index(ValueRef{t, p}));
        last_use[vi] = makespan;
      });
    }

    struct Event {
      std::int32_t pe;
      Cycle cycle;
      std::int32_t delta;
    };
    std::vector<Event> events;
    events.reserve(total * 2);
    for (std::size_t v = 0; v < total; ++v) {
      if (def_time[v] < 0) continue;  // input value
      events.push_back({owner_pe[v], def_time[v], +1});
      events.push_back({owner_pe[v], last_use[v] + 1, -1});
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                if (a.pe != b.pe) return a.pe < b.pe;
                if (a.cycle != b.cycle) return a.cycle < b.cycle;
                return a.delta < b.delta;  // frees before allocs at a tick
              });
    std::int64_t live = 0;
    std::int32_t cur_pe = -1;
    bool flagged_this_pe = false;
    for (const Event& e : events) {
      if (e.pe != cur_pe) {
        cur_pe = e.pe;
        live = 0;
        flagged_this_pe = false;
      }
      live += e.delta;
      if (live > rep.peak_live_values) {
        rep.peak_live_values = live;
        rep.peak_live_pe = e.pe;
      }
      if (live > machine.pe_capacity_values && !flagged_this_pe) {
        ++rep.storage_violations;
        flagged_this_pe = true;
        std::ostringstream os;
        os << "PE " << e.pe << " holds " << live << " live values at cycle "
           << e.cycle << " (capacity " << machine.pe_capacity_values << ")";
        add_diag(rep, opts, "FM003", Location{"", e.pe, e.cycle}, os.str());
      }
    }
  }

  // ---- 4. bandwidth: average bits/cycle per directed link ------------
  if (opts.check_bandwidth && makespan > 0) {
    for (std::size_t l = 0; l < link_bits.size(); ++l) {
      const double rate = static_cast<double>(link_bits[l]) /
                          static_cast<double>(makespan);
      if (rate > rep.peak_link_bits_per_cycle) {
        rep.peak_link_bits_per_cycle = rate;
        rep.peak_link = static_cast<std::int64_t>(l);
      }
      if (rate > machine.link_bits_per_cycle) {
        ++rep.bandwidth_violations;
        std::ostringstream os;
        os << "directed link " << l << " carries " << rate
           << " bits/cycle on average (capacity "
           << machine.link_bits_per_cycle << ")";
        add_diag(rep, opts, "FM004",
                 Location{"link " + std::to_string(l),
                          static_cast<std::int32_t>(l / 4),
                          analyze::Location::kNoCycle},
                 os.str());
      }
    }
  }

  rep.ok = rep.total_violations() == 0;
  return rep;
}

}  // namespace harmony::fm::reference
