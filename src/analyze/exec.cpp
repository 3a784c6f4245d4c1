#include "analyze/exec.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "analyze/witness.hpp"
#include "fm/compiled.hpp"
#include "fm/strategy/table_map.hpp"

namespace harmony::analyze {

namespace {

/// Bounded sink shared by both check() overloads: severity counting
/// plus the max_diagnostics cap, folded into an ExecReport.
class ReportSink {
 public:
  explicit ReportSink(ExecReport& rep, std::size_t capacity)
      : rep_(rep), capacity_(capacity) {}

  void add(const char* rule_id, Location loc, std::string message) {
    Diagnostic d = make_diagnostic(rule_id, std::move(loc), std::move(message));
    if (d.severity == Severity::kError) {
      ++rep_.errors;
    } else {
      ++rep_.warnings;
    }
    if (rep_.diagnostics.size() < capacity_) {
      rep_.diagnostics.push_back(std::move(d));
    } else {
      ++rep_.dropped;
    }
  }

 private:
  ExecReport& rep_;
  std::size_t capacity_;
};

// ---------------------------------------------------------------------
// Witness builders: the mapping's execution modelled with the oracle
// timing contract, via the same view trick compiled.cpp uses so one
// builder serves both map families.
// ---------------------------------------------------------------------

struct AffineWView {
  const fm::CompiledSpec& cs;
  const fm::AffineMap& map;
  [[nodiscard]] fm::Cycle time(std::size_t, const fm::Point& p) const {
    return map.time(p);
  }
  [[nodiscard]] std::int32_t pe(std::size_t, const fm::Point& p) const {
    return static_cast<std::int32_t>(cs.pe_index(map.place(p)));
  }
  [[nodiscard]] std::int32_t home(const fm::CompiledDep& d) const {
    return d.home_pe;
  }
};

struct TableWView {
  const fm::CompiledSpec& cs;
  const fm::TableMap& tm;
  [[nodiscard]] fm::Cycle time(std::size_t lin, const fm::Point&) const {
    return tm.cycle[lin];
  }
  [[nodiscard]] std::int32_t pe(std::size_t lin, const fm::Point&) const {
    return tm.pe[lin];
  }
  [[nodiscard]] std::int32_t home(const fm::CompiledDep& d) const {
    return tm.input_home[d.input_ord];
  }
};

template <typename View>
ExecWitness build_witness_impl(const fm::CompiledSpec& cs, const View& view,
                               const char* origin) {
  ExecWitness w;
  w.num_ops = cs.num_points;
  w.num_pes = static_cast<std::int32_t>(cs.num_pes);
  w.pe_capacity = cs.pe_capacity_values;
  w.origin = origin;

  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  w.op_pe.resize(n);
  w.op_cycle.resize(n);
  std::int64_t lin = 0;
  const fm::CompiledSegment& seg = cs.single("build_exec_witness");
  seg.domain.for_each([&](const fm::Point& p) {
    const auto v = static_cast<std::size_t>(lin++);
    w.op_pe[v] = view.pe(v, p);
    w.op_cycle[v] = view.time(v, p);
  });

  // Dependence order and deliveries, one per consumed operand, with
  // the machine timing contract the verifier enforces: computed dep →
  // producer cycle + max(1, transit); PE-homed input → transit from
  // home (0 when local); DRAM input → the consumer PE's DRAM latency.
  for (std::size_t v = 0; v < n; ++v) {
    const auto here = static_cast<std::size_t>(w.op_pe[v]);
    for (std::uint64_t e = cs.dep_offsets[v]; e < cs.dep_offsets[v + 1];
         ++e) {
      const fm::CompiledDep& d = cs.deps[e];
      ExecWitness::Delivery del;
      del.use_op = static_cast<std::int64_t>(v);
      if (d.kind == fm::CompiledDep::kComputed) {
        const auto src = static_cast<std::size_t>(d.dep_lin);
        w.deps.push_back({d.dep_lin, static_cast<std::int64_t>(v)});
        del.kind = ExecWitness::Delivery::kComputed;
        del.from_pe = w.op_pe[src];
        del.ready =
            w.op_cycle[src] +
            std::max<fm::Cycle>(
                1, cs.transit[static_cast<std::size_t>(del.from_pe) * P +
                              here]);
      } else if (d.kind == fm::CompiledDep::kInputDram) {
        del.kind = ExecWitness::Delivery::kInputDram;
        del.from_pe = -1;
        del.ready = cs.dram_cycles[here];
      } else {
        del.kind = ExecWitness::Delivery::kInputPe;
        del.from_pe = view.home(d);
        del.ready =
            cs.transit[static_cast<std::size_t>(del.from_pe) * P + here];
      }
      w.deliveries.push_back(del);
    }
  }

  // Residency intervals: the def/last-use sweep of the storage ledger.
  // A value lives on its producer PE from its def cycle until one past
  // its last consuming op; outputs stay live to the makespan.
  fm::Cycle makespan = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (w.op_cycle[v] >= 0) makespan = std::max(makespan, w.op_cycle[v] + 1);
  }
  std::vector<fm::Cycle> last_use(n, -1);
  for (std::size_t v = 0; v < n; ++v) {
    last_use[v] = std::max(last_use[v], w.op_cycle[v]);
    for (std::uint64_t e = cs.dep_offsets[v]; e < cs.dep_offsets[v + 1];
         ++e) {
      const fm::CompiledDep& d = cs.deps[e];
      if (d.kind != fm::CompiledDep::kComputed) continue;
      const auto src = static_cast<std::size_t>(d.dep_lin);
      last_use[src] = std::max(last_use[src], w.op_cycle[v]);
    }
  }
  w.residency.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (w.op_cycle[v] < 0) continue;  // flagged by EXEC002, off-ledger
    const fm::Cycle end =
        (seg.is_output ? makespan : last_use[v]) + 1;
    w.residency.push_back({w.op_pe[v], w.op_cycle[v], end});
  }

  // The mesh routes every (from, to) pair (dimension-ordered walks are
  // total), so the compiled machine's routability relation is full.
  w.routable.assign(P * P, 1);
  return w;
}

std::string op_name(const ExecWitness& w, std::int64_t op) {
  std::ostringstream os;
  os << (w.origin.empty() ? "op" : w.origin.c_str()) << "[" << op << "]";
  return os.str();
}

}  // namespace

ExecWitness build_exec_witness(const fm::CompiledSpec& cs,
                               const fm::AffineMap& map) {
  return build_witness_impl(cs, AffineWView{cs, map}, "affine");
}

ExecWitness build_exec_witness(const fm::CompiledSpec& cs,
                               const fm::TableMap& tm) {
  return build_witness_impl(cs, TableWView{cs, tm}, "table");
}

// ---------------------------------------------------------------------
// EXEC001–EXEC005: the mapping-execution axioms.
// ---------------------------------------------------------------------

ExecReport ExecChecker::check(const ExecWitness& w) const {
  ExecReport rep;
  ReportSink sink(rep, opts_.max_diagnostics);
  const auto n = static_cast<std::size_t>(std::max<std::int64_t>(w.num_ops, 0));
  const auto P = static_cast<std::size_t>(std::max(w.num_pes, 0));

  // ---- EXEC002: event domain & slot integrity ------------------------
  // Checked first: every later axiom skips events flagged here, so one
  // corruption fires exactly one rule.
  ++rep.axioms_checked;
  std::vector<std::uint8_t> op_ok(n, 0);
  if (w.op_pe.size() != n || w.op_cycle.size() != n) {
    std::ostringstream os;
    os << "witness declares " << w.num_ops << " ops but carries "
       << w.op_pe.size() << " PE and " << w.op_cycle.size()
       << " cycle assignments";
    sink.add("EXEC002", Location{}, os.str());
  }
  std::vector<std::uint64_t> slots;
  slots.reserve(n);
  for (std::size_t v = 0; v < n && v < w.op_pe.size() &&
                          v < w.op_cycle.size();
       ++v) {
    const std::int32_t pe = w.op_pe[v];
    const fm::Cycle c = w.op_cycle[v];
    if (pe < 0 || static_cast<std::size_t>(pe) >= P || c < 0 ||
        c >= ExecWitness::kMaxCycle) {
      std::ostringstream os;
      os << op_name(w, static_cast<std::int64_t>(v))
         << " executes at (PE " << pe << ", cycle " << c
         << ") outside the event domain [0, " << P << ") x [0, 2^40)";
      sink.add("EXEC002",
               Location{op_name(w, static_cast<std::int64_t>(v)), pe, c},
               os.str());
      continue;
    }
    op_ok[v] = 1;
    slots.push_back((static_cast<std::uint64_t>(pe) << 40) |
                    static_cast<std::uint64_t>(c));
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i] != slots[i - 1]) continue;
    const auto pe = static_cast<std::int32_t>(slots[i] >> 40);
    const auto c =
        static_cast<fm::Cycle>(slots[i] & ((std::uint64_t{1} << 40) - 1));
    std::ostringstream os;
    os << "two op events share slot (PE " << pe << ", cycle " << c
       << "); same-PE program order is not total";
    sink.add("EXEC002", Location{"", pe, c}, os.str());
  }

  // ---- EXEC001: acyclicity of dependence ∪ program order -------------
  // Kahn's algorithm over dependence edges plus the consecutive-ops
  // edges of each PE's cycle-sorted chain.  Any event left unordered
  // sits on (or behind) a cycle.
  ++rep.axioms_checked;
  {
    std::vector<std::vector<std::int64_t>> adj(n);
    std::vector<std::int64_t> indeg(n, 0);
    const auto add_edge = [&](std::int64_t a, std::int64_t b) {
      adj[static_cast<std::size_t>(a)].push_back(b);
      ++indeg[static_cast<std::size_t>(b)];
    };
    for (const ExecWitness::DepEdge& e : w.deps) {
      if (e.src < 0 || e.dst < 0 ||
          static_cast<std::size_t>(e.src) >= n ||
          static_cast<std::size_t>(e.dst) >= n) {
        std::ostringstream os;
        os << "dependence edge (" << e.src << " -> " << e.dst
           << ") names an unknown op";
        sink.add("EXEC002", Location{}, os.str());
        continue;
      }
      add_edge(e.src, e.dst);
    }
    // Program order: ops of one PE chained in (cycle, op) order.
    std::vector<std::int64_t> by_slot;
    by_slot.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
      if (op_ok[v] != 0) by_slot.push_back(static_cast<std::int64_t>(v));
    }
    std::sort(by_slot.begin(), by_slot.end(),
              [&](std::int64_t a, std::int64_t b) {
                const auto ia = static_cast<std::size_t>(a);
                const auto ib = static_cast<std::size_t>(b);
                if (w.op_pe[ia] != w.op_pe[ib]) return w.op_pe[ia] < w.op_pe[ib];
                if (w.op_cycle[ia] != w.op_cycle[ib]) {
                  return w.op_cycle[ia] < w.op_cycle[ib];
                }
                return a < b;
              });
    for (std::size_t i = 1; i < by_slot.size(); ++i) {
      const auto prev = static_cast<std::size_t>(by_slot[i - 1]);
      const auto cur = static_cast<std::size_t>(by_slot[i]);
      if (w.op_pe[prev] == w.op_pe[cur]) add_edge(by_slot[i - 1], by_slot[i]);
    }

    std::vector<std::int64_t> frontier;
    for (std::size_t v = 0; v < n; ++v) {
      if (indeg[v] == 0) frontier.push_back(static_cast<std::int64_t>(v));
    }
    std::size_t ordered = 0;
    while (!frontier.empty()) {
      const std::int64_t v = frontier.back();
      frontier.pop_back();
      ++ordered;
      for (const std::int64_t next : adj[static_cast<std::size_t>(v)]) {
        if (--indeg[static_cast<std::size_t>(next)] == 0) {
          frontier.push_back(next);
        }
      }
    }
    if (ordered < n) {
      // Name one op on a cycle for the diagnostic: any unordered op
      // with the smallest index keeps the message deterministic.
      std::int64_t witness_op = -1;
      for (std::size_t v = 0; v < n; ++v) {
        if (indeg[v] > 0) {
          witness_op = static_cast<std::int64_t>(v);
          break;
        }
      }
      std::ostringstream os;
      os << (n - ordered) << " op event(s) cannot be topologically "
         << "ordered under dependence + program order (e.g. "
         << op_name(w, witness_op) << ")";
      sink.add(
          "EXEC001",
          Location{op_name(w, witness_op),
                   witness_op >= 0 ? w.op_pe[static_cast<std::size_t>(
                                         witness_op)]
                                   : Location::kNoPe,
                   Location::kNoCycle},
          os.str());
    }
  }

  // ---- EXEC003 + EXEC005: deliveries ---------------------------------
  rep.axioms_checked += 2;
  for (const ExecWitness::Delivery& d : w.deliveries) {
    if (d.use_op < 0 || static_cast<std::size_t>(d.use_op) >= n) {
      std::ostringstream os;
      os << "delivery names unknown consumer op " << d.use_op;
      sink.add("EXEC005", Location{}, os.str());
      continue;
    }
    const auto use = static_cast<std::size_t>(d.use_op);
    if (op_ok[use] == 0) continue;  // consumer already flagged (EXEC002)
    // EXEC003: delivered no later than used.
    if (d.ready > w.op_cycle[use]) {
      std::ostringstream os;
      os << op_name(w, d.use_op) << " executes at cycle " << w.op_cycle[use]
         << " but its operand arrives at cycle " << d.ready;
      sink.add("EXEC003",
               Location{op_name(w, d.use_op), w.op_pe[use], w.op_cycle[use]},
               os.str());
    }
    // EXEC005: a usable route between the endpoints.  DRAM (-1) and
    // local deliveries need none.
    if (d.kind != ExecWitness::Delivery::kInputDram) {
      if (d.from_pe < 0 || static_cast<std::size_t>(d.from_pe) >= P) {
        std::ostringstream os;
        os << "delivery to " << op_name(w, d.use_op)
           << " originates at unknown PE " << d.from_pe;
        sink.add("EXEC005", Location{op_name(w, d.use_op), d.from_pe,
                                     Location::kNoCycle},
                 os.str());
      } else if (d.from_pe != w.op_pe[use]) {
        const std::size_t r =
            static_cast<std::size_t>(d.from_pe) * P +
            static_cast<std::size_t>(w.op_pe[use]);
        if (r >= w.routable.size() || w.routable[r] == 0) {
          std::ostringstream os;
          os << "delivery to " << op_name(w, d.use_op) << " needs PE "
             << d.from_pe << " -> PE " << w.op_pe[use]
             << " but the witness has no route for that pair";
          sink.add("EXEC005", Location{op_name(w, d.use_op), w.op_pe[use],
                                       Location::kNoCycle},
                   os.str());
        }
      }
    }
  }

  // ---- EXEC004: residency within capacity ----------------------------
  // Interval sweep per PE, frees before allocations at a tick — the
  // same tie-break the storage ledger uses.
  ++rep.axioms_checked;
  {
    struct Ev {
      std::int32_t pe;
      fm::Cycle cycle;
      std::int32_t delta;
    };
    std::vector<Ev> events;
    events.reserve(w.residency.size() * 2);
    for (const ExecWitness::Residency& r : w.residency) {
      if (r.pe < 0 || static_cast<std::size_t>(r.pe) >= P) {
        std::ostringstream os;
        os << "residency interval [" << r.begin << ", " << r.end
           << ") names unknown PE " << r.pe;
        sink.add("EXEC004", Location{"", r.pe, r.begin}, os.str());
        continue;
      }
      if (r.end <= r.begin) continue;  // empty interval occupies nothing
      events.push_back({r.pe, r.begin, +1});
      events.push_back({r.pe, r.end, -1});
    }
    std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
      if (a.pe != b.pe) return a.pe < b.pe;
      if (a.cycle != b.cycle) return a.cycle < b.cycle;
      return a.delta < b.delta;
    });
    std::int64_t live = 0;
    std::int32_t cur_pe = -1;
    bool flagged_this_pe = false;
    for (const Ev& e : events) {
      if (e.pe != cur_pe) {
        cur_pe = e.pe;
        live = 0;
        flagged_this_pe = false;
      }
      live += e.delta;
      if (live > w.pe_capacity && !flagged_this_pe) {
        flagged_this_pe = true;
        std::ostringstream os;
        os << "PE " << e.pe << " holds " << live
           << " resident values at cycle " << e.cycle << " (capacity "
           << w.pe_capacity << ")";
        sink.add("EXEC004", Location{"", e.pe, e.cycle}, os.str());
      }
    }
  }

  return rep;
}

// ---------------------------------------------------------------------
// EXEC006–EXEC009: the fork-join axioms.
// ---------------------------------------------------------------------

ExecReport ExecChecker::check(const ForkJoinWitness& w) const {
  ExecReport rep;
  ReportSink sink(rep, opts_.max_diagnostics);

  // ---- EXEC006: spans on one thread nest -----------------------------
  // Sort each thread's spans by (begin, -end) and walk a stack: a span
  // beginning inside the enclosing span must also end inside it.
  // Overlap is strict (shared endpoints are legal back-to-back spans).
  ++rep.axioms_checked;
  {
    struct Iv {
      std::uint64_t begin, end;
      const char* name;
    };
    std::vector<std::uint32_t> tids;
    for (const ForkJoinWitness::SpanEvent& s : w.spans) tids.push_back(s.tid);
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (const std::uint32_t tid : tids) {
      std::vector<Iv> ivs;
      for (const ForkJoinWitness::SpanEvent& s : w.spans) {
        if (s.tid == tid) ivs.push_back({s.begin_ns, s.end_ns, s.name});
      }
      std::sort(ivs.begin(), ivs.end(), [](const Iv& a, const Iv& b) {
        if (a.begin != b.begin) return a.begin < b.begin;
        return a.end > b.end;
      });
      std::vector<Iv> stack;
      for (const Iv& s : ivs) {
        while (!stack.empty() && stack.back().end <= s.begin) {
          stack.pop_back();
        }
        if (!stack.empty() && s.end > stack.back().end) {
          std::ostringstream os;
          os << "spans \"" << (stack.back().name ? stack.back().name : "?")
             << "\" and \"" << (s.name ? s.name : "?") << "\" on thread "
             << tid << " overlap without nesting ([" << stack.back().begin
             << ", " << stack.back().end << ") vs [" << s.begin << ", "
             << s.end << ") ns)";
          sink.add("EXEC006", Location{}, os.str());
          continue;  // don't push the misfit; keep checking the rest
        }
        stack.push_back(s);
      }
    }
  }

  // ---- EXEC007: lane / grain integrity -------------------------------
  ++rep.axioms_checked;
  {
    // (a) Per lane: grains are sequential on one thread.
    std::vector<const ForkJoinWitness::Grain*> by_lane;
    for (const ForkJoinWitness::Grain& g : w.grains) by_lane.push_back(&g);
    std::sort(by_lane.begin(), by_lane.end(),
              [](const ForkJoinWitness::Grain* a,
                 const ForkJoinWitness::Grain* b) {
                if (a->lane != b->lane) return a->lane < b->lane;
                if (a->begin_ns != b->begin_ns) {
                  return a->begin_ns < b->begin_ns;
                }
                return a->lo < b->lo;
              });
    for (std::size_t i = 1; i < by_lane.size(); ++i) {
      const ForkJoinWitness::Grain& prev = *by_lane[i - 1];
      const ForkJoinWitness::Grain& cur = *by_lane[i];
      if (prev.lane != cur.lane) continue;
      if (prev.tid != cur.tid) {
        std::ostringstream os;
        os << "lane " << cur.lane << " ran grains on threads " << prev.tid
           << " and " << cur.tid << "; a lane is one fork-join strand and "
           << "cannot migrate mid-run";
        sink.add("EXEC007", Location{}, os.str());
      }
      if (cur.begin_ns < prev.end_ns) {
        std::ostringstream os;
        os << "lane " << cur.lane << " grains [" << prev.lo << ", "
           << prev.hi << ") and [" << cur.lo << ", " << cur.hi
           << ") overlap in time";
        sink.add("EXEC007", Location{}, os.str());
      }
    }
    // (b) Across all lanes: slot ranges are pairwise disjoint (each
    // grain claimed by exactly one lane, evaluated exactly once).
    std::vector<const ForkJoinWitness::Grain*> by_slot(w.grains.size());
    for (std::size_t i = 0; i < w.grains.size(); ++i) {
      by_slot[i] = &w.grains[i];
    }
    std::sort(by_slot.begin(), by_slot.end(),
              [](const ForkJoinWitness::Grain* a,
                 const ForkJoinWitness::Grain* b) {
                if (a->lo != b->lo) return a->lo < b->lo;
                return a->hi < b->hi;
              });
    for (std::size_t i = 1; i < by_slot.size(); ++i) {
      const ForkJoinWitness::Grain& prev = *by_slot[i - 1];
      const ForkJoinWitness::Grain& cur = *by_slot[i];
      if (cur.lo < prev.hi) {
        std::ostringstream os;
        os << "grain slot ranges [" << prev.lo << ", " << prev.hi
           << ") (lane " << prev.lane << ") and [" << cur.lo << ", "
           << cur.hi << ") (lane " << cur.lane
           << ") overlap; a slot was evaluated twice";
        sink.add("EXEC007", Location{}, os.str());
      }
    }
  }

  // ---- EXEC008: steal sanity -----------------------------------------
  ++rep.axioms_checked;
  {
    std::vector<std::uint64_t> workers;
    std::uint64_t run_begin = ~std::uint64_t{0};
    std::uint64_t run_end = 0;
    for (const ForkJoinWitness::Run& r : w.runs) {
      workers.push_back(r.worker);
      run_begin = std::min(run_begin, r.begin_ns);
      run_end = std::max(run_end, r.end_ns);
    }
    std::sort(workers.begin(), workers.end());
    const auto known = [&](std::uint64_t id) {
      return std::binary_search(workers.begin(), workers.end(), id);
    };
    for (const ForkJoinWitness::Steal& s : w.steals) {
      if (s.thief == s.victim) {
        std::ostringstream os;
        os << "worker " << s.thief << " stole from itself";
        sink.add("EXEC008", Location{}, os.str());
        continue;
      }
      if (workers.empty()) continue;  // no run evidence to validate against
      if (!known(s.thief) || !known(s.victim)) {
        std::ostringstream os;
        os << "steal (" << s.thief << " <- " << s.victim
           << ") names a worker with no run session";
        sink.add("EXEC008", Location{}, os.str());
      } else if (s.at_ns < run_begin || s.at_ns > run_end) {
        std::ostringstream os;
        os << "steal (" << s.thief << " <- " << s.victim << ") at "
           << s.at_ns << " ns falls outside every run session ["
           << run_begin << ", " << run_end << ")";
        sink.add("EXEC008", Location{}, os.str());
      }
    }
  }

  // ---- EXEC009: truncated evidence -----------------------------------
  ++rep.axioms_checked;
  if (w.dropped > 0) {
    rep.complete = false;
    std::ostringstream os;
    os << w.dropped << " trace event(s) lost to ring wrap; the witness "
       << "is incomplete and a clean verdict is advisory";
    sink.add("EXEC009", Location{}, os.str());
  }

  return rep;
}

}  // namespace harmony::analyze
