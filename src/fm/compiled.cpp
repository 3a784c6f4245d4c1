#include "fm/compiled.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "fm/strategy/table_map.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace harmony::fm {

const CompiledSegment& CompiledSpec::single(const char* who) const {
  HARMONY_REQUIRE(segments.size() == 1,
                  std::string(who) +
                      ": spec must have exactly one computed tensor");
  return segments.front();
}

Cycle CompiledSpec::makespan_cycles_of(const AffineMap& map) const {
  // The schedule is affine over a dense box, so its maximum sits at a
  // corner; a per-point running max (seeded at 0) computes the same
  // integers, just num_points times slower.
  const IndexDomain& domain = single("makespan_cycles_of").domain;
  const std::int64_t is[2] = {0, domain.extent(0) - 1};
  const std::int64_t js[2] = {0, domain.extent(1) - 1};
  const std::int64_t ks[2] = {0, domain.extent(2) - 1};
  Cycle m = 0;
  for (std::int64_t i : is) {
    for (std::int64_t j : js) {
      for (std::int64_t k : ks) {
        m = std::max(m, map.time(Point{i, j, k}) + 1);
      }
    }
  }
  return m;
}

std::shared_ptr<const CompiledSpec> compile_spec(const FunctionSpec& spec,
                                                 const MachineConfig& machine,
                                                 const Mapping& input_proto) {
  auto cs = std::make_shared<CompiledSpec>();
  const noc::GridGeometry& geom = machine.geom;
  const noc::TechnologyModel& tech = geom.tech();
  cs->geom = geom;
  cs->local_reach = geom.pitch() * machine.local_access_pitch_fraction;

  // Segments in computed_tensors() order, one linearization across all
  // of them; one energy table per distinct bit width.
  std::vector<std::size_t> table_bits;
  std::vector<std::int32_t> segment_of(
      static_cast<std::size_t>(spec.num_tensors()), -1);
  for (const TensorId t : spec.computed_tensors()) {
    CompiledSegment seg;
    seg.tensor = t;
    seg.domain = spec.domain(t);
    seg.first = cs->num_points;
    seg.is_output = spec.is_output(t);
    seg.bits = spec.bits(t);
    seg.ops = spec.cost(t).ops;
    seg.sram_access = tech.sram_access_energy(seg.bits, cs->local_reach);
    seg.energy_table = static_cast<std::size_t>(
        std::find(table_bits.begin(), table_bits.end(), seg.bits) -
        table_bits.begin());
    if (seg.energy_table == table_bits.size()) table_bits.push_back(seg.bits);
    segment_of[static_cast<std::size_t>(t)] =
        static_cast<std::int32_t>(cs->segments.size());
    cs->num_points += seg.domain.size();
    cs->segments.push_back(seg);
  }
  if (!cs->segments.empty()) cs->target = cs->segments.front().tensor;
  trace::Span span("fm", "compile", 0,
                   static_cast<std::uint64_t>(cs->num_points),
                   static_cast<std::uint64_t>(geom.num_nodes()));

  cs->tensor_names.reserve(static_cast<std::size_t>(spec.num_tensors()));
  cs->tensor_bits.reserve(static_cast<std::size_t>(spec.num_tensors()));
  for (TensorId t = 0; t < spec.num_tensors(); ++t) {
    cs->tensor_names.push_back(spec.name(t));
    cs->tensor_bits.push_back(spec.bits(t));
  }

  cs->cols = geom.cols();
  cs->rows = geom.rows();
  cs->num_pes = static_cast<std::size_t>(geom.num_nodes());
  cs->cycle = machine.cycle;
  cs->pe_capacity_values = machine.pe_capacity_values;
  cs->link_bits_per_cycle = machine.link_bits_per_cycle;

  // Candidate-invariant sums: one += per point, segment after segment.
  for (const CompiledSegment& seg : cs->segments) {
    const Energy op_e = tech.op_energy(seg.bits) * seg.ops;
    for (std::int64_t n = 0; n < seg.domain.size(); ++n) {
      cs->compute_energy_total += op_e;
      cs->total_ops_total += seg.ops;
    }
  }

  // Geometry tables: every pure query the per-candidate loops make,
  // asked once.  Table lookups return the identical doubles a direct
  // call would.
  const std::size_t P = cs->num_pes;
  const std::size_t K = table_bits.size();
  cs->transfer_energy.resize(K * P * P, Energy::zero());
  cs->hop_count.resize(P * P, 0);
  cs->transit.resize(P * P, 0);
  cs->dram_energy.resize(K * P, Energy::zero());
  cs->dram_cycles.resize(P, 0);
  cs->pe_coords.resize(P);
  for (std::size_t from = 0; from < P; ++from) {
    const noc::Coord a = geom.coord(from);
    cs->pe_coords[from] = a;
    cs->dram_cycles[from] = machine.dram_cycles(a);
    for (std::size_t k = 0; k < K; ++k) {
      cs->dram_energy[k * P + from] = geom.dram_access_energy(table_bits[k], a);
    }
    for (std::size_t to = 0; to < P; ++to) {
      const noc::Coord b = geom.coord(to);
      const std::size_t e = from * P + to;
      cs->hop_count[e] = geom.hops(a, b);
      cs->transit[e] = machine.transit_cycles(a, b);
      for (std::size_t k = 0; k < K; ++k) {
        cs->transfer_energy[k * P * P + e] =
            geom.transfer_energy(table_bits[k], a, b);
      }
    }
  }

  // Route legs, recorded from the geometry's one route walk along row 0
  // (X legs) and column 0 (Y legs).
  const auto record_legs = [&](int extent, bool x_axis,
                               std::vector<std::uint32_t>& offsets,
                               std::vector<std::uint32_t>& links) {
    offsets.assign(static_cast<std::size_t>(extent) * extent + 1, 0);
    for (int from = 0; from < extent; ++from) {
      for (int to = 0; to < extent; ++to) {
        geom.for_each_route_link(
            x_axis ? noc::Coord{from, 0} : noc::Coord{0, from},
            x_axis ? noc::Coord{to, 0} : noc::Coord{0, to},
            [&](std::size_t link) {
              links.push_back(static_cast<std::uint32_t>(link));
            });
        offsets[static_cast<std::size_t>(from) * extent + to + 1] =
            static_cast<std::uint32_t>(links.size());
      }
    }
  };
  record_legs(cs->cols, true, cs->x_leg_offsets, cs->x_leg_links);
  record_legs(cs->rows, false, cs->y_leg_offsets, cs->y_leg_links);

  // Flatten the dependence relation: one spec.deps() call per point, for
  // good.  Input values get dense ordinals so the per-candidate delivered
  // table is an array, immune to the packed-key overflow a hashed
  // (value * P + pe) key has.
  std::unordered_map<std::int64_t, std::uint32_t> input_ords;
  cs->dep_offsets.reserve(static_cast<std::size_t>(cs->num_points) + 1);
  cs->dep_offsets.push_back(0);
  for (const CompiledSegment& seg : cs->segments) {
    seg.domain.for_each([&](const Point& p) {
      for (const ValueRef& d : spec.deps(seg.tensor, p)) {
        CompiledDep cd;
        cd.tensor = d.tensor;
        cd.i = d.point.i;
        cd.j = d.point.j;
        cd.k = d.point.k;
        if (spec.is_input(d.tensor)) {
          cs->has_input_deps = true;
          cd.input_ord =
              input_ords
                  .try_emplace(spec.value_index(d),
                               static_cast<std::uint32_t>(input_ords.size()))
                  .first->second;
          const InputHome& home = input_proto.input_home(d.tensor);
          if (home.kind == InputHome::Kind::kDram) {
            cd.kind = CompiledDep::kInputDram;
          } else {
            cd.kind = CompiledDep::kInputPe;
            cd.home_pe =
                static_cast<std::int32_t>(geom.index(home.home_of(d.point)));
          }
        } else {
          const CompiledSegment& producer = cs->segments[static_cast<
              std::size_t>(segment_of[static_cast<std::size_t>(d.tensor)])];
          cd.kind = CompiledDep::kComputed;
          cd.dep_lin = producer.first + producer.domain.linearize(d.point);
        }
        cs->deps.push_back(cd);
      }
      cs->dep_offsets.push_back(static_cast<std::uint64_t>(cs->deps.size()));
    });
  }
  cs->num_input_values = static_cast<std::uint32_t>(input_ords.size());

  // One lane's EvalContext: the delivered table plus the verifier's
  // per-point buffers (slots, def/last-use, owner, two storage events)
  // and per-link counters.
  const auto n = static_cast<double>(cs->num_points);
  const double context_bytes =
      static_cast<double>(cs->num_input_values) * static_cast<double>(P) *
          sizeof(std::uint32_t) +
      n * (sizeof(std::uint64_t) + 2 * sizeof(Cycle) + sizeof(std::int32_t) +
           2 * sizeof(EvalContext::StorageEvent)) +
      static_cast<double>(P * noc::GridGeometry::kLinksPerNode) *
          sizeof(std::uint64_t);
  HARMONY_REQUIRE(context_bytes <= static_cast<double>(kMaxEvalContextBytes),
                  "compile_spec: evaluation scratch would exceed " +
                      std::to_string(kMaxEvalContextBytes >> 20) +
                      " MiB per lane (input values x PEs too large)");
  return cs;
}

namespace {

// The per-candidate oracles are written once against a *map view* —
// time/place per global linear index plus the input-value home — and
// instantiated for the AffineMap (closed-form, ignores lin) and the
// TableMap (array lookup, ignores the point).  The bodies walk segments
// in order, points row-major within a segment and dependences in spec
// order, which is the visit, branch and floating-point addition order
// the reference oracles (tests/reference) pin.
//
// The per-element accessors are always_inline: they run per element and
// per dependence edge, and once this unit's inlining budget runs out GCC
// would leave them as out-of-line calls in the legality gate's loop.
struct AffineView {
  const CompiledSpec& cs;
  const AffineMap& map;
  [[nodiscard, gnu::always_inline]] Cycle time(std::size_t,
                                               const Point& p) const {
    return map.time(p);
  }
  [[nodiscard, gnu::always_inline]] std::size_t pe(std::size_t,
                                                   const Point& p) const {
    return cs.pe_index(map.place(p));
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return d.home_pe;
  }
  [[nodiscard]] Cycle makespan_cycles() const {
    return cs.makespan_cycles_of(map);
  }
};

AffineView affine_view(const CompiledSpec& cs, const AffineMap& map) {
  (void)cs.single("compiled AffineMap oracle");
  // AffineMap::place wraps modulo the map's grid, and AffineView indexes
  // the P x P tables with the result unchecked: a larger grid than the
  // machine's would alias rows or read past the tables.
  HARMONY_REQUIRE(map.cols > 0 && map.rows > 0 && map.cols <= cs.cols &&
                      map.rows <= cs.rows,
                  "compiled: map.cols x map.rows (" +
                      std::to_string(map.cols) + "x" +
                      std::to_string(map.rows) +
                      ") must be positive and fit the machine's " +
                      std::to_string(cs.cols) + "x" + std::to_string(cs.rows));
  return AffineView{cs, map};
}

struct TableView {
  const CompiledSpec& cs;
  const TableMap& tm;
  [[nodiscard, gnu::always_inline]] Cycle time(std::size_t lin,
                                               const Point&) const {
    return tm.cycle[lin];
  }
  [[nodiscard, gnu::always_inline]] std::size_t pe(std::size_t lin,
                                                   const Point&) const {
    return static_cast<std::size_t>(tm.pe[lin]);
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return tm.input_home[d.input_ord];
  }
  [[nodiscard]] Cycle makespan_cycles() const { return tm.makespan_cycles(); }
};

TableView table_view(const CompiledSpec& cs, const TableMap& tm) {
  HARMONY_REQUIRE(
      static_cast<std::int64_t>(tm.pe.size()) == cs.num_points &&
          static_cast<std::int64_t>(tm.cycle.size()) == cs.num_points &&
          tm.input_home.size() == cs.num_input_values,
      "compiled: TableMap does not match the compiled spec's shape");
  return TableView{cs, tm};
}

template <typename View>
CostReport evaluate_cost_impl(const CompiledSpec& cs, const View& view,
                              EvalContext& ctx) {
  ctx.begin_candidate();
  CostReport rep;
  rep.makespan_cycles = view.makespan_cycles();
  rep.compute_energy = cs.compute_energy_total;
  rep.total_ops = cs.total_ops_total;

  const std::size_t P = cs.num_pes;
  for (const CompiledSegment& seg : cs.segments) {
    const Energy* const transfer =
        cs.transfer_energy.data() + seg.energy_table * P * P;
    const Energy* const dram = cs.dram_energy.data() + seg.energy_table * P;
    const Energy sram = seg.sram_access;
    const auto bits = static_cast<std::uint64_t>(seg.bits);
    std::int64_t lin = seg.first;
    seg.domain.for_each([&](const Point& p) {
      const auto v = static_cast<std::size_t>(lin);
      const std::uint64_t lo = cs.dep_offsets[v];
      const std::uint64_t hi = cs.dep_offsets[v + 1];
      ++lin;
      if (lo == hi) return;
      const std::size_t here = view.pe(v, p);
      for (std::uint64_t o = lo; o < hi; ++o) {
        const CompiledDep& d = cs.deps[o];
        // Branch order: repeat-use short-circuit first for inputs (which
        // also stamps the delivery), then DRAM / local-home / remote-home.
        if (d.kind == CompiledDep::kComputed) {
          const std::size_t there =
              view.pe(static_cast<std::size_t>(d.dep_lin), d.point());
          if (there == here) {
            rep.local_access_energy += sram;
          } else {
            rep.onchip_movement_energy += transfer[there * P + here];
            ++rep.messages;
            rep.bit_hops += bits * static_cast<std::uint64_t>(
                                       cs.hop_count[there * P + here]);
          }
        } else if (!ctx.first_delivery(d.input_ord, here)) {
          rep.local_access_energy += sram;
        } else if (d.kind == CompiledDep::kInputDram) {
          rep.dram_energy += dram[here];
        } else if (static_cast<std::size_t>(view.home(d)) == here) {
          rep.local_access_energy += sram;
        } else {
          const auto from = static_cast<std::size_t>(view.home(d));
          rep.onchip_movement_energy += transfer[from * P + here];
          ++rep.messages;
          rep.bit_hops += bits * static_cast<std::uint64_t>(
                                     cs.hop_count[from * P + here]);
        }
      }
    });
  }
  rep.makespan = cs.cycle * static_cast<double>(rep.makespan_cycles);
  return rep;
}

// Legality is written once, as verify_body, and instantiated twice.
// With kReport it counts every violation into *rep, records its
// diagnostic (capped at opts.max_messages) and tracks the storage and
// link peaks: fm::verify's report.  Without it, it returns false at the
// first violation and builds nothing, which is what the search inner
// loop wants: rejected candidates are the common case there and their
// reports would be discarded unread.  kReport is a compile-time
// constant and every report-only statement sits in an `if constexpr`
// branch, so the first-violation instantiation never contains report
// code, not even dead code the optimizer would have to see past.
template <bool kReport, typename View>
bool verify_body(const CompiledSpec& cs, const View& view, EvalContext& ctx,
                 const VerifyOptions& opts, LegalityReport* rep) {
  ctx.begin_candidate();
  const std::size_t P = cs.num_pes;

  const auto element = [&](TensorId t, const Point& p) {
    std::ostringstream os;
    os << cs.tensor_names[static_cast<std::size_t>(t)] << p;
    return os.str();
  };
  const auto add_diag = [&](const char* rule_id, analyze::Location loc,
                            const std::string& msg) {
    if (rep->diagnostics.size() < opts.max_messages) {
      rep->diagnostics.push_back(
          analyze::make_diagnostic(rule_id, std::move(loc), msg));
    }
  };
  const auto late_operand = [&](TensorId t, const Point& p, std::size_t here,
                                Cycle when, TensorId dep_tensor,
                                const Point& dp, Cycle need) {
    ++rep->causality_violations;
    std::ostringstream os;
    os << element(t, p) << " at cycle " << when << " consumes "
       << element(dep_tensor, dp) << " which arrives at cycle " << need;
    add_diag("FM001",
             analyze::Location{element(t, p),
                               static_cast<std::int32_t>(here), when},
             os.str());
  };
  // Per-edge link traffic along the geometry's one route walk.
  const auto record_route = [&](std::size_t src, std::size_t dst,
                                std::uint64_t bits) {
    if (!opts.check_bandwidth || src == dst) return;
    cs.for_each_route_link(
        src, dst, [&](std::size_t link) { ctx.link_bits[link] += bits; });
  };

  // ---- 1. causality & transit, plus per-edge link traffic ------------
  // ---- 2. exclusivity: collect (pe, cycle) of every element ----------
  // slots and link_bits come sized from the EvalContext constructor.
  std::size_t num_slots = 0;
  if (opts.check_bandwidth) {
    std::fill(ctx.link_bits.begin(), ctx.link_bits.end(), 0);
  }
  Cycle makespan = 0;

  for (const CompiledSegment& seg : cs.segments) {
    const auto bits = static_cast<std::uint64_t>(seg.bits);
    // Row-major, as IndexDomain::for_each walks it, so diagnostics come
    // out in visit order.
    const std::int64_t ni = seg.domain.extent(0);
    const std::int64_t nj = seg.domain.extent(1);
    const std::int64_t nk = seg.domain.extent(2);
    auto lin = static_cast<std::size_t>(seg.first);
    for (std::int64_t i = 0; i < ni; ++i) {
      for (std::int64_t j = 0; j < nj; ++j) {
        for (std::int64_t k = 0; k < nk; ++k) {
          const Point p{i, j, k};
          const std::size_t v = lin++;
          const std::uint64_t lo = cs.dep_offsets[v];
          const std::uint64_t hi = cs.dep_offsets[v + 1];
          const Cycle when = view.time(v, p);
          if (when < 0) {
            if constexpr (kReport) {
              ++rep->causality_violations;
              std::ostringstream os;
              os << element(seg.tensor, p) << " scheduled at negative cycle "
                 << when;
              add_diag("FM001",
                       analyze::Location{
                           element(seg.tensor, p),
                           static_cast<std::int32_t>(view.pe(v, p)), when},
                       os.str());
              continue;
            } else {
              return false;
            }
          }
          makespan = std::max(makespan, when + 1);
          HARMONY_REQUIRE(when < (Cycle{1} << 40),
                          "verify: schedule exceeds 2^40 cycles");
          const std::size_t here = view.pe(v, p);
          ctx.slots[num_slots++] = (static_cast<std::uint64_t>(here) << 40) |
                                   static_cast<std::uint64_t>(when);

          for (std::uint64_t o = lo; o < hi; ++o) {
            const CompiledDep& d = cs.deps[o];
            if (d.kind == CompiledDep::kComputed) {
              const Point dp = d.point();
              const auto dl = static_cast<std::size_t>(d.dep_lin);
              const std::size_t there = view.pe(dl, dp);
              const Cycle need =
                  view.time(dl, dp) +
                  std::max<Cycle>(1, cs.transit[there * P + here]);
              if (when < need) {
                if constexpr (!kReport) return false;
                else late_operand(seg.tensor, p, here, when, d.tensor, dp, need);
              }
              record_route(there, here, bits);
            } else {
              const Cycle need =
                  d.kind == CompiledDep::kInputDram
                      ? cs.dram_cycles[here]
                      : cs.transit[static_cast<std::size_t>(view.home(d)) * P +
                                   here];
              if (when < need) {
                if constexpr (!kReport) return false;
                else late_operand(seg.tensor, p, here, when, d.tensor,
                                  d.point(), need);
              }
              // The cost model's input-residency rule: an input value is
              // routed to a consumer PE once (DRAM homes excluded).
              if (d.kind == CompiledDep::kInputPe &&
                  ctx.first_delivery(d.input_ord, here)) {
                record_route(static_cast<std::size_t>(view.home(d)), here,
                             bits);
              }
            }
          }
        }
      }
    }
  }

  const auto slots_end =
      ctx.slots.begin() + static_cast<std::ptrdiff_t>(num_slots);
  std::sort(ctx.slots.begin(), slots_end);
  for (std::size_t i = 1; i < num_slots; ++i) {
    if (ctx.slots[i] == ctx.slots[i - 1]) {
      if constexpr (kReport) {
        ++rep->exclusivity_violations;
        const auto pe = static_cast<std::int32_t>(ctx.slots[i] >> 40);
        const auto cycle = static_cast<Cycle>(
            ctx.slots[i] & ((std::uint64_t{1} << 40) - 1));
        std::ostringstream os;
        os << "two elements share PE " << pe << " at cycle " << cycle;
        add_diag("FM002", analyze::Location{"", pe, cycle}, os.str());
      } else {
        return false;
      }
    }
  }

  // ---- 3. storage: peak live values per PE ---------------------------
  if (opts.check_storage) {
    // def/last-use sweep over the computed values.  A value occupies its
    // producer's PE from its definition cycle until its last consumption
    // cycle (transit buffering is charged to the producer — a simple,
    // conservative rule); input values live off-ledger.
    const auto total = static_cast<std::size_t>(cs.num_points);
    ctx.def_time.resize(total);
    ctx.last_use.assign(total, -1);
    ctx.owner_pe.resize(total);

    for (const CompiledSegment& seg : cs.segments) {
      std::int64_t slin = seg.first;
      seg.domain.for_each([&](const Point& p) {
        const auto vi = static_cast<std::size_t>(slin);
        const std::uint64_t lo = cs.dep_offsets[vi];
        const std::uint64_t hi = cs.dep_offsets[vi + 1];
        ++slin;
        ctx.def_time[vi] = view.time(vi, p);
        ctx.last_use[vi] = std::max(ctx.last_use[vi], ctx.def_time[vi]);
        ctx.owner_pe[vi] = static_cast<std::int32_t>(view.pe(vi, p));
        for (std::uint64_t o = lo; o < hi; ++o) {
          const CompiledDep& d = cs.deps[o];
          if (d.kind != CompiledDep::kComputed) continue;  // off-ledger
          const auto di = static_cast<std::size_t>(d.dep_lin);
          ctx.last_use[di] = std::max(ctx.last_use[di], ctx.def_time[vi]);
        }
      });
    }
    // Outputs stay live until the end of the computation.
    for (const CompiledSegment& seg : cs.segments) {
      if (!seg.is_output) continue;
      const auto first = static_cast<std::size_t>(seg.first);
      const auto end = first + static_cast<std::size_t>(seg.domain.size());
      for (std::size_t v = first; v < end; ++v) ctx.last_use[v] = makespan;
    }

    ctx.events.clear();
    ctx.events.reserve(total * 2);
    for (std::size_t v = 0; v < total; ++v) {
      // Negative-time elements: only the report mode gets here with any.
      if (kReport && ctx.def_time[v] < 0) continue;
      ctx.events.push_back({ctx.owner_pe[v], ctx.def_time[v], +1});
      ctx.events.push_back({ctx.owner_pe[v], ctx.last_use[v] + 1, -1});
    }
    std::sort(ctx.events.begin(), ctx.events.end(),
              [](const EvalContext::StorageEvent& a,
                 const EvalContext::StorageEvent& b) {
                if (a.pe != b.pe) return a.pe < b.pe;
                if (a.cycle != b.cycle) return a.cycle < b.cycle;
                return a.delta < b.delta;  // frees before allocs at a tick
              });
    std::int64_t live = 0;
    std::int32_t cur_pe = -1;
    bool flagged_this_pe = false;
    for (const EvalContext::StorageEvent& e : ctx.events) {
      if (e.pe != cur_pe) {
        cur_pe = e.pe;
        live = 0;
        flagged_this_pe = false;
      }
      live += e.delta;
      if constexpr (kReport) {
        if (live > rep->peak_live_values) {
          rep->peak_live_values = live;
          rep->peak_live_pe = e.pe;
        }
      }
      if (live > cs.pe_capacity_values && !flagged_this_pe) {
        if constexpr (kReport) {
          ++rep->storage_violations;
          flagged_this_pe = true;
          std::ostringstream os;
          os << "PE " << e.pe << " holds " << live
             << " live values at cycle " << e.cycle << " (capacity "
             << cs.pe_capacity_values << ")";
          add_diag("FM003", analyze::Location{"", e.pe, e.cycle}, os.str());
        } else {
          return false;
        }
      }
    }
  }

  // ---- 4. bandwidth: average bits/cycle per directed link ------------
  if (opts.check_bandwidth && makespan > 0) {
    for (std::size_t l = 0; l < ctx.link_bits.size(); ++l) {
      const double rate = static_cast<double>(ctx.link_bits[l]) /
                          static_cast<double>(makespan);
      if constexpr (kReport) {
        if (rate > rep->peak_link_bits_per_cycle) {
          rep->peak_link_bits_per_cycle = rate;
          rep->peak_link = static_cast<std::int64_t>(l);
        }
      }
      if (rate > cs.link_bits_per_cycle) {
        if constexpr (kReport) {
          ++rep->bandwidth_violations;
          std::ostringstream os;
          os << "directed link " << l << " carries " << rate
             << " bits/cycle on average (capacity "
             << cs.link_bits_per_cycle << ")";
          add_diag("FM004",
                   analyze::Location{"link " + std::to_string(l),
                                     static_cast<std::int32_t>(l / 4),
                                     analyze::Location::kNoCycle},
                   os.str());
        } else {
          return false;
        }
      }
    }
  }

  if constexpr (!kReport) return true;
  else return rep->ok = rep->total_violations() == 0;
}

}  // namespace

CostReport evaluate_cost(const CompiledSpec& cs, const AffineMap& map,
                         EvalContext& ctx) {
  return evaluate_cost_impl(cs, affine_view(cs, map), ctx);
}

LegalityReport verify(const CompiledSpec& cs, const AffineMap& map,
                      EvalContext& ctx, const VerifyOptions& opts) {
  LegalityReport rep;
  verify_body<true>(cs, affine_view(cs, map), ctx, opts, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
               EvalContext& ctx, const VerifyOptions& opts) {
  return verify_body<false>(cs, affine_view(cs, map), ctx, opts, nullptr);
}

CostReport evaluate_cost(const CompiledSpec& cs, const TableMap& tm,
                         EvalContext& ctx) {
  return evaluate_cost_impl(cs, table_view(cs, tm), ctx);
}

LegalityReport verify(const CompiledSpec& cs, const TableMap& tm,
                      EvalContext& ctx, const VerifyOptions& opts) {
  LegalityReport rep;
  verify_body<true>(cs, table_view(cs, tm), ctx, opts, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
               EvalContext& ctx, const VerifyOptions& opts) {
  return verify_body<false>(cs, table_view(cs, tm), ctx, opts, nullptr);
}

RecomputeReport recompute_report(const CompiledSpec& cs, const TableMap& tm) {
  const TableView view = table_view(cs, tm);
  const noc::GridGeometry& geom = cs.geom;
  const noc::TechnologyModel& tech = geom.tech();
  const auto ops_of = [&](TensorId t) {
    for (const CompiledSegment& seg : cs.segments) {
      if (seg.tensor == t) return seg.ops;
    }
    return 0.0;  // unreachable: computed deps name a segment's tensor
  };
  RecomputeReport rep;
  for (std::size_t v = 0; v < static_cast<std::size_t>(cs.num_points); ++v) {
    const std::size_t here = view.pe(v, Point{});
    const noc::Coord at = cs.pe_coords[here];
    for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
         ++o) {
      const CompiledDep& d = cs.deps[o];
      if (d.kind != CompiledDep::kComputed) continue;
      const auto dl = static_cast<std::size_t>(d.dep_lin);
      const std::size_t there = view.pe(dl, Point{});
      if (there == here) continue;
      ++rep.remote_edges;
      const std::size_t bits = cs.tensor_bits[static_cast<std::size_t>(d.tensor)];
      const Energy move = geom.transfer_energy(bits, cs.pe_coords[there], at);
      rep.move_energy += move;

      // Depth-1 recompute feasibility: the producer reads only inputs.
      const std::uint64_t plo = cs.dep_offsets[dl];
      const std::uint64_t phi = cs.dep_offsets[dl + 1];
      bool feasible = true;
      for (std::uint64_t q = plo; q < phi; ++q) {
        feasible = feasible && cs.deps[q].kind != CompiledDep::kComputed;
      }
      if (!feasible) {
        rep.best_energy += move;
        continue;
      }
      ++rep.feasible_edges;
      Energy recompute = tech.op_energy(bits) * ops_of(d.tensor);
      for (std::uint64_t q = plo; q < phi; ++q) {
        const CompiledDep& pd = cs.deps[q];
        const std::size_t pbits =
            cs.tensor_bits[static_cast<std::size_t>(pd.tensor)];
        if (pd.kind == CompiledDep::kInputDram) {
          recompute += geom.dram_access_energy(pbits, at);
        } else if (static_cast<std::size_t>(view.home(pd)) == here) {
          recompute += tech.sram_access_energy(pbits, cs.local_reach);
        } else {
          recompute += geom.transfer_energy(
              pbits, cs.pe_coords[static_cast<std::size_t>(view.home(pd))],
              at);
        }
      }
      if (recompute < move) {
        ++rep.profitable_edges;
        rep.best_energy += recompute;
      } else {
        rep.best_energy += move;
      }
    }
  }
  return rep;
}

double merit_value(const CostReport& r, FigureOfMerit fom) {
  switch (fom) {
    case FigureOfMerit::kTime:
      return r.makespan.picoseconds();
    case FigureOfMerit::kEnergy:
      return r.total_energy().femtojoules();
    case FigureOfMerit::kEnergyDelay:
      return r.energy_delay_product();
  }
  return 0.0;
}

// --- Mapping front doors ------------------------------------------------
// A closure Mapping is compiled (its input homes as the proto) and
// snapshotted into a TableMap; the compiled body does the rest.

namespace {

struct Lowered {
  std::shared_ptr<const CompiledSpec> cs;
  TableMap tm;
};

Lowered lower_mapping(const FunctionSpec& spec, const Mapping& mapping,
                      const MachineConfig& machine) {
  mapping.require_complete(spec);
  auto cs = compile_spec(spec, machine, mapping);
  TableMap tm = table_from_mapping(*cs, mapping);
  return Lowered{std::move(cs), std::move(tm)};
}

}  // namespace

CostReport evaluate_cost(const FunctionSpec& spec, const Mapping& mapping,
                         const MachineConfig& machine) {
  const Lowered l = lower_mapping(spec, mapping, machine);
  EvalContext ctx(*l.cs);
  return evaluate_cost(*l.cs, l.tm, ctx);
}

LegalityReport verify(const FunctionSpec& spec, const Mapping& mapping,
                      const MachineConfig& machine,
                      const VerifyOptions& opts) {
  const Lowered l = lower_mapping(spec, mapping, machine);
  EvalContext ctx(*l.cs);
  return verify(*l.cs, l.tm, ctx, opts);
}

RecomputeReport recompute_report(const FunctionSpec& spec,
                                 const Mapping& mapping,
                                 const MachineConfig& machine) {
  const Lowered l = lower_mapping(spec, mapping, machine);
  return recompute_report(*l.cs, l.tm);
}

}  // namespace harmony::fm
