#include "fm/strategy/delta.hpp"

#include <algorithm>
#include <queue>

#include "support/error.hpp"

namespace harmony::fm {

namespace {

/// Arrival need of one dependence edge at consumer PE `here`, exactly as
/// verify() computes it: producer time + max(1, transit) for computed
/// edges; DRAM latency or home-to-here transit for inputs.
Cycle input_need(const CompiledSpec& cs, const CompiledDep& d,
                 std::int32_t home, std::size_t here) {
  return d.kind == CompiledDep::kInputDram
             ? cs.dram_cycles[here]
             : cs.transit[static_cast<std::size_t>(home) * cs.num_pes + here];
}

}  // namespace

std::shared_ptr<const StrategySpec> build_strategy_spec(
    std::shared_ptr<const CompiledSpec> cs, double makespan_slack) {
  HARMONY_REQUIRE(cs != nullptr, "build_strategy_spec: null CompiledSpec");
  HARMONY_REQUIRE(makespan_slack >= 1.0,
                  "build_strategy_spec: makespan_slack must be >= 1");
  (void)cs->single("build_strategy_spec");
  auto ss = std::make_shared<StrategySpec>();
  ss->cs = std::move(cs);
  const CompiledSpec& c = *ss->cs;
  const auto n = static_cast<std::size_t>(c.num_points);
  const std::size_t E = c.deps.size();
  const std::size_t P = c.num_pes;

  // Edge -> consuming op, then the reverse CSR (producer -> edges).
  ss->edge_owner.resize(E);
  ss->consumer_offsets.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint64_t e = c.dep_offsets[v]; e < c.dep_offsets[v + 1]; ++e) {
      ss->edge_owner[e] = static_cast<std::int64_t>(v);
      if (c.deps[e].kind == CompiledDep::kComputed) {
        ++ss->consumer_offsets[static_cast<std::size_t>(c.deps[e].dep_lin) +
                               1];
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    ss->consumer_offsets[v + 1] += ss->consumer_offsets[v];
  }
  ss->consumers.resize(ss->consumer_offsets[n]);
  {
    std::vector<std::uint64_t> cursor(ss->consumer_offsets.begin(),
                                      ss->consumer_offsets.end() - 1);
    for (std::uint64_t e = 0; e < E; ++e) {
      if (c.deps[e].kind != CompiledDep::kComputed) continue;
      const auto w = static_cast<std::size_t>(c.deps[e].dep_lin);
      ss->consumers[cursor[w]++] =
          StrategySpec::ConsumerRef{ss->edge_owner[e], e};
    }
  }

  // Input ordinal -> consuming edges, plus the per-ordinal exemplar
  // reference/home (first-seen, same dense numbering as compile_spec).
  const std::size_t I = c.num_input_values;
  ss->input_consumer_offsets.assign(I + 1, 0);
  ss->input_refs.resize(I);
  ss->input_home.assign(I, -1);
  std::vector<char> seen(I, 0);
  for (std::uint64_t e = 0; e < E; ++e) {
    const CompiledDep& d = c.deps[e];
    if (d.kind == CompiledDep::kComputed) continue;
    ++ss->input_consumer_offsets[d.input_ord + 1];
    if (seen[d.input_ord] == 0) {
      seen[d.input_ord] = 1;
      ss->input_refs[d.input_ord] = TableMap::InputRef{d.tensor, d.point()};
      if (d.kind == CompiledDep::kInputPe) {
        ss->input_home[d.input_ord] = d.home_pe;
        ss->pe_homed.push_back(d.input_ord);
      }
    }
  }
  for (std::size_t o = 0; o < I; ++o) {
    ss->input_consumer_offsets[o + 1] += ss->input_consumer_offsets[o];
  }
  ss->input_consumers.resize(ss->input_consumer_offsets[I]);
  {
    std::vector<std::uint64_t> cursor(ss->input_consumer_offsets.begin(),
                                      ss->input_consumer_offsets.end() - 1);
    for (std::uint64_t e = 0; e < E; ++e) {
      if (c.deps[e].kind == CompiledDep::kComputed) continue;
      ss->input_consumers[cursor[c.deps[e].input_ord]++] = e;
    }
  }

  // Move-space cycle bound: wide enough for the requested slack factor
  // and for the serial seed (offset + one stride per op).
  for (std::size_t e = 0; e < P * P; ++e) {
    ss->max_transit = std::max(ss->max_transit, c.transit[e]);
  }
  ss->max_input_need = ss->max_transit;
  for (std::size_t q = 0; q < P; ++q) {
    ss->max_input_need = std::max(ss->max_input_need, c.dram_cycles[q]);
  }
  const auto nn = static_cast<Cycle>(n);
  const Cycle serial_span =
      ss->max_input_need + nn * (Cycle{1} + ss->max_transit);
  const auto slack_span = static_cast<Cycle>(
      static_cast<double>(nn) * makespan_slack);
  ss->cycle_bound = std::max(serial_span, slack_span) + 1;
  HARMONY_ASSERT(ss->cycle_bound < (Cycle{1} << 40));
  return ss;
}

TableMap seed_table(const StrategySpec& ss) {
  const CompiledSpec& cs = *ss.cs;
  const auto n = static_cast<std::size_t>(cs.num_points);
  const std::size_t P = cs.num_pes;

  // Kahn's algorithm with a min-heap keyed on the linearized index:
  // yields row-major order whenever row-major is already topological,
  // and a deterministic topological order otherwise.
  std::vector<std::int64_t> indeg(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint64_t e = cs.dep_offsets[v]; e < cs.dep_offsets[v + 1];
         ++e) {
      if (cs.deps[e].kind == CompiledDep::kComputed) ++indeg[v];
    }
  }
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<std::int64_t>>
      ready;
  for (std::size_t v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push(static_cast<std::int64_t>(v));
  }

  TableMap tm;
  tm.target = cs.target;
  tm.domain = cs.segments.front().domain;
  tm.cols = cs.cols;
  tm.rows = cs.rows;
  tm.pe.resize(n);
  tm.cycle.resize(n);
  tm.input_refs = ss.input_refs;
  tm.input_home = ss.input_home;

  // Block placement keeps per-PE residency at ceil(n / P) — the minimum
  // any table can achieve — and the stride leaves room for the slowest
  // hop, so the seed is causal, exclusive, and storage-minimal.
  const std::size_t block = (n + P - 1) / P;
  const Cycle stride = Cycle{1} + ss.max_transit;
  std::size_t q = 0;
  while (!ready.empty()) {
    const std::int64_t u = ready.top();
    ready.pop();
    tm.pe[static_cast<std::size_t>(u)] =
        static_cast<std::int32_t>(q / block);
    tm.cycle[static_cast<std::size_t>(u)] =
        ss.max_input_need + static_cast<Cycle>(q) * stride;
    ++q;
    for (std::uint64_t o = ss.consumer_offsets[static_cast<std::size_t>(u)];
         o < ss.consumer_offsets[static_cast<std::size_t>(u) + 1]; ++o) {
      if (--indeg[static_cast<std::size_t>(ss.consumers[o].op)] == 0) {
        ready.push(ss.consumers[o].op);
      }
    }
  }
  if (q != n) {
    throw SimulationError("fm::seed_table: cyclic dependence relation");
  }
  return tm;
}

DeltaEval::DeltaEval(std::shared_ptr<const StrategySpec> ss,
                     VerifyOptions opts)
    : ss_(std::move(ss)), opts_(opts) {
  HARMONY_REQUIRE(ss_ != nullptr, "DeltaEval: null StrategySpec");
  const CompiledSegment& seg = ss_->cs->single("DeltaEval");
  P_ = ss_->cs->num_pes;
  output_ = seg.is_output;
  bits_ = static_cast<std::uint64_t>(seg.bits);
}

void DeltaEval::set_bad(std::uint64_t e, bool bad) {
  if (edge_bad_[e] == static_cast<std::uint8_t>(bad)) return;
  edge_bad_[e] = static_cast<std::uint8_t>(bad);
  causality_bad_ += bad ? 1 : -1;
}

void DeltaEval::occ_insert(std::size_t pe, Cycle c) {
  const std::uint64_t key = (static_cast<std::uint64_t>(pe) << 40) |
                            static_cast<std::uint64_t>(c);
  if (++occ_[key] >= 2) ++excl_extra_;
}

void DeltaEval::occ_erase(std::size_t pe, Cycle c) {
  const std::uint64_t key = (static_cast<std::uint64_t>(pe) << 40) |
                            static_cast<std::uint64_t>(c);
  const auto it = occ_.find(key);
  if (--it->second >= 1) {
    --excl_extra_;
  } else {
    occ_.erase(it);
  }
}

void DeltaEval::hist_insert(Cycle c) {
  ++cyc_hist_[static_cast<std::size_t>(c)];
  max_cycle_ = std::max(max_cycle_, c);
}

void DeltaEval::hist_erase(Cycle c) {
  --cyc_hist_[static_cast<std::size_t>(c)];
  while (max_cycle_ > 0 &&
         cyc_hist_[static_cast<std::size_t>(max_cycle_)] == 0) {
    --max_cycle_;
  }
}

void DeltaEval::route_add(std::size_t from, std::size_t to, bool add) {
  if (from == to) return;
  const CompiledSpec& cs = *ss_->cs;
  // Unsigned wraparound: adding 2^64 - bits subtracts bits.
  const std::uint64_t delta = add ? bits_ : std::uint64_t{0} - bits_;
  cs.for_each_route_link(
      from, to, [&](std::size_t link) { link_bits_[link] += delta; });
}

/// One on-chip transfer (or local access when from == to): the cost
/// contribution of a computed edge or of an input delivery from a PE home.
void DeltaEval::movement_add(std::size_t from, std::size_t to, bool add) {
  if (from == to) {
    if (add) {
      ++n_local_;
    } else {
      --n_local_;
    }
    return;
  }
  const CompiledSpec& cs = *ss_->cs;
  const std::uint64_t hops =
      bits_ * static_cast<std::uint64_t>(cs.hop_count[from * P_ + to]);
  if (add) {
    ++n_transfer_[from * P_ + to];
    ++messages_;
    bit_hops_ += hops;
  } else {
    --n_transfer_[from * P_ + to];
    --messages_;
    bit_hops_ -= hops;
  }
  route_add(from, to, add);
}

/// The once-per-(ordinal, PE) delivery contribution.
void DeltaEval::delivery_add(const CompiledDep& d, std::size_t pe, bool add) {
  if (d.kind == CompiledDep::kInputDram) {
    if (add) {
      ++n_dram_[pe];
    } else {
      --n_dram_[pe];
    }
    return;
  }
  const auto home =
      static_cast<std::size_t>(tm_.input_home[d.input_ord]);
  movement_add(home, pe, add);
}

/// Adjusts the delivered-set count of (d.input_ord, pe) by one read.
/// First read pays the delivery; repeat reads pay a local SRAM access —
/// the same totals evaluate_cost's first_delivery scan produces.
void DeltaEval::deliv_change(const CompiledDep& d, std::size_t pe, bool add) {
  std::uint32_t& c =
      deliv_[static_cast<std::size_t>(d.input_ord) * P_ + pe];
  if (add) {
    if (c++ == 0) {
      delivery_add(d, pe, true);
    } else {
      ++n_local_;
    }
  } else {
    if (--c == 0) {
      delivery_add(d, pe, false);
    } else {
      --n_local_;
    }
  }
}

void DeltaEval::value_insert(std::int64_t v, std::size_t pe) {
  auto& list = pe_values_[pe];
  value_pos_[static_cast<std::size_t>(v)] =
      static_cast<std::uint32_t>(list.size());
  list.push_back(v);
  mark_storage_dirty(pe);
}

void DeltaEval::value_erase(std::int64_t v, std::size_t pe) {
  auto& list = pe_values_[pe];
  const std::uint32_t pos = value_pos_[static_cast<std::size_t>(v)];
  const std::int64_t last = list.back();
  list[pos] = last;
  value_pos_[static_cast<std::size_t>(last)] = pos;
  list.pop_back();
  mark_storage_dirty(pe);
}

void DeltaEval::mark_storage_dirty(std::size_t pe) {
  if (pe_dirty_[pe] != 0) return;
  pe_dirty_[pe] = 1;
  dirty_list_.push_back(static_cast<std::int32_t>(pe));
}

std::int64_t DeltaEval::pe_peak_of(std::size_t pe) {
  const auto& list = pe_values_[pe];
  if (output_) {
    // Every value lives until the makespan, past every definition, so
    // the sweep's running max is just the resident count.
    return static_cast<std::int64_t>(list.size());
  }
  ev_scratch_.clear();
  for (const std::int64_t v : list) {
    const auto vi = static_cast<std::size_t>(v);
    const Cycle def = tm_.cycle[vi];
    const Cycle last = std::max(def, cons_last_[vi]);
    ev_scratch_.emplace_back(def, +1);
    ev_scratch_.emplace_back(last + 1, -1);
  }
  // (cycle, delta) ascending: frees before allocations at a tick, the
  // verifier's event order restricted to one PE.
  std::sort(ev_scratch_.begin(), ev_scratch_.end());
  std::int64_t live = 0;
  std::int64_t peak = 0;
  for (const auto& [cycle, delta] : ev_scratch_) {
    live += delta;
    peak = std::max(peak, live);
  }
  return peak;
}

void DeltaEval::flush_storage() {
  const std::int64_t cap = ss_->cs->pe_capacity_values;
  for (const std::int32_t q : dirty_list_) {
    const auto pe = static_cast<std::size_t>(q);
    const bool was_over = pe_peak_[pe] > cap;
    pe_peak_[pe] = pe_peak_of(pe);
    const bool now_over = pe_peak_[pe] > cap;
    if (was_over != now_over) storage_over_ += now_over ? 1 : -1;
    pe_dirty_[pe] = 0;
  }
  dirty_list_.clear();
}

void DeltaEval::reset(const TableMap& tm) {
  const CompiledSpec& cs = *ss_->cs;
  const auto n = static_cast<std::size_t>(cs.num_points);
  HARMONY_REQUIRE(tm.pe.size() == n && tm.cycle.size() == n &&
                      tm.input_home.size() == cs.num_input_values,
                  "DeltaEval::reset: table does not match the spec's shape");
  for (std::size_t v = 0; v < n; ++v) {
    HARMONY_REQUIRE(tm.pe[v] >= 0 &&
                        static_cast<std::size_t>(tm.pe[v]) < P_ &&
                        tm.cycle[v] >= 0 && tm.cycle[v] < ss_->cycle_bound,
                    "DeltaEval::reset: op placed outside the move space");
  }
  for (const std::uint32_t ord : ss_->pe_homed) {
    HARMONY_REQUIRE(tm.input_home[ord] >= 0 &&
                        static_cast<std::size_t>(tm.input_home[ord]) < P_,
                    "DeltaEval::reset: PE-homed input without a valid home");
  }
  tm_ = tm;

  n_local_ = messages_ = bit_hops_ = 0;
  n_dram_.assign(P_, 0);
  n_transfer_.assign(P_ * P_, 0);
  deliv_.assign(static_cast<std::size_t>(cs.num_input_values) * P_, 0);
  cyc_hist_.assign(static_cast<std::size_t>(ss_->cycle_bound), 0);
  max_cycle_ = 0;
  edge_bad_.assign(cs.deps.size(), 0);
  causality_bad_ = 0;
  occ_.clear();
  excl_extra_ = 0;
  link_bits_.assign(P_ * 4, 0);
  cons_last_.assign(n, -1);
  pe_values_.assign(P_, {});
  value_pos_.assign(n, 0);
  pe_peak_.assign(P_, 0);
  pe_dirty_.assign(P_, 0);
  dirty_list_.clear();
  storage_over_ = 0;

  for (std::size_t v = 0; v < n; ++v) {
    const auto pe = static_cast<std::size_t>(tm_.pe[v]);
    const Cycle when = tm_.cycle[v];
    occ_insert(pe, when);
    hist_insert(when);
    value_insert(static_cast<std::int64_t>(v), pe);
    for (std::uint64_t e = cs.dep_offsets[v]; e < cs.dep_offsets[v + 1];
         ++e) {
      const CompiledDep& d = cs.deps[e];
      if (d.kind == CompiledDep::kComputed) {
        const auto w = static_cast<std::size_t>(d.dep_lin);
        const auto there = static_cast<std::size_t>(tm_.pe[w]);
        movement_add(there, pe, true);
        const Cycle need =
            tm_.cycle[w] +
            std::max<Cycle>(1, cs.transit[there * P_ + pe]);
        set_bad(e, when < need);
        if (!output_) {
          cons_last_[w] = std::max(cons_last_[w], when);
        }
      } else {
        deliv_change(d, pe, true);
        set_bad(e, when < input_need(cs, d, tm_.input_home[d.input_ord],
                                     pe));
      }
    }
  }
}

void DeltaEval::remove_op(std::int64_t u) {
  const CompiledSpec& cs = *ss_->cs;
  const auto ui = static_cast<std::size_t>(u);
  const auto pe = static_cast<std::size_t>(tm_.pe[ui]);
  const Cycle when = tm_.cycle[ui];
  occ_erase(pe, when);
  hist_erase(when);
  value_erase(u, pe);
  for (std::uint64_t e = cs.dep_offsets[ui]; e < cs.dep_offsets[ui + 1];
       ++e) {
    const CompiledDep& d = cs.deps[e];
    if (d.kind == CompiledDep::kComputed) {
      movement_add(static_cast<std::size_t>(
                       tm_.pe[static_cast<std::size_t>(d.dep_lin)]),
                   pe, false);
    } else {
      deliv_change(d, pe, false);
    }
    set_bad(e, false);
  }
  for (std::uint64_t o = ss_->consumer_offsets[ui];
       o < ss_->consumer_offsets[ui + 1]; ++o) {
    const StrategySpec::ConsumerRef& cr = ss_->consumers[o];
    if (cr.op == u) continue;  // self-edge already handled above
    movement_add(pe,
                 static_cast<std::size_t>(
                     tm_.pe[static_cast<std::size_t>(cr.op)]),
                 false);
    set_bad(cr.edge, false);
  }
}

void DeltaEval::add_op(std::int64_t u) {
  const CompiledSpec& cs = *ss_->cs;
  const auto ui = static_cast<std::size_t>(u);
  const auto pe = static_cast<std::size_t>(tm_.pe[ui]);
  const Cycle when = tm_.cycle[ui];
  occ_insert(pe, when);
  hist_insert(when);
  value_insert(u, pe);
  for (std::uint64_t e = cs.dep_offsets[ui]; e < cs.dep_offsets[ui + 1];
       ++e) {
    const CompiledDep& d = cs.deps[e];
    if (d.kind == CompiledDep::kComputed) {
      const auto w = static_cast<std::size_t>(d.dep_lin);
      const auto there = static_cast<std::size_t>(tm_.pe[w]);
      movement_add(there, pe, true);
      const Cycle need =
          tm_.cycle[w] + std::max<Cycle>(1, cs.transit[there * P_ + pe]);
      set_bad(e, when < need);
    } else {
      deliv_change(d, pe, true);
      set_bad(e,
              when < input_need(cs, d, tm_.input_home[d.input_ord], pe));
    }
  }
  for (std::uint64_t o = ss_->consumer_offsets[ui];
       o < ss_->consumer_offsets[ui + 1]; ++o) {
    const StrategySpec::ConsumerRef& cr = ss_->consumers[o];
    if (cr.op == u) continue;
    const auto ci = static_cast<std::size_t>(cr.op);
    const auto cpe = static_cast<std::size_t>(tm_.pe[ci]);
    movement_add(pe, cpe, true);
    const Cycle need =
        when + std::max<Cycle>(1, cs.transit[pe * P_ + cpe]);
    set_bad(cr.edge, tm_.cycle[ci] < need);
  }
}

void DeltaEval::update_producer_last_use(std::int64_t u) {
  if (output_) return;  // last-use plays no role: peaks are counts
  const CompiledSpec& cs = *ss_->cs;
  const auto ui = static_cast<std::size_t>(u);
  for (std::uint64_t e = cs.dep_offsets[ui]; e < cs.dep_offsets[ui + 1];
       ++e) {
    const CompiledDep& d = cs.deps[e];
    if (d.kind != CompiledDep::kComputed) continue;
    const auto w = static_cast<std::size_t>(d.dep_lin);
    Cycle last = -1;
    for (std::uint64_t o = ss_->consumer_offsets[w];
         o < ss_->consumer_offsets[w + 1]; ++o) {
      last = std::max(
          last,
          tm_.cycle[static_cast<std::size_t>(ss_->consumers[o].op)]);
    }
    if (last != cons_last_[w]) {
      cons_last_[w] = last;
      mark_storage_dirty(static_cast<std::size_t>(tm_.pe[w]));
    }
  }
}

void DeltaEval::apply_replace(std::int64_t u, std::int32_t pe, Cycle cycle) {
  remove_op(u);
  tm_.pe[static_cast<std::size_t>(u)] = pe;
  tm_.cycle[static_cast<std::size_t>(u)] = cycle;
  add_op(u);
  update_producer_last_use(u);
}

void DeltaEval::apply_shift_home(std::int64_t ord, std::int32_t pe) {
  const CompiledSpec& cs = *ss_->cs;
  const auto oi = static_cast<std::size_t>(ord);
  const auto old_home = static_cast<std::size_t>(tm_.input_home[oi]);
  const auto new_home = static_cast<std::size_t>(pe);
  if (old_home != new_home) {
    // Re-point every active delivery of this ordinal at the new home.
    for (std::size_t q = 0; q < P_; ++q) {
      if (deliv_[oi * P_ + q] == 0) continue;
      movement_add(old_home, q, false);
      movement_add(new_home, q, true);
    }
    tm_.input_home[oi] = pe;
    // Arrival times changed for every edge reading this ordinal.
    for (std::uint64_t o = ss_->input_consumer_offsets[oi];
         o < ss_->input_consumer_offsets[oi + 1]; ++o) {
      const std::uint64_t e = ss_->input_consumers[o];
      const auto ci = static_cast<std::size_t>(ss_->edge_owner[e]);
      set_bad(e, tm_.cycle[ci] <
                     input_need(cs, cs.deps[e], pe,
                                static_cast<std::size_t>(tm_.pe[ci])));
    }
  }
}

Move DeltaEval::apply_move(const Move& m) {
  const auto n = static_cast<std::int64_t>(ss_->cs->num_points);
  switch (m.kind) {
    case MoveKind::kReplaceOp: {
      HARMONY_REQUIRE(m.a >= 0 && m.a < n && m.pe >= 0 &&
                          static_cast<std::size_t>(m.pe) < P_ &&
                          m.cycle >= 0 && m.cycle < ss_->cycle_bound,
                      "DeltaEval: replace move outside the move space");
      const auto ui = static_cast<std::size_t>(m.a);
      Move inv{MoveKind::kReplaceOp, m.a, 0, tm_.pe[ui], tm_.cycle[ui]};
      apply_replace(m.a, m.pe, m.cycle);
      return inv;
    }
    case MoveKind::kSwapOps: {
      HARMONY_REQUIRE(m.a >= 0 && m.a < n && m.b >= 0 && m.b < n,
                      "DeltaEval: swap move outside the move space");
      const auto ai = static_cast<std::size_t>(m.a);
      const auto bi = static_cast<std::size_t>(m.b);
      if (m.a != m.b) {
        const std::int32_t pe_a = tm_.pe[ai];
        const Cycle cy_a = tm_.cycle[ai];
        apply_replace(m.a, tm_.pe[bi], tm_.cycle[bi]);
        apply_replace(m.b, pe_a, cy_a);
      }
      return m;  // a swap is its own inverse
    }
    case MoveKind::kShiftHome: {
      HARMONY_REQUIRE(
          m.a >= 0 &&
              m.a < static_cast<std::int64_t>(ss_->input_home.size()) &&
              ss_->input_home[static_cast<std::size_t>(m.a)] >= 0 &&
              m.pe >= 0 && static_cast<std::size_t>(m.pe) < P_,
          "DeltaEval: home shift on a DRAM input or outside the machine");
      Move inv{MoveKind::kShiftHome, m.a, 0,
               tm_.input_home[static_cast<std::size_t>(m.a)], 0};
      apply_shift_home(m.a, m.pe);
      return inv;
    }
  }
  HARMONY_ASSERT(false);
  return m;  // unreachable
}

bool DeltaEval::legal() {
  if (causality_bad_ != 0 || excl_extra_ != 0) return false;
  if (opts_.check_storage) {
    flush_storage();
    if (storage_over_ != 0) return false;
  }
  if (opts_.check_bandwidth && bandwidth_violations() != 0) return false;
  return true;
}

std::uint64_t DeltaEval::storage_violations() {
  flush_storage();
  return storage_over_;
}

std::uint64_t DeltaEval::bandwidth_violations() const {
  const double cap = ss_->cs->link_bits_per_cycle;
  const auto makespan = static_cast<double>(max_cycle_ + 1);
  std::uint64_t over = 0;
  for (const std::uint64_t lb : link_bits_) {
    if (static_cast<double>(lb) / makespan > cap) ++over;
  }
  return over;
}

CostReport DeltaEval::cost_report() const {
  const CompiledSpec& cs = *ss_->cs;
  CostReport rep;
  rep.makespan_cycles = max_cycle_ + 1;
  rep.compute_energy = cs.compute_energy_total;
  rep.total_ops = cs.total_ops_total;
  rep.local_access_energy =
      cs.segments.front().sram_access * static_cast<double>(n_local_);
  for (std::size_t q = 0; q < P_; ++q) {
    if (n_dram_[q] == 0) continue;
    rep.dram_energy +=
        cs.dram_energy[q] * static_cast<double>(n_dram_[q]);
  }
  for (std::size_t e = 0; e < P_ * P_; ++e) {
    if (n_transfer_[e] == 0) continue;
    rep.onchip_movement_energy +=
        cs.transfer_energy[e] * static_cast<double>(n_transfer_[e]);
  }
  rep.messages = messages_;
  rep.bit_hops = bit_hops_;
  rep.makespan = cs.cycle * static_cast<double>(rep.makespan_cycles);
  return rep;
}

double DeltaEval::merit(FigureOfMerit fom) const {
  if (fom == FigureOfMerit::kTime) {
    return (ss_->cs->cycle * static_cast<double>(max_cycle_ + 1))
        .picoseconds();
  }
  return merit_value(cost_report(), fom);
}

}  // namespace harmony::fm
