// Compile-once evaluation: the one production evaluator of the F&M cost
// model (Dally, §3).
//
// Every (function, mapping) query — the search inner loop, serve's cost
// and legality asks, the linter, the fm::evaluate_cost / fm::verify /
// fm::recompute_report front doors over a closure Mapping — runs here.
// Most of what a candidate evaluation computes is invariant across a
// whole search: the spec's dependence relation, value indices,
// per-tensor bits/ops/op-energy, and every geometry query (hop counts,
// transfer energies, transit cycles, DRAM costs).
//
// CompiledSpec freezes a (FunctionSpec, MachineConfig, input_proto)
// triple into flat arrays once:
//   * one segment per computed tensor, in computed_tensors() order, with
//     one linearization across all of them (segment s owns global
//     indices [first, first + domain.size()));
//   * per-point dependence lists flattened into one contiguous array
//     with a CSR-style offset table (no std::function calls, no
//     per-point vector allocation, no domain re-validation);
//   * input values renumbered to dense ordinals so delivery tracking is
//     an array index, not a hash probe;
//   * geometry memoized as [from * num_pes + to] tables plus per-PE DRAM
//     costs (energies once per distinct segment bit width); routes for
//     the bandwidth check are walked by noc::GridGeometry's one route
//     walk, not tabulated;
//   * the candidate-invariant compute-energy / total-ops sums.
//
// EvalContext is the per-lane scratch: an epoch-stamped delivered table
// (one uint32 compare per dependence instead of an unordered_set insert;
// cleared once per context, not once per candidate) and the reusable
// slots/link/storage buffers of the verifier.  One CompiledSpec is
// shared read-only by all search lanes; each lane owns one EvalContext,
// which keeps fm::search_lanes RaceCtx-certifiable.
//
// The AffineMap family (and the searchers and witness builder that use
// it) maps exactly one computed tensor: its overloads throw
// InvalidArgument on a multi-segment spec.  TableMap spans every segment.
//
// Reference: the Mapping-walking oracles these bodies replaced live in
// tests/reference (harmony_fm_reference).  Tests pin compiled vs. that
// reference on every report field, diagnostic text and order included,
// and vs. the executing GridMachine ledger.  DESIGN.md §12.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/recompute.hpp"
#include "fm/spec.hpp"
#include "noc/mesh.hpp"
#include "support/units.hpp"

namespace harmony::fm {

/// One flattened dependence edge of a computed point.  The input home
/// (including kDistributed closures) is resolved to a concrete PE at
/// compile time, so evaluation never touches an InputHome again.
struct CompiledDep {
  enum Kind : std::uint8_t {
    kComputed = 0,   ///< dep on a computed tensor (any segment)
    kInputDram = 1,  ///< input tensor homed in DRAM
    kInputPe = 2,    ///< input tensor homed on a PE (home_pe below)
  };
  Kind kind = kComputed;
  TensorId tensor = -1;         ///< dep tensor id (diagnostics)
  std::int32_t home_pe = -1;    ///< kInputPe: resolved home PE index
  std::uint32_t input_ord = 0;  ///< kInput*: dense input-value ordinal
  std::int64_t dep_lin = -1;    ///< kComputed: global linear index
  std::int64_t i = 0, j = 0, k = 0;  ///< dep point

  [[nodiscard]] Point point() const { return Point{i, j, k}; }
};

/// One computed tensor's slice of the compiled linearization.
struct CompiledSegment {
  TensorId tensor = -1;
  IndexDomain domain{1};
  std::int64_t first = 0;  ///< global linear index of the segment's first point
  bool is_output = false;
  std::size_t bits = 32;
  double ops = 1.0;
  /// tech.sram_access_energy(bits, local_reach): constant per machine.
  Energy sram_access = Energy::zero();
  /// Which bits-keyed energy table the segment prices with: its
  /// transfer energies start at transfer_energy[energy_table * P * P],
  /// its DRAM energies at dram_energy[energy_table * P].
  std::size_t energy_table = 0;
};

/// The search-invariant half of candidate evaluation, frozen flat.
/// Read-only after compile_spec() — safe to share across lanes.
struct CompiledSpec {
  // --- computed tensors ---
  std::vector<CompiledSegment> segments;
  /// The first computed tensor (the only one when segments.size() == 1).
  TensorId target = -1;
  std::int64_t num_points = 0;  ///< over all segments
  /// Tensor names and bit widths by id, for diagnostics identical to the
  /// reference and for recompute pricing of input operands.
  std::vector<std::string> tensor_names;
  std::vector<std::size_t> tensor_bits;

  // --- machine ---
  noc::GridGeometry geom{1, 1, Length::millimetres(1.0)};
  Length local_reach = Length::zero();
  int cols = 1, rows = 1;
  std::size_t num_pes = 1;
  Time cycle = Time::zero();
  std::int64_t pe_capacity_values = 0;
  double link_bits_per_cycle = 0.0;

  // --- candidate-invariant totals (segment order, one += per point) ---
  Energy compute_energy_total = Energy::zero();
  double total_ops_total = 0.0;

  // --- geometry tables, indexed [from * num_pes + to] ---
  /// One P x P block per energy table (see CompiledSegment).
  std::vector<Energy> transfer_energy;
  std::vector<std::int64_t> hop_count;
  std::vector<Cycle> transit;
  // Per-PE DRAM access cost (one P block per energy table) / latency.
  std::vector<Energy> dram_energy;
  std::vector<Cycle> dram_cycles;
  /// Grid coordinate of each PE index.
  std::vector<noc::Coord> pe_coords;
  /// The bandwidth check's routes, as legs recorded from the geometry's
  /// route walk (noc::GridGeometry::for_each_route_link).  A
  /// dimension-ordered route is its X leg — which depends only on the
  /// two columns, offset by the source row — then its Y leg — only on
  /// the two rows, offset by the destination column — so cols^2 + rows^2
  /// legs (CSR over [from * extent + to], link ids relative to row or
  /// column 0) stand for all P^2 routes at table-lookup speed.
  std::vector<std::uint32_t> x_leg_offsets, x_leg_links;
  std::vector<std::uint32_t> y_leg_offsets, y_leg_links;

  /// Calls on_link(id) for each directed link of the route from PE
  /// `src` to PE `dst`, in walk order — the same ids
  /// geom.for_each_route_link(pe_coords[src], pe_coords[dst]) yields.
  template <typename F>
  void for_each_route_link(std::size_t src, std::size_t dst,
                           F&& on_link) const {
    const noc::Coord a = pe_coords[src];
    const noc::Coord b = pe_coords[dst];
    const auto row = static_cast<std::uint32_t>(a.y) *
                     static_cast<std::uint32_t>(cols) *
                     noc::GridGeometry::kLinksPerNode;
    const auto x = static_cast<std::size_t>(a.x) * static_cast<std::size_t>(cols) +
                   static_cast<std::size_t>(b.x);
    for (std::uint32_t o = x_leg_offsets[x]; o < x_leg_offsets[x + 1]; ++o) {
      on_link(static_cast<std::size_t>(row + x_leg_links[o]));
    }
    const auto col = static_cast<std::uint32_t>(b.x) *
                     noc::GridGeometry::kLinksPerNode;
    const auto y = static_cast<std::size_t>(a.y) * static_cast<std::size_t>(rows) +
                   static_cast<std::size_t>(b.y);
    for (std::uint32_t o = y_leg_offsets[y]; o < y_leg_offsets[y + 1]; ++o) {
      on_link(static_cast<std::size_t>(col + y_leg_links[o]));
    }
  }

  // --- flattened dependences, CSR over global linear indices ---
  std::vector<std::uint64_t> dep_offsets;  ///< num_points + 1 entries
  std::vector<CompiledDep> deps;
  /// True when any edge reads an input tensor; false lets the search
  /// skip the input-arrival normalization sweep entirely.
  bool has_input_deps = false;
  /// Dense input-value ordinal space size (delivered-table rows).
  std::uint32_t num_input_values = 0;

  /// The one segment of a single-computed-tensor spec; throws
  /// InvalidArgument naming `who` otherwise.  The AffineMap family, the
  /// searchers and the witness builder go through this.
  [[nodiscard]] const CompiledSegment& single(const char* who) const;

  /// PE index of a coordinate produced by AffineMap::place (always
  /// in-range, so no bounds re-check: same value as geom.index()).
  [[nodiscard]] std::size_t pe_index(noc::Coord c) const {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c.x);
  }

  /// max(0, max over the domain of time(p) + 1): the affine form attains
  /// its extremes at domain corners, so this is exact — identical to a
  /// per-point running max, in integer arithmetic.
  [[nodiscard]] Cycle makespan_cycles_of(const AffineMap& map) const;
};

/// Upper bound on one EvalContext's scratch (delivered table plus the
/// per-point verifier buffers).  The delivered table is input values x
/// PEs, so a large irregular spec on a large grid would otherwise ask
/// gigabytes per search lane.
inline constexpr std::size_t kMaxEvalContextBytes = std::size_t{128} << 20;

/// Freezes the triple into a CompiledSpec (one pass over the dependence
/// relation).  Any number of computed tensors; `input_proto` must supply
/// a home for every input tensor.  Throws InvalidArgument when the
/// per-lane EvalContext would exceed kMaxEvalContextBytes.  Traced as
/// trace::Span("fm", "compile").
[[nodiscard]] std::shared_ptr<const CompiledSpec> compile_spec(
    const FunctionSpec& spec, const MachineConfig& machine,
    const Mapping& input_proto);

/// Per-lane mutable scratch.  All buffers are sized once and reused
/// across candidates; the delivered table is epoch-stamped so "clear"
/// is one counter increment (a full wipe only on uint32 wraparound).
class EvalContext {
 public:
  /// slots and link_bits get their fixed sizes here (one slot per
  /// element, one counter per directed link), so the verifier's hot
  /// loop stores into them by index and never resizes them.
  explicit EvalContext(const CompiledSpec& cs)
      : slots(static_cast<std::size_t>(cs.num_points)),
        link_bits(cs.num_pes * 4),
        num_pes_(cs.num_pes),
        delivered_(static_cast<std::size_t>(cs.num_input_values) * cs.num_pes,
                   0) {}

  /// Pre-reserves the remaining scratch buffers to their steady-state
  /// size for `cs` so the first candidates of a search do not grow them
  /// inside the hot loop (verify sizes them on use: def_time/last_use/
  /// owner_pe to num_points, events to 2x).  Purely an allocation
  /// accelerator — buffer *contents* are still established per
  /// candidate exactly as before.
  void reserve_scratch(const CompiledSpec& cs) {
    const auto n = static_cast<std::size_t>(cs.num_points);
    def_time.reserve(n);
    last_use.reserve(n);
    owner_pe.reserve(n);
    events.reserve(n * 2);
  }

  /// Starts a fresh delivered-set scope (one oracle call = one scope,
  /// mirroring the reference oracles' per-call delivered set).
  void begin_candidate() {
    if (++epoch_ == 0) {  // uint32 wrapped: wipe once, restart at 1
      std::fill(delivered_.begin(), delivered_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// True exactly the first time (input ordinal, pe) is seen this scope.
  bool first_delivery(std::uint32_t input_ord, std::size_t pe) {
    std::uint32_t& stamp =
        delivered_[static_cast<std::size_t>(input_ord) * num_pes_ + pe];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }

  // Reusable verifier scratch (see compiled.cpp).
  struct StorageEvent {
    std::int32_t pe;
    Cycle cycle;
    std::int32_t delta;
  };
  std::vector<std::uint64_t> slots;
  std::vector<std::uint64_t> link_bits;
  std::vector<Cycle> def_time;
  std::vector<Cycle> last_use;
  std::vector<std::int32_t> owner_pe;
  std::vector<StorageEvent> events;

 private:
  std::size_t num_pes_;
  std::vector<std::uint32_t> delivered_;
  std::uint32_t epoch_ = 0;
};

/// Arena of per-lane evaluation scratch: every lane's EvalContext (and
/// its delivered table and verifier buffers) is allocated and
/// pre-reserved up front, in one construction pass, so nothing in the
/// search inner loop ever touches the allocator.  Lane L's context is
/// reached by the explicit lane index the driver's kernel carries
/// (fm::search_lanes) — the pool is the replacement for the old
/// "recover the lane from the tally's address" arithmetic, which broke
/// silently if the tally storage moved.  Contexts are mutually
/// independent, so lanes use theirs concurrently; the pool itself is
/// not resized while lanes run.
class EvalContextPool {
 public:
  EvalContextPool(const CompiledSpec& cs, unsigned lanes) {
    ctxs_.reserve(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      ctxs_.emplace_back(cs);
      ctxs_.back().reserve_scratch(cs);
    }
  }

  [[nodiscard]] EvalContext& lane(unsigned l) { return ctxs_[l]; }
  [[nodiscard]] unsigned lanes() const {
    return static_cast<unsigned>(ctxs_.size());
  }

 private:
  std::vector<EvalContext> ctxs_;
};

// --- AffineMap overloads ----------------------------------------------
// The search inner loop's oracles.  Each throws InvalidArgument when the
// spec has more than one computed tensor or when the map's grid is
// empty or larger than the machine's (a map on a sub-grid is fine: its
// places all land on the machine).

/// The full cost report of the AffineMap on the computed tensor plus the
/// compiled input homes.
[[nodiscard]] CostReport evaluate_cost(const CompiledSpec& cs,
                                       const AffineMap& map,
                                       EvalContext& ctx);

/// The full legality report: counters, peaks, and FM001–FM004
/// diagnostics in visit order.
[[nodiscard]] LegalityReport verify(const CompiledSpec& cs,
                                    const AffineMap& map, EvalContext& ctx,
                                    const VerifyOptions& opts = {});

/// verify(...).ok without the report: short-circuits at the first
/// violation of any enabled check and builds no diagnostics, which is
/// what the search inner loop wants — rejected candidates are the
/// common case there and their reports were discarded unread.  Honors
/// opts.check_storage / check_bandwidth exactly as verify() does;
/// always agrees with verify(...).ok on the same (cs, map, opts).
[[nodiscard]] bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
                             EvalContext& ctx,
                             const VerifyOptions& opts = {});

// --- TableMap (per-op) overloads --------------------------------------
// The same oracles over a per-op placement table (strategy/table_map.hpp)
// spanning every segment — one body with the AffineMap overloads, so the
// two agree on every field for table_from_affine(cs, map).  The table's
// per-value input homes override the compiled home_pe (a move may
// re-home a PE-resident value); DRAM/PE kinds never change.  The table
// must match the compiled spec: num_points ops, num_input_values homes.
struct TableMap;

[[nodiscard]] CostReport evaluate_cost(const CompiledSpec& cs,
                                       const TableMap& tm, EvalContext& ctx);

[[nodiscard]] LegalityReport verify(const CompiledSpec& cs,
                                    const TableMap& tm, EvalContext& ctx,
                                    const VerifyOptions& opts = {});

[[nodiscard]] bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
                             EvalContext& ctx,
                             const VerifyOptions& opts = {});

/// Recompute-instead-of-communicate analysis (fm/recompute.hpp) of the
/// table: every remote computed-operand edge, priced move vs. depth-1
/// recompute at the consumer.
[[nodiscard]] RecomputeReport recompute_report(const CompiledSpec& cs,
                                               const TableMap& tm);

}  // namespace harmony::fm
