#include "fm/strategy/table_map.hpp"

#include <unordered_map>
#include <utility>

#include "fm/compiled.hpp"
#include "support/error.hpp"

namespace harmony::fm {

namespace {

/// The TableMap shell of `cs`: target/domain of the first segment, one
/// (pe, cycle) slot per compiled point, and the input ordinals'
/// exemplar references.  Input ordinals are dense and first-seen in deps
/// order (compile_spec's try_emplace), so one pass over the flat edges
/// recovers each ordinal's exemplar; `home(d)` supplies its home PE.
template <typename Home>
TableMap table_shell(const CompiledSpec& cs, Home&& home) {
  TableMap tm;
  tm.target = cs.target;
  if (!cs.segments.empty()) tm.domain = cs.segments.front().domain;
  tm.cols = cs.cols;
  tm.rows = cs.rows;
  tm.pe.resize(static_cast<std::size_t>(cs.num_points));
  tm.cycle.resize(static_cast<std::size_t>(cs.num_points));
  tm.input_home.assign(cs.num_input_values, -1);
  tm.input_refs.resize(cs.num_input_values);
  std::vector<char> seen(cs.num_input_values, 0);
  for (const CompiledDep& d : cs.deps) {
    if (d.kind == CompiledDep::kComputed) continue;
    if (seen[d.input_ord] != 0) continue;
    seen[d.input_ord] = 1;
    tm.input_refs[d.input_ord] = TableMap::InputRef{d.tensor, d.point()};
    if (d.kind == CompiledDep::kInputPe) tm.input_home[d.input_ord] = home(d);
  }
  return tm;
}

}  // namespace

TableMap table_from_affine(const CompiledSpec& cs, const AffineMap& map) {
  const CompiledSegment& seg = cs.single("table_from_affine");
  TableMap tm = table_shell(cs, [](const CompiledDep& d) { return d.home_pe; });
  std::int64_t lin = 0;
  seg.domain.for_each([&](const Point& p) {
    const auto v = static_cast<std::size_t>(lin++);
    tm.pe[v] = static_cast<std::int32_t>(cs.pe_index(map.place(p)));
    tm.cycle[v] = map.time(p);
  });
  return tm;
}

TableMap table_from_mapping(const CompiledSpec& cs, const Mapping& m) {
  // Homes are read from the mapping instead of the compiled snapshot; the
  // compiled kind stays authoritative for DRAM-vs-PE (it came from the
  // same input proto).  geom.index() bounds-checks every place.
  TableMap tm = table_shell(cs, [&](const CompiledDep& d) {
    const InputHome& home = m.input_home(d.tensor);
    return home.kind == InputHome::Kind::kDram
               ? d.home_pe
               : static_cast<std::int32_t>(
                     cs.geom.index(home.home_of(d.point())));
  });
  for (const CompiledSegment& seg : cs.segments) {
    auto v = static_cast<std::size_t>(seg.first);
    seg.domain.for_each([&](const Point& p) {
      tm.pe[v] = static_cast<std::int32_t>(cs.geom.index(m.place(seg.tensor, p)));
      tm.cycle[v] = m.time(seg.tensor, p);
      ++v;
    });
  }
  return tm;
}

Mapping to_mapping(const FunctionSpec& spec, const TableMap& tm) {
  HARMONY_REQUIRE(tm.target >= 0 && tm.pe.size() == tm.cycle.size() &&
                      static_cast<std::int64_t>(tm.pe.size()) ==
                          tm.domain.size(),
                  "to_mapping: malformed TableMap");
  Mapping m;
  // The closures share one immutable snapshot of the table; the Mapping
  // stays valid after the TableMap that built it mutates or dies.
  auto shared = std::make_shared<const TableMap>(tm);
  m.set_computed(
      tm.target,
      [shared](const Point& p) {
        return shared->coord_of(shared->domain.linearize(p));
      },
      [shared](const Point& p) {
        return shared->cycle[static_cast<std::size_t>(
            shared->domain.linearize(p))];
      });

  // Group the per-ordinal homes by tensor.  A tensor's ordinals are all
  // DRAM or all PE-homed (the kind is fixed per tensor at compile time).
  std::unordered_map<TensorId, std::shared_ptr<
                                   std::unordered_map<std::int64_t, noc::Coord>>>
      homes;
  for (std::size_t ord = 0; ord < tm.input_refs.size(); ++ord) {
    const TableMap::InputRef& ref = tm.input_refs[ord];
    if (ref.tensor < 0 || tm.input_home[ord] < 0) continue;
    auto& table = homes[ref.tensor];
    if (table == nullptr) {
      table =
          std::make_shared<std::unordered_map<std::int64_t, noc::Coord>>();
    }
    const std::int32_t q = tm.input_home[ord];
    (*table)[spec.domain(ref.tensor).linearize(ref.point)] =
        noc::Coord{q % tm.cols, q / tm.cols};
  }
  for (TensorId in : spec.input_tensors()) {
    const auto it = homes.find(in);
    if (it == homes.end()) {
      m.set_input(in, InputHome::dram());
      continue;
    }
    const IndexDomain dom = spec.domain(in);
    m.set_input(in, InputHome::distributed(
                        [table = it->second, dom](const Point& p) {
                          const auto f = table->find(dom.linearize(p));
                          return f == table->end() ? noc::Coord{0, 0}
                                                   : f->second;
                        }));
  }
  return m;
}

}  // namespace harmony::fm
