#include "fm/lower.hpp"

#include <algorithm>
#include <map>

#include "support/error.hpp"

namespace harmony::fm {

std::size_t HardwareSpec::active_pes() const {
  std::size_t n = 0;
  for (const PeSpec& pe : pes) {
    if (pe.is_active()) ++n;
  }
  return n;
}

Area HardwareSpec::estimated_area() const {
  // Rough 5 nm-class constants: a 32-bit integer ALU ~ 250 um^2, a 32-bit
  // register ~ 15 um^2, router port ~ 100 um^2.  Only the *shape* of the
  // comparison (fixed-function array vs programmable core) uses these.
  constexpr double kAluUm2 = 250.0;
  constexpr double kRegUm2PerValue = 15.0;
  constexpr double kPortUm2 = 100.0;
  double um2 = 0.0;
  for (const PeSpec& pe : pes) {
    if (!pe.is_active()) continue;
    um2 += kAluUm2;
    um2 += kRegUm2PerValue * static_cast<double>(pe.registers);
    for (std::uint64_t bits : pe.port_bits) {
      if (bits > 0) um2 += kPortUm2;
    }
    if (pe.has_dram_port) um2 += kPortUm2;
  }
  return Area::mm2(um2 * 1e-6);
}

void HardwareSpec::emit_verilog(std::ostream& os) const {
  os << "// Structural skeleton lowered mechanically from (function, "
        "mapping).\n";
  os << "// Array: " << cols << " x " << rows << ", schedule length "
     << schedule_length << " cycles.\n";
  // Deduplicate PE shapes into module classes.
  struct Shape {
    std::size_t max_bits;
    std::int64_t registers;
    std::array<std::uint64_t, 4> ports;
    bool dram;
    auto operator<=>(const Shape&) const = default;
  };
  std::map<Shape, std::vector<noc::Coord>> classes;
  for (const PeSpec& pe : pes) {
    if (!pe.is_active()) continue;
    std::array<std::uint64_t, 4> port_flags{};
    for (int d = 0; d < 4; ++d) {
      port_flags[static_cast<std::size_t>(d)] =
          pe.port_bits[static_cast<std::size_t>(d)] > 0 ? 1 : 0;
    }
    classes[Shape{pe.max_bits, pe.registers, port_flags,
                  pe.has_dram_port}].push_back(pe.at);
  }
  static constexpr const char* kDirNames[4] = {"east", "west", "north",
                                               "south"};
  int cls = 0;
  for (const auto& [shape, members] : classes) {
    os << "\nmodule " << name << "_pe_c" << cls << " (\n";
    os << "  input  wire clk,\n  input  wire rst_n";
    for (int d = 0; d < 4; ++d) {
      if (!shape.ports[static_cast<std::size_t>(d)]) continue;
      os << ",\n  output wire [" << shape.max_bits - 1 << ":0] "
         << kDirNames[d] << "_out";
      os << ",\n  input  wire [" << shape.max_bits - 1 << ":0] "
         << kDirNames[d] << "_in";
    }
    if (shape.dram) {
      os << ",\n  output wire [" << shape.max_bits - 1
         << ":0] dram_rdata  // via edge controller";
    }
    os << "\n);\n";
    os << "  // datapath: 1 ALU (" << shape.max_bits << "-bit), "
       << shape.registers << "-entry operand register file\n";
    os << "  reg [" << shape.max_bits - 1 << ":0] rf [0:"
       << std::max<std::int64_t>(0, shape.registers - 1) << "];\n";
    os << "endmodule  // " << members.size() << " instance(s)\n";
    ++cls;
  }
  os << "\nmodule " << name << "_top (input wire clk, input wire rst_n);\n";
  cls = 0;
  for (const auto& [shape, members] : classes) {
    (void)shape;
    for (const noc::Coord& c : members) {
      os << "  " << name << "_pe_c" << cls << " pe_x" << c.x << "_y" << c.y
         << " (.clk(clk), .rst_n(rst_n) /* mesh ports routed by tool */);\n";
    }
    ++cls;
  }
  os << "endmodule\n";
}

namespace {

/// Charges `bits` to the outgoing port of every node along the XY route
/// from `src` to `dst` (ports: 0=E, 1=W, 2=N, 3=S).
void route_ports(HardwareSpec& hw, const MachineConfig& machine,
                 noc::Coord src, noc::Coord dst, std::size_t bits) {
  machine.geom.for_each_route_link(src, dst, [&](std::size_t link) {
    hw.pes[link / noc::GridGeometry::kLinksPerNode]
        .port_bits[link % noc::GridGeometry::kLinksPerNode] += bits;
  });
}

}  // namespace

HardwareSpec lower(const FunctionSpec& spec, const Mapping& mapping,
                   const MachineConfig& machine, std::string name) {
  mapping.require_complete(spec);
  HardwareSpec hw;
  hw.name = std::move(name);
  hw.cols = machine.geom.cols();
  hw.rows = machine.geom.rows();
  hw.pes.resize(static_cast<std::size_t>(machine.geom.num_nodes()));
  for (std::size_t i = 0; i < hw.pes.size(); ++i) {
    hw.pes[i].at = machine.geom.coord(i);
  }

  // Peak-register tracking per PE via def/last-use sweep (same convention
  // as the legality checker's storage rule).
  const auto total = static_cast<std::size_t>(spec.total_values());
  std::vector<Cycle> def_time(total, -1);
  std::vector<Cycle> last_use(total, -1);
  std::vector<std::int32_t> owner(total, -1);

  for (TensorId t : spec.computed_tensors()) {
    const IndexDomain& dom = spec.domain(t);
    const std::size_t bits = spec.bits(t);
    dom.for_each([&](const Point& p) {
      const noc::Coord here = mapping.place(t, p);
      PeSpec& pe = hw.pes[machine.geom.index(here)];
      ++pe.ops;
      pe.max_bits = std::max(pe.max_bits, bits);
      const Cycle when = mapping.time(t, p);
      hw.schedule_length = std::max(hw.schedule_length, when + 1);

      const auto vi = static_cast<std::size_t>(
          spec.value_index(ValueRef{t, p}));
      def_time[vi] = when;
      last_use[vi] = std::max(last_use[vi], when);
      owner[vi] = static_cast<std::int32_t>(machine.geom.index(here));

      for (const ValueRef& d : spec.deps(t, p)) {
        if (spec.is_input(d.tensor)) {
          const InputHome& home = mapping.input_home(d.tensor);
          if (home.kind == InputHome::Kind::kDram) {
            pe.has_dram_port = true;
          } else if (!(home.home_of(d.point) == here)) {
            route_ports(hw, machine, home.home_of(d.point), here, bits);
          }
          continue;
        }
        const auto di = static_cast<std::size_t>(spec.value_index(d));
        last_use[di] = std::max(last_use[di], when);
        const noc::Coord there = mapping.place(d.tensor, d.point);
        if (!(there == here)) route_ports(hw, machine, there, here, bits);
      }
    });
  }

  // Register sweep.
  struct Event {
    std::int32_t pe;
    Cycle cycle;
    std::int32_t delta;
  };
  std::vector<Event> events;
  for (std::size_t v = 0; v < total; ++v) {
    if (def_time[v] < 0) continue;
    events.push_back({owner[v], def_time[v], +1});
    events.push_back({owner[v], last_use[v] + 1, -1});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.pe != b.pe) return a.pe < b.pe;
    if (a.cycle != b.cycle) return a.cycle < b.cycle;
    return a.delta < b.delta;
  });
  std::int64_t live = 0;
  std::int32_t cur = -1;
  for (const Event& e : events) {
    if (e.pe != cur) {
      cur = e.pe;
      live = 0;
    }
    live += e.delta;
    PeSpec& pe = hw.pes[static_cast<std::size_t>(e.pe)];
    pe.registers = std::max(pe.registers, live);
  }
  return hw;
}

}  // namespace harmony::fm
