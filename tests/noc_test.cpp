// Tests for the technology model and the mesh network (src/noc) —
// including the paper's headline ratios as pinned constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "noc/mesh.hpp"
#include "noc/tech.hpp"

namespace harmony::noc {
namespace {

TEST(Tech, PaperConstantsAsPublished) {
  const TechnologyModel t = TechnologyModel::n5();
  // "an add costs about 0.5fJ/bit and a 32-bit add takes about 200ps"
  EXPECT_DOUBLE_EQ(t.op_energy(32).femtojoules(), 16.0);
  EXPECT_DOUBLE_EQ(t.op_delay(32).picoseconds(), 200.0);
  // "on-chip communication costs 80fJ/bit-mm and 1mm takes about 800ps"
  EXPECT_DOUBLE_EQ(
      t.move_energy(1, Length::millimetres(1.0)).femtojoules(), 80.0);
  EXPECT_DOUBLE_EQ(t.move_delay(Length::millimetres(1.0)).picoseconds(),
                   800.0);
}

TEST(Tech, HeadlineRatio160xPerMm) {
  const TechnologyModel t = TechnologyModel::n5();
  // "Transporting the result of an add 1mm costs 160x as much as
  //  performing the add."
  EXPECT_DOUBLE_EQ(t.ratio_move_over_add(Length::millimetres(1.0)), 160.0);
}

TEST(Tech, HeadlineRatioAcross800mm2Die) {
  const TechnologyModel t = TechnologyModel::n5();
  // "Sending it across the diagonal of an 800mm2 GPU costs 4500x."
  // (sqrt(800) mm = 28.28 mm; 160 * 28.28 = 4525.)
  const double r = t.ratio_move_over_add(t.die.side());
  EXPECT_NEAR(r, 4500.0, 50.0);
}

TEST(Tech, HeadlineRatioOffChip) {
  const TechnologyModel t = TechnologyModel::n5();
  // "the off-chip access is 50,000x more expensive" (order of magnitude
  // above the die crossing: 10 * 4525 = 45,254).
  const double r = t.ratio_offchip_over_add();
  EXPECT_GT(r, 40000.0);
  EXPECT_LT(r, 55000.0);
}

TEST(Tech, InstructionOverheadFactor) {
  const TechnologyModel t = TechnologyModel::n5();
  // "The energy overhead of an ADD instruction is 10,000x times more
  //  than the energy required to do the add."
  EXPECT_DOUBLE_EQ(t.cpu_instruction_energy(32) / t.op_energy(32), 10000.0);
}

TEST(Tech, OpDelayScalesGentlyWithWidth) {
  const TechnologyModel t = TechnologyModel::n5();
  EXPECT_LT(t.op_delay(8).picoseconds(), 200.0);
  EXPECT_GT(t.op_delay(64).picoseconds(), 200.0);
  EXPECT_LT(t.op_delay(64).picoseconds(), 300.0);  // log, not linear
}

TEST(Geometry, IndexCoordRoundTrip) {
  GridGeometry g(5, 3, Length::millimetres(0.2));
  for (int i = 0; i < g.num_nodes(); ++i) {
    EXPECT_EQ(static_cast<int>(g.index(g.coord(static_cast<std::size_t>(i)))),
              i);
  }
  EXPECT_FALSE(g.contains({5, 0}));
  EXPECT_FALSE(g.contains({0, 3}));
  EXPECT_FALSE(g.contains({-1, 0}));
}

TEST(Geometry, ManhattanDistances) {
  GridGeometry g(8, 8, Length::millimetres(0.5));
  EXPECT_EQ(g.hops({0, 0}, {3, 4}), 7);
  EXPECT_DOUBLE_EQ(g.distance({0, 0}, {3, 4}).millimetres(), 3.5);
  EXPECT_EQ(g.hops({2, 2}, {2, 2}), 0);
}

TEST(Geometry, TransferCostsMatchTech) {
  GridGeometry g(8, 8, Length::millimetres(1.0));
  // 32 bits over 1 hop of 1mm: 32 * 80 fJ.
  EXPECT_DOUBLE_EQ(g.transfer_energy(32, {0, 0}, {1, 0}).femtojoules(),
                   32.0 * 80.0);
  EXPECT_DOUBLE_EQ(g.transfer_latency({0, 0}, {1, 0}).picoseconds(), 800.0);
  EXPECT_DOUBLE_EQ(g.transfer_energy(32, {2, 2}, {2, 2}).femtojoules(), 0.0);
}

TEST(Geometry, DramCostsIncludeOffchipPenalty) {
  GridGeometry g(8, 8, Length::millimetres(0.2));
  const Energy near = g.dram_access_energy(32, {0, 0});
  const Energy far = g.dram_access_energy(32, {7, 0});
  EXPECT_GT(far.femtojoules(), near.femtojoules());
  // Both dominated by the off-chip term.
  EXPECT_GT(near / g.tech().op_energy(32), 10000.0);
  EXPECT_GT(g.dram_access_latency(32, {0, 0}).picoseconds(), 20000.0);
}

TEST(Torus, WrapShortensLongAxes) {
  GridGeometry mesh(8, 1, Length::millimetres(0.2));
  GridGeometry torus(8, 1, Length::millimetres(0.2),
                     TechnologyModel::n5(), Topology::kTorus);
  EXPECT_EQ(mesh.hops({0, 0}, {7, 0}), 7);
  EXPECT_EQ(torus.hops({0, 0}, {7, 0}), 1);  // wrap
  EXPECT_EQ(torus.hops({0, 0}, {4, 0}), 4);  // tie goes forward
  EXPECT_EQ(torus.hops({0, 0}, {5, 0}), 3);  // backward shorter
  EXPECT_EQ(torus.hops({2, 0}, {2, 0}), 0);
}

TEST(Torus, NextHopWalksTheWrapRoute) {
  GridGeometry torus(6, 6, Length::millimetres(0.2),
                     TechnologyModel::n5(), Topology::kTorus);
  // 0 -> 5 should go west through the wrap (1 hop).
  EXPECT_EQ(torus.next_hop({0, 0}, {5, 0}), (Coord{5, 0}));
  // Walk any pair fully: step count must equal hops().
  for (int sx = 0; sx < 6; ++sx) {
    for (int dx = 0; dx < 6; ++dx) {
      for (int dy = 0; dy < 6; ++dy) {
        Coord at{sx, 0};
        const Coord dst{dx, dy};
        int steps = 0;
        while (!(at == dst)) {
          at = torus.next_hop(at, dst);
          ++steps;
          ASSERT_LE(steps, 12);
        }
        ASSERT_EQ(steps, torus.hops({sx, 0}, dst))
            << sx << "->" << dx << "," << dy;
      }
    }
  }
}

TEST(Torus, MeshNextHopMatchesHopsToo) {
  GridGeometry mesh(5, 4, Length::millimetres(0.2));
  for (int s = 0; s < mesh.num_nodes(); ++s) {
    for (int d = 0; d < mesh.num_nodes(); ++d) {
      Coord at = mesh.coord(static_cast<std::size_t>(s));
      const Coord dst = mesh.coord(static_cast<std::size_t>(d));
      int steps = 0;
      while (!(at == dst)) {
        at = mesh.next_hop(at, dst);
        ++steps;
        ASSERT_LE(steps, 16);
      }
      ASSERT_EQ(steps, mesh.hops(mesh.coord(static_cast<std::size_t>(s)),
                                 dst));
    }
  }
}

TEST(Topology, DiameterAndBisection) {
  GridGeometry mesh(8, 8, Length::millimetres(0.2));
  GridGeometry torus(8, 8, Length::millimetres(0.2),
                     TechnologyModel::n5(), Topology::kTorus);
  EXPECT_EQ(mesh.diameter_hops(), 14);
  EXPECT_EQ(torus.diameter_hops(), 8);
  EXPECT_EQ(mesh.bisection_links(), 16);
  EXPECT_EQ(torus.bisection_links(), 32);
  // Diameter is an upper bound on every routed distance.
  for (int s = 0; s < mesh.num_nodes(); s += 7) {
    for (int d = 0; d < mesh.num_nodes(); d += 5) {
      const Coord a = mesh.coord(static_cast<std::size_t>(s));
      const Coord b = mesh.coord(static_cast<std::size_t>(d));
      EXPECT_LE(mesh.hops(a, b), mesh.diameter_hops());
      EXPECT_LE(torus.hops(a, b), torus.diameter_hops());
    }
  }
}

TEST(Torus, NetworkDeliversOverWrapLink) {
  GridGeometry torus(8, 1, Length::millimetres(1.0),
                     TechnologyModel::n5(), Topology::kTorus);
  MeshNetwork net(torus, 1.0);
  const auto d = net.send({0, 0}, {7, 0}, 64, Time::zero());
  EXPECT_EQ(d.hops, 1);
  EXPECT_DOUBLE_EQ(d.energy.femtojoules(), 64.0 * 80.0);
}

TEST(Mesh, UncontendedDeliveryTimeIsSerializationPlusWire) {
  GridGeometry g(4, 4, Length::millimetres(1.0));
  MeshNetwork net(g, /*link_bits_per_ps=*/1.0);
  const auto d = net.send({0, 0}, {2, 0}, 64, Time::zero());
  EXPECT_EQ(d.hops, 2);
  // Store-and-forward: 2 hops x (64 bits / 1 bit/ps + 800 ps wire).
  EXPECT_DOUBLE_EQ(d.arrival.picoseconds(), 2.0 * (64.0 + 800.0));
  EXPECT_DOUBLE_EQ(d.energy.femtojoules(), 64.0 * 80.0 * 2.0);
}

TEST(Mesh, XYRoutingHopCount) {
  GridGeometry g(4, 4, Length::millimetres(1.0));
  MeshNetwork net(g);
  EXPECT_EQ(net.send({0, 0}, {3, 3}, 8, Time::zero()).hops, 6);
  EXPECT_EQ(net.send({3, 3}, {0, 0}, 8, Time::zero()).hops, 6);
  EXPECT_EQ(net.send({1, 1}, {1, 1}, 8, Time::zero()).hops, 0);
}

TEST(Mesh, ContentionSerializesSharedLink) {
  GridGeometry g(4, 1, Length::millimetres(1.0));
  MeshNetwork net(g, 1.0);
  // Two messages cross link (0,0)->(1,0) at the same instant.
  const auto first = net.send({0, 0}, {1, 0}, 100, Time::zero());
  const auto second = net.send({0, 0}, {1, 0}, 100, Time::zero());
  EXPECT_DOUBLE_EQ(first.arrival.picoseconds(), 100.0 + 800.0);
  EXPECT_DOUBLE_EQ(second.arrival.picoseconds(), 2.0 * (100.0 + 800.0));
  EXPECT_EQ(net.max_link_bits(), 200u);
  EXPECT_DOUBLE_EQ(net.drain_time().picoseconds(),
                   second.arrival.picoseconds());
}

TEST(Mesh, DisjointPathsDoNotInterfere) {
  GridGeometry g(4, 4, Length::millimetres(1.0));
  MeshNetwork net(g, 1.0);
  const auto a = net.send({0, 0}, {1, 0}, 100, Time::zero());
  const auto b = net.send({0, 1}, {1, 1}, 100, Time::zero());
  EXPECT_DOUBLE_EQ(a.arrival.picoseconds(), b.arrival.picoseconds());
}

TEST(Mesh, StatsAccumulate) {
  GridGeometry g(4, 4, Length::millimetres(0.5));
  MeshNetwork net(g);
  net.send({0, 0}, {3, 0}, 32, Time::zero());
  net.send({0, 0}, {0, 3}, 32, Time::zero());
  EXPECT_EQ(net.messages_sent(), 2u);
  EXPECT_EQ(net.total_bit_hops(), 32u * 6u);
  EXPECT_GT(net.total_energy().femtojoules(), 0.0);
}

TEST(Mesh, RejectsOffGridEndpoints) {
  GridGeometry g(2, 2, Length::millimetres(0.5));
  MeshNetwork net(g);
  EXPECT_THROW(net.send({0, 0}, {5, 0}, 8, Time::zero()), InvalidArgument);
}

// --- Direction-decoding regressions ---------------------------------
// The old decoder compared coordinates modularly: on 1-column grids the
// east test was vacuously true (y-hops charged to east links), on
// 2-column / 2-row grids the +1 and -1 tests were both true (west
// decoded as east, south as north).  These pin the fix.

TEST(LinkDecodeRegression, SingleColumnYTrafficUsesNorthSouthLinks) {
  GridGeometry g(1, 4, Length::millimetres(1.0));
  MeshNetwork net(g, 1.0);
  const auto up = net.send({0, 0}, {0, 3}, 100, Time::zero());
  const auto down = net.send({0, 3}, {0, 0}, 100, Time::zero());
  // Opposing traffic rides disjoint directed links, so neither message
  // waits.  Pre-fix, both directions were charged to each node's east
  // link and the second message serialized behind the first at the two
  // shared interior nodes.
  EXPECT_DOUBLE_EQ(up.arrival.picoseconds(), 3.0 * (100.0 + 800.0));
  EXPECT_DOUBLE_EQ(down.arrival.picoseconds(), up.arrival.picoseconds());
  // Attribution: every hop on the correct link, nothing on east/west.
  for (int y = 0; y < 3; ++y) {
    EXPECT_EQ(net.link_bits({0, y}, MeshNetwork::kNorth), 100u) << y;
    EXPECT_EQ(net.link_bits({0, y + 1}, MeshNetwork::kSouth), 100u) << y;
  }
  for (int y = 0; y < 4; ++y) {
    EXPECT_EQ(net.link_bits({0, y}, MeshNetwork::kEast), 0u) << y;
    EXPECT_EQ(net.link_bits({0, y}, MeshNetwork::kWest), 0u) << y;
  }
}

TEST(LinkDecodeRegression, TwoColumnWestHopUsesWestLink) {
  for (const Topology topo : {Topology::kMesh, Topology::kTorus}) {
    GridGeometry g(2, 2, Length::millimetres(1.0), TechnologyModel::n5(),
                   topo);
    MeshNetwork net(g, 1.0);
    net.send({1, 0}, {0, 0}, 64, Time::zero());
    // Pre-fix, (x=1 -> x=0) satisfied the east test on a 2-column grid
    // ((1+1)%2 == 0) and was charged to node (1,0)'s east link.
    EXPECT_EQ(net.link_bits({1, 0}, MeshNetwork::kWest), 64u);
    EXPECT_EQ(net.link_bits({1, 0}, MeshNetwork::kEast), 0u);
  }
}

TEST(LinkDecodeRegression, TwoRowSouthHopUsesSouthLink) {
  GridGeometry g(2, 2, Length::millimetres(1.0));
  MeshNetwork net(g, 1.0);
  net.send({0, 1}, {0, 0}, 64, Time::zero());
  // Pre-fix, (y=1 -> y=0) satisfied the north test ((1+1)%2 == 0).
  EXPECT_EQ(net.link_bits({0, 1}, MeshNetwork::kSouth), 64u);
  EXPECT_EQ(net.link_bits({0, 1}, MeshNetwork::kNorth), 0u);
}

TEST(LinkDecodeRegression, TorusWrapHopsChargeTheWrapLink) {
  GridGeometry g(1, 4, Length::millimetres(1.0), TechnologyModel::n5(),
                 Topology::kTorus);
  MeshNetwork net(g, 1.0);
  // y = 3 -> y = 0 wraps north off the top edge (one hop).
  const auto d = net.send({0, 3}, {0, 0}, 64, Time::zero());
  EXPECT_EQ(d.hops, 1);
  EXPECT_EQ(net.link_bits({0, 3}, MeshNetwork::kNorth), 64u);
  EXPECT_EQ(net.link_bits({0, 3}, MeshNetwork::kEast), 0u);
  // y = 0 -> y = 3 wraps south off the bottom edge.
  net.send({0, 0}, {0, 3}, 32, Time::zero());
  EXPECT_EQ(net.link_bits({0, 0}, MeshNetwork::kSouth), 32u);
}

// --- axis_delta tie regression --------------------------------------

TEST(Torus, HalfwayTiesRouteTheIncreasingWayFromBothEnds) {
  // Extent 4, delta +/-2: both ways around are 2 hops.  The documented
  // rule is "ties go the increasing way"; pre-fix the decreasing
  // operand order returned the decreasing route, so a->b and b->a used
  // different physical links.
  GridGeometry torus(4, 1, Length::millimetres(0.2),
                     TechnologyModel::n5(), Topology::kTorus);
  EXPECT_EQ(torus.hops({0, 0}, {2, 0}), 2);
  EXPECT_EQ(torus.hops({2, 0}, {0, 0}), 2);
  // 0 -> 2: increasing, via x = 1.
  EXPECT_EQ(torus.next_hop({0, 0}, {2, 0}), (Coord{1, 0}));
  // 2 -> 0: still increasing (via x = 3 and the wrap), not back via 1.
  EXPECT_EQ(torus.next_hop({2, 0}, {0, 0}), (Coord{3, 0}));
  // Same rule on the y axis.
  GridGeometry tall(1, 4, Length::millimetres(0.2),
                    TechnologyModel::n5(), Topology::kTorus);
  EXPECT_EQ(tall.next_hop({0, 2}, {0, 0}), (Coord{0, 3}));
}

// --- Degenerate grids -----------------------------------------------

TEST(DegenerateGrid, SingleNodeGridIsClosedUnderEverything) {
  for (const Topology topo : {Topology::kMesh, Topology::kTorus}) {
    GridGeometry g(1, 1, Length::millimetres(0.5), TechnologyModel::n5(),
                   topo);
    EXPECT_EQ(g.num_nodes(), 1);
    EXPECT_EQ(g.hops({0, 0}, {0, 0}), 0);
    EXPECT_EQ(g.diameter_hops(), 0);
    MeshNetwork net(g, 1.0);
    const auto d = net.send({0, 0}, {0, 0}, 128, Time::picoseconds(5.0));
    EXPECT_EQ(d.hops, 0);
    EXPECT_DOUBLE_EQ(d.arrival.picoseconds(), 5.0);  // self-send is free
    EXPECT_DOUBLE_EQ(net.drain_time().picoseconds(), 0.0);
    EXPECT_EQ(net.max_link_bits(), 0u);
  }
}

TEST(DegenerateGrid, OneColumnMeshAndTorusGeometry) {
  GridGeometry mesh(1, 5, Length::millimetres(0.5));
  EXPECT_EQ(mesh.diameter_hops(), 4);
  GridGeometry torus(1, 4, Length::millimetres(0.5), TechnologyModel::n5(),
                     Topology::kTorus);
  EXPECT_EQ(torus.diameter_hops(), 2);
  // next_hop walks agree with hops() on every pair of both grids.
  for (const GridGeometry* g : {&mesh, &torus}) {
    for (int s = 0; s < g->num_nodes(); ++s) {
      for (int d = 0; d < g->num_nodes(); ++d) {
        Coord at = g->coord(static_cast<std::size_t>(s));
        const Coord dst = g->coord(static_cast<std::size_t>(d));
        int steps = 0;
        while (!(at == dst)) {
          at = g->next_hop(at, dst);
          ++steps;
          ASSERT_LE(steps, g->num_nodes());
        }
        ASSERT_EQ(steps, g->hops(g->coord(static_cast<std::size_t>(s)), dst));
      }
    }
  }
}

TEST(DegenerateGrid, OneColumnNetworkDrainAndHotSpot) {
  GridGeometry g(1, 4, Length::millimetres(1.0));
  MeshNetwork net(g, 1.0);
  const auto d = net.send({0, 0}, {0, 3}, 100, Time::zero());
  EXPECT_EQ(d.hops, 3);
  // Three distinct links each carried the message once.
  EXPECT_EQ(net.max_link_bits(), 100u);
  EXPECT_DOUBLE_EQ(net.drain_time().picoseconds(),
                   d.arrival.picoseconds());
  EXPECT_EQ(net.total_bit_hops(), 300u);
}

TEST(DegenerateGrid, TwoByTwoTorusBehavesLikeAMesh) {
  // With both extents 2, every wrap link duplicates a neighbour link;
  // the router treats extent <= 2 as mesh-like, so hops and routes
  // match the 2x2 mesh exactly.
  GridGeometry torus(2, 2, Length::millimetres(0.5), TechnologyModel::n5(),
                     Topology::kTorus);
  GridGeometry mesh(2, 2, Length::millimetres(0.5));
  EXPECT_EQ(torus.diameter_hops(), 2);
  for (int s = 0; s < 4; ++s) {
    for (int d = 0; d < 4; ++d) {
      const Coord a = torus.coord(static_cast<std::size_t>(s));
      const Coord b = torus.coord(static_cast<std::size_t>(d));
      EXPECT_EQ(torus.hops(a, b), mesh.hops(a, b));
      if (!(a == b)) EXPECT_EQ(torus.next_hop(a, b), mesh.next_hop(a, b));
    }
  }
  // X resolves before Y (dimension order).
  EXPECT_EQ(torus.next_hop({0, 0}, {1, 1}), (Coord{1, 0}));
  MeshNetwork net(torus, 1.0);
  const auto d = net.send({0, 0}, {1, 1}, 64, Time::zero());
  EXPECT_EQ(d.hops, 2);
  EXPECT_DOUBLE_EQ(net.drain_time().picoseconds(), d.arrival.picoseconds());
  EXPECT_EQ(net.max_link_bits(), 64u);
}

// The one route walk: on every pair of every thin mesh and torus (one-
// and two-wide axes are where modular neighbour tests go wrong), the
// link ids for_each_route_link charges are the hops next_hop takes,
// decoded independently here by the axis that moved and the sign of the
// step, and exactly the links MeshNetwork's ledger charges.
TEST(RouteWalk, LinkIdsAgreeWithNextHopAndMeshLedgerOnThinGrids) {
  const auto step_dir = [](int from, int to, int extent, int inc, int dec) {
    if (to == (from + 1) % extent && extent > 2) return inc;
    if (extent <= 2) return to > from ? inc : dec;
    return dec;
  };
  int grids = 0, pairs = 0;
  for (const Topology topo : {Topology::kMesh, Topology::kTorus}) {
    for (int r = 1; r <= 5; ++r) {
      for (const auto& [cols, rows] :
           {std::pair{1, r}, std::pair{2, r}, std::pair{r, 1},
            std::pair{r, 2}}) {
        const GridGeometry g(cols, rows, Length::millimetres(0.2), {}, topo);
        ++grids;
        for (int a = 0; a < g.num_nodes(); ++a) {
          for (int b = 0; b < g.num_nodes(); ++b) {
            const Coord src = g.coord(static_cast<std::size_t>(a));
            const Coord dst = g.coord(static_cast<std::size_t>(b));
            std::vector<std::size_t> walked;
            g.for_each_route_link(src, dst,
                                  [&](std::size_t l) { walked.push_back(l); });
            std::vector<std::size_t> expect;
            for (Coord at = src; !(at == dst);) {
              const Coord next = g.next_hop(at, dst);
              const int dir =
                  next.x != at.x
                      ? step_dir(at.x, next.x, cols, GridGeometry::kEast,
                                 GridGeometry::kWest)
                      : step_dir(at.y, next.y, rows, GridGeometry::kNorth,
                                 GridGeometry::kSouth);
              expect.push_back(g.index(at) * 4 + static_cast<std::size_t>(dir));
              at = next;
            }
            ASSERT_EQ(walked, expect)
                << cols << "x" << rows << " " << a << "->" << b;
            ASSERT_EQ(walked.size(), static_cast<std::size_t>(g.hops(src, dst)));

            MeshNetwork net(g);
            (void)net.send(src, dst, 8, Time::zero());
            std::size_t charged = 0;
            for (int q = 0; q < g.num_nodes(); ++q) {
              for (const MeshNetwork::Dir d :
                   {MeshNetwork::kEast, MeshNetwork::kWest, MeshNetwork::kNorth,
                    MeshNetwork::kSouth}) {
                const std::uint64_t bits =
                    net.link_bits(g.coord(static_cast<std::size_t>(q)), d);
                if (bits == 0) continue;
                const std::size_t id =
                    static_cast<std::size_t>(q) * 4 + static_cast<std::size_t>(d);
                EXPECT_NE(std::find(walked.begin(), walked.end(), id),
                          walked.end())
                    << cols << "x" << rows << " " << a << "->" << b;
                charged += bits / 8;
              }
            }
            EXPECT_EQ(charged, walked.size());
            ++pairs;
          }
        }
      }
    }
  }
  EXPECT_EQ(grids, 40);
  EXPECT_GT(pairs, 0);
}

}  // namespace
}  // namespace harmony::noc
