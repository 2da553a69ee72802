/**
 * @file
 * Tests for NoC geometry and routing: neighbor relations, wrap-around,
 * dimension-ordered routes, hop counts, ruche decomposition, wire
 * lengths and the ring-entry (bubble) classification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <tuple>
#include <utility>

#include "noc/topology.hh"

namespace dalorex
{
namespace
{

TEST(Topology, MeshNeighbors)
{
    const Topology t(NocTopology::mesh, 4, 4);
    EXPECT_EQ(t.neighbor(t.tileAt(1, 1), portEast), t.tileAt(2, 1));
    EXPECT_EQ(t.neighbor(t.tileAt(1, 1), portWest), t.tileAt(0, 1));
    EXPECT_EQ(t.neighbor(t.tileAt(1, 1), portNorth), t.tileAt(1, 0));
    EXPECT_EQ(t.neighbor(t.tileAt(1, 1), portSouth), t.tileAt(1, 2));
}

TEST(Topology, MeshEdgeHasNoOutwardNeighbor)
{
    const Topology t(NocTopology::mesh, 4, 4);
    EXPECT_FALSE(t.hasNeighbor(t.tileAt(0, 0), portWest));
    EXPECT_FALSE(t.hasNeighbor(t.tileAt(0, 0), portNorth));
    EXPECT_TRUE(t.hasNeighbor(t.tileAt(0, 0), portEast));
    EXPECT_FALSE(t.hasNeighbor(t.tileAt(3, 3), portEast));
    EXPECT_FALSE(t.hasNeighbor(t.tileAt(3, 3), portSouth));
}

TEST(Topology, TorusWrapsAround)
{
    const Topology t(NocTopology::torus, 4, 4);
    EXPECT_EQ(t.neighbor(t.tileAt(3, 2), portEast), t.tileAt(0, 2));
    EXPECT_EQ(t.neighbor(t.tileAt(0, 2), portWest), t.tileAt(3, 2));
    EXPECT_EQ(t.neighbor(t.tileAt(2, 0), portNorth), t.tileAt(2, 3));
    EXPECT_EQ(t.neighbor(t.tileAt(2, 3), portSouth), t.tileAt(2, 0));
}

TEST(Topology, OppositePortsPair)
{
    EXPECT_EQ(Topology::oppositePort(portEast), portWest);
    EXPECT_EQ(Topology::oppositePort(portNorth), portSouth);
    EXPECT_EQ(Topology::oppositePort(portRucheEast), portRucheWest);
    EXPECT_EQ(Topology::oppositePort(portRucheSouth),
              portRucheNorth);
}

TEST(Topology, NeighborRelationIsSymmetric)
{
    for (const NocTopology type :
         {NocTopology::mesh, NocTopology::torus,
          NocTopology::torusRuche}) {
        const Topology t(type, 8, 8,
                         type == NocTopology::torusRuche ? 2 : 0);
        for (TileId id = 0; id < t.numTiles(); ++id) {
            for (unsigned p = portEast; p < numPorts; ++p) {
                const auto port = static_cast<Port>(p);
                if (!t.hasNeighbor(id, port))
                    continue;
                const TileId other = t.neighbor(id, port);
                EXPECT_EQ(
                    t.neighbor(other, Topology::oppositePort(port)),
                    id);
            }
        }
    }
}

TEST(Topology, RouteSelfIsLocal)
{
    const Topology t(NocTopology::torus, 4, 4);
    for (TileId id = 0; id < t.numTiles(); ++id)
        EXPECT_EQ(t.route(id, id), portLocal);
}

TEST(Topology, RouteIsDimensionOrderedXFirst)
{
    const Topology t(NocTopology::mesh, 8, 8);
    // (1,1) -> (5,6): X first.
    EXPECT_EQ(t.route(t.tileAt(1, 1), t.tileAt(5, 6)), portEast);
    // Same column: Y moves.
    EXPECT_EQ(t.route(t.tileAt(5, 1), t.tileAt(5, 6)), portSouth);
}

TEST(Topology, TorusPicksShorterWrap)
{
    const Topology t(NocTopology::torus, 8, 8);
    // (0,0) -> (6,0): wrap west (distance 2) beats east (6).
    EXPECT_EQ(t.route(t.tileAt(0, 0), t.tileAt(6, 0)), portWest);
    // (0,0) -> (3,0): straight east.
    EXPECT_EQ(t.route(t.tileAt(0, 0), t.tileAt(3, 0)), portEast);
}

// Square, wide, one-tile-wide and one-tile-high grids: every
// displacement a route can see, including the edges of a grid with a
// single column or row.
constexpr std::array<std::pair<std::uint32_t, std::uint32_t>, 4>
    hopGrids{{{8, 8}, {7, 3}, {1, 7}, {7, 1}}};

/**
 * Check hopCount over every (source, destination) pair of each grid
 * against `expected(dx, dy, width, height)`, the signed displacement
 * being destination minus source.
 */
template <typename Expected>
void
checkEveryHopCount(NocTopology type, Expected expected)
{
    for (const auto& [width, height] : hopGrids) {
        const Topology t(type, width, height);
        for (TileId src = 0; src < t.numTiles(); ++src) {
            for (TileId dst = 0; dst < t.numTiles(); ++dst) {
                const auto dx = static_cast<std::int32_t>(t.tileX(dst)) -
                                static_cast<std::int32_t>(t.tileX(src));
                const auto dy = static_cast<std::int32_t>(t.tileY(dst)) -
                                static_cast<std::int32_t>(t.tileY(src));
                EXPECT_EQ(t.hopCount(src, dst),
                          expected(dx, dy, width, height))
                    << toString(type) << " " << width << "x" << height
                    << " " << src << "->" << dst;
            }
        }
    }
}

TEST(Topology, MeshHopCountIsManhattan)
{
    checkEveryHopCount(NocTopology::mesh,
                       [](std::int32_t dx, std::int32_t dy,
                          std::uint32_t, std::uint32_t) {
                           return static_cast<std::uint32_t>(
                               std::abs(dx) + std::abs(dy));
                       });
}

TEST(Topology, TorusHopCountUsesWrap)
{
    // Each dimension takes the shorter way around its ring.
    auto ring = [](std::int32_t d, std::uint32_t size) {
        const auto mag = static_cast<std::uint32_t>(std::abs(d));
        return std::min(mag, size - mag);
    };
    checkEveryHopCount(NocTopology::torus,
                       [&](std::int32_t dx, std::int32_t dy,
                           std::uint32_t width, std::uint32_t height) {
                           return ring(dx, width) + ring(dy, height);
                       });
}

TEST(Topology, RucheReducesHops)
{
    const Topology plain(NocTopology::torus, 16, 16);
    const Topology ruche(NocTopology::torusRuche, 16, 16, 4);
    // Distance 7 in X: plain needs 7 hops; ruche 4+1+1+1 = 4 hops
    // (one ruche hop of 4 plus three unit hops).
    EXPECT_EQ(plain.hopCount(0, 7), 7u);
    EXPECT_EQ(ruche.hopCount(0, 7), 4u);
}

TEST(Topology, RucheRoutesTakeLongLinksFirst)
{
    const Topology t(NocTopology::torusRuche, 16, 16, 4);
    EXPECT_EQ(t.route(t.tileAt(0, 0), t.tileAt(7, 0)),
              portRucheEast);
    EXPECT_EQ(t.route(t.tileAt(4, 0), t.tileAt(7, 0)), portEast);
}

TEST(Topology, EveryRouteTerminates)
{
    // The 1x16 and 16x2 ruche-3 grids each use the ruche ports of one
    // dimension only.
    const std::tuple<NocTopology, std::uint32_t, std::uint32_t,
                     std::uint32_t>
        grids[] = {{NocTopology::mesh, 6, 5, 0},
                   {NocTopology::torus, 6, 5, 0},
                   {NocTopology::torusRuche, 6, 5, 2},
                   {NocTopology::torusRuche, 1, 16, 3},
                   {NocTopology::torusRuche, 16, 2, 3}};
    for (const auto& [type, width, height, ruche] : grids) {
        const Topology t(type, width, height, ruche);
        for (TileId src = 0; src < t.numTiles(); ++src)
            for (TileId dst = 0; dst < t.numTiles(); ++dst)
                EXPECT_LT(t.hopCount(src, dst), 12u)
                    << toString(type) << " " << width << "x" << height
                    << " " << src << "->" << dst;
    }
}

TEST(Topology, WireLengths)
{
    const Topology mesh(NocTopology::mesh, 8, 8);
    const Topology torus(NocTopology::torus, 8, 8);
    const Topology ruche(NocTopology::torusRuche, 8, 8, 3);
    EXPECT_EQ(mesh.hopWireTiles(portEast), 1u);
    // Folded-torus wiring doubles neighbor wire length (Sec. III-F).
    EXPECT_EQ(torus.hopWireTiles(portEast), 2u);
    EXPECT_EQ(ruche.hopWireTiles(portRucheEast), 3u);
    EXPECT_EQ(torus.hopWireTiles(portLocal), 0u);
}

TEST(Topology, RingEntryNeedsBubble)
{
    const Topology t(NocTopology::torus, 8, 8);
    // Injection enters a ring.
    EXPECT_TRUE(t.entersRing(portLocal, portEast));
    // Turning X -> Y enters the Y ring.
    EXPECT_TRUE(t.entersRing(portWest, portSouth));
    // Continuing east (in from the west side) stays inside the ring.
    EXPECT_FALSE(t.entersRing(portWest, portEast));
    EXPECT_FALSE(t.entersRing(portNorth, portSouth));
}

TEST(Topology, MeshNeverNeedsBubble)
{
    const Topology t(NocTopology::mesh, 8, 8);
    EXPECT_FALSE(t.entersRing(portLocal, portEast));
    EXPECT_FALSE(t.entersRing(portWest, portSouth));
}

TEST(Topology, RucheLinkChangeIsRingEntry)
{
    const Topology t(NocTopology::torusRuche, 16, 16, 4);
    // Switching from the ruche ring to the unit ring (or back)
    // enters a different physical ring.
    EXPECT_TRUE(t.entersRing(portRucheWest, portEast));
    EXPECT_FALSE(t.entersRing(portRucheWest, portRucheEast));
}

TEST(Topology, DegenerateGridsRejected)
{
    EXPECT_DEATH(Topology(NocTopology::mesh, 0, 4), "degenerate");
    EXPECT_DEATH(Topology(NocTopology::torusRuche, 8, 8, 1),
                 "ruche");
    EXPECT_DEATH(Topology(NocTopology::torusRuche, 4, 4, 5),
                 "ruche");
}

} // namespace
} // namespace dalorex
