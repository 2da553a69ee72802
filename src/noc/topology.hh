/**
 * @file
 * NoC topology: port geometry, dimension-ordered routing and per-hop
 * wire lengths for 2D mesh, 2D torus and torus+ruche networks
 * (Sec. III-F).
 */

#ifndef DALOREX_NOC_TOPOLOGY_HH
#define DALOREX_NOC_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace dalorex
{

/** The three network types characterized in Fig. 8. */
enum class NocTopology
{
    mesh,       //!< 2D mesh, XY routing
    torus,      //!< 2D folded torus, bubble flow control on rings
    torusRuche, //!< torus plus ruche channels of a given factor
};

const char* toString(NocTopology topology);

/** Router ports. `local` faces the tile's TSU. */
enum Port : std::uint8_t
{
    portLocal = 0,
    portEast,
    portWest,
    portNorth,
    portSouth,
    portRucheEast,
    portRucheWest,
    portRucheNorth,
    portRucheSouth,
    numPorts,
};

/**
 * Geometry and routing for a width x height tile grid.
 *
 * Routing is dimension-ordered (X fully, then Y): deadlock-free on the
 * mesh by turn restriction and on torus rings via the bubble rule
 * enforced by the router. Ruche hops are taken while the remaining
 * distance in a dimension is at least the ruche factor.
 *
 * The port a route takes in one dimension depends only on the signed
 * displacement along it, so the constructor tabulates it once per
 * axis and `route` is two table reads: every hop of every message
 * asks for it.
 */
class Topology
{
  public:
    /**
     * @param topology     Network type.
     * @param width,height Grid dimensions (1 to 65535: coordinates
     *                     are tabulated in 16 bits).
     * @param ruche_factor Ruche hop distance (>= 2; only for
     *                     torusRuche).
     */
    Topology(NocTopology topology, std::uint32_t width,
             std::uint32_t height, std::uint32_t ruche_factor = 0);

    NocTopology type() const { return type_; }
    std::uint32_t width() const { return width_; }
    std::uint32_t height() const { return height_; }
    std::uint32_t numTiles() const { return width_ * height_; }
    std::uint32_t rucheFactor() const { return ruche_; }

    std::uint32_t tileX(TileId t) const { return t % width_; }
    std::uint32_t tileY(TileId t) const { return t / width_; }
    TileId
    tileAt(std::uint32_t x, std::uint32_t y) const
    {
        return y * width_ + x;
    }

    /** Whether this port exists in this topology. */
    bool portActive(Port port) const;

    /**
     * Whether `from` has a link through `port` (mesh edge routers
     * lack the outward-facing ports; wrapped topologies always link).
     */
    bool hasNeighbor(TileId from, Port port) const;

    /** The router reached by leaving `from` through `port`. */
    TileId neighbor(TileId from, Port port) const;

    /** The port on the receiving router paired with `out_port`. */
    static Port oppositePort(Port out_port);

    /**
     * Next output port for a message at router `here` heading to
     * `dest`. Returns portLocal when here == dest.
     */
    Port
    route(TileId here, TileId dest) const
    {
        panic_if(here >= numTiles() || dest >= numTiles(),
                 "route() outside grid");
        const Coord from = coords_[here];
        const Coord to = coords_[dest];
        // X first: its table holds portLocal only at displacement 0.
        const Port x_port = xPorts_[to.x + (width_ - 1) - from.x];
        if (x_port != portLocal)
            return x_port;
        return yPorts_[to.y + (height_ - 1) - from.y];
    }

    /** Number of router-to-router hops `route` takes from src to dst. */
    std::uint32_t hopCount(TileId src, TileId dst) const;

    /**
     * Physical wire length of a hop through `port` in units of tile
     * side length: 1 for mesh, 2 for folded-torus neighbor links, and
     * `rucheFactor` for ruche links.
     */
    std::uint32_t hopWireTiles(Port port) const;

    /**
     * Whether a move from `in_port` to `out_port` *enters* a ring (from
     * the tile or by turning dimensions) — such moves must obey the
     * bubble rule on torus topologies.
     */
    bool
    entersRing(Port in_port, Port out_port) const
    {
        // Injection from the tile, a turn into the other dimension,
        // or a switch between the unit-link ring and a ruche ring all
        // *enter* a physical ring and must leave a bubble behind. A
        // message continuing inside its ring arrives through the port
        // opposite its exit (e.g. in from the west, out to the east).
        // Each physical ring thus keeps at least one free slot, and
        // since dimension-ordered traffic is monotone around a ring,
        // progress is always possible.
        return type_ != NocTopology::mesh && out_port != portLocal &&
               in_port != oppositePort(out_port);
    }

  private:
    /** A tile's grid coordinates. */
    struct Coord
    {
        std::uint16_t x;
        std::uint16_t y;
    };

    /** Signed wrap-aware form of displacement `diff` along a
     *  dimension of `size` tiles. */
    std::int32_t delta(std::int32_t diff, std::uint32_t size) const;

    /**
     * The port dimension-ordered routing leaves through to cover a
     * grid displacement `diff` along X (`horizontal`) or Y, or
     * portLocal when `diff` is 0. Fills the port tables.
     */
    Port axisPort(std::int32_t diff, bool horizontal) const;

    NocTopology type_;
    std::uint32_t width_;
    std::uint32_t height_;
    std::uint32_t ruche_;
    /** coords_[tile]: the (x, y) of every tile. */
    std::vector<Coord> coords_;
    /** xPorts_[dx + width - 1] for destination-minus-source dx in
     *  [-(width - 1), width - 1]: axisPort(dx, true). Indexed by the
     *  displacement, not modulo the width, so the mesh (whose route
     *  depends on the sign) and the torus share one table shape. */
    std::vector<Port> xPorts_;
    /** yPorts_[dy + height - 1]: axisPort(dy, false). */
    std::vector<Port> yPorts_;
};

} // namespace dalorex

#endif // DALOREX_NOC_TOPOLOGY_HH
