#include "noc/topology.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace dalorex
{

const char*
toString(NocTopology topology)
{
    switch (topology) {
      case NocTopology::mesh:
        return "mesh";
      case NocTopology::torus:
        return "torus";
      case NocTopology::torusRuche:
        return "torus-ruche";
    }
    return "?";
}

Topology::Topology(NocTopology topology, std::uint32_t width,
                   std::uint32_t height, std::uint32_t ruche_factor)
    : type_(topology), width_(width), height_(height),
      ruche_(ruche_factor)
{
    fatal_if(width == 0 || height == 0, "degenerate grid ", width, "x",
             height);
    fatal_if(width > 65535 || height > 65535, "grid ", width, "x",
             height, " exceeds 16-bit coordinates");
    if (type_ == NocTopology::torusRuche) {
        fatal_if(ruche_ < 2, "ruche factor must be >= 2, got ", ruche_);
        fatal_if(ruche_ >= width_ && width_ > 1,
                 "ruche factor ", ruche_, " >= grid width ", width_);
    } else {
        ruche_ = 0;
    }

    coords_.resize(numTiles());
    for (TileId t = 0; t < numTiles(); ++t) {
        coords_[t] = {static_cast<std::uint16_t>(tileX(t)),
                      static_cast<std::uint16_t>(tileY(t))};
    }
    xPorts_.resize(2 * width_ - 1);
    for (std::uint32_t i = 0; i < xPorts_.size(); ++i) {
        xPorts_[i] = axisPort(static_cast<std::int32_t>(i) -
                                  static_cast<std::int32_t>(width_ - 1),
                              true);
    }
    yPorts_.resize(2 * height_ - 1);
    for (std::uint32_t i = 0; i < yPorts_.size(); ++i) {
        yPorts_[i] = axisPort(static_cast<std::int32_t>(i) -
                                  static_cast<std::int32_t>(height_ - 1),
                              false);
    }
}

bool
Topology::portActive(Port port) const
{
    switch (port) {
      case portLocal:
      case portEast:
      case portWest:
      case portNorth:
      case portSouth:
        return true;
      case portRucheEast:
      case portRucheWest:
        return type_ == NocTopology::torusRuche && width_ > ruche_;
      case portRucheNorth:
      case portRucheSouth:
        return type_ == NocTopology::torusRuche && height_ > ruche_;
      default:
        return false;
    }
}

bool
Topology::hasNeighbor(TileId from, Port port) const
{
    if (!portActive(port) || port == portLocal)
        return false;
    if (type_ != NocTopology::mesh)
        return true;
    const std::uint32_t x = tileX(from);
    const std::uint32_t y = tileY(from);
    switch (port) {
      case portEast:
        return x + 1 < width_;
      case portWest:
        return x > 0;
      case portNorth:
        return y > 0;
      case portSouth:
        return y + 1 < height_;
      default:
        return false; // no ruche on a mesh
    }
}

TileId
Topology::neighbor(TileId from, Port port) const
{
    const std::uint32_t x = tileX(from);
    const std::uint32_t y = tileY(from);
    const bool wrap = type_ != NocTopology::mesh;

    auto step = [&](std::uint32_t coord, std::int32_t dist,
                    std::uint32_t size) -> std::uint32_t {
        const auto signed_size = static_cast<std::int32_t>(size);
        std::int32_t next = static_cast<std::int32_t>(coord) + dist;
        if (wrap) {
            next = ((next % signed_size) + signed_size) % signed_size;
        } else {
            panic_if(next < 0 || next >= signed_size,
                     "mesh hop off the edge");
        }
        return static_cast<std::uint32_t>(next);
    };

    switch (port) {
      case portEast:
        return tileAt(step(x, 1, width_), y);
      case portWest:
        return tileAt(step(x, -1, width_), y);
      case portNorth:
        return tileAt(x, step(y, -1, height_));
      case portSouth:
        return tileAt(x, step(y, 1, height_));
      case portRucheEast:
        return tileAt(step(x, static_cast<std::int32_t>(ruche_),
                           width_), y);
      case portRucheWest:
        return tileAt(step(x, -static_cast<std::int32_t>(ruche_),
                           width_), y);
      case portRucheNorth:
        return tileAt(x, step(y, -static_cast<std::int32_t>(ruche_),
                              height_));
      case portRucheSouth:
        return tileAt(x, step(y, static_cast<std::int32_t>(ruche_),
                              height_));
      default:
        panic("neighbor() through port ", int(port));
    }
}

Port
Topology::oppositePort(Port out_port)
{
    switch (out_port) {
      case portEast:
        return portWest;
      case portWest:
        return portEast;
      case portNorth:
        return portSouth;
      case portSouth:
        return portNorth;
      case portRucheEast:
        return portRucheWest;
      case portRucheWest:
        return portRucheEast;
      case portRucheNorth:
        return portRucheSouth;
      case portRucheSouth:
        return portRucheNorth;
      default:
        panic("oppositePort of ", int(out_port));
    }
}

std::int32_t
Topology::delta(std::int32_t diff, std::uint32_t size) const
{
    if (type_ == NocTopology::mesh || size <= 1)
        return diff;
    // Torus: shortest wrap-aware displacement; ties resolve positive.
    const auto signed_size = static_cast<std::int32_t>(size);
    if (diff > signed_size / 2)
        diff -= signed_size;
    else if (diff < -((signed_size - 1) / 2))
        diff += signed_size;
    return diff;
}

Port
Topology::axisPort(std::int32_t diff, bool horizontal) const
{
    const std::int32_t d = delta(diff, horizontal ? width_ : height_);
    if (d == 0)
        return portLocal;
    const auto mag = static_cast<std::uint32_t>(std::abs(d));
    const Port ruche = horizontal ? (d > 0 ? portRucheEast : portRucheWest)
                                  : (d > 0 ? portRucheSouth : portRucheNorth);
    if (ruche_ >= 2 && mag >= ruche_ && portActive(ruche))
        return ruche;
    return horizontal ? (d > 0 ? portEast : portWest)
                      : (d > 0 ? portSouth : portNorth);
}

std::uint32_t
Topology::hopCount(TileId src, TileId dst) const
{
    std::uint32_t hops = 0;
    TileId here = src;
    while (here != dst) {
        const Port port = route(here, dst);
        panic_if(port == portLocal, "routing stuck at tile ", here);
        here = neighbor(here, port);
        ++hops;
        panic_if(hops > 4 * (width_ + height_) * (ruche_ + 1),
                 "routing loop from ", src, " to ", dst);
    }
    return hops;
}

std::uint32_t
Topology::hopWireTiles(Port port) const
{
    switch (port) {
      case portLocal:
        return 0;
      case portEast:
      case portWest:
      case portNorth:
      case portSouth:
        // Folded-torus wiring places logical neighbors two tiles apart
        // (Sec. III-F); mesh neighbors are adjacent.
        return type_ == NocTopology::mesh ? 1 : 2;
      case portRucheEast:
      case portRucheWest:
      case portRucheNorth:
      case portRucheSouth:
        // Ruche channels are direct physical wires spanning R tiles.
        return ruche_;
      default:
        panic("hopWireTiles of ", int(port));
    }
}

} // namespace dalorex
