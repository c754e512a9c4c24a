#pragma once
// Regular 2D-mesh NoC topology (paper §3.2).
//
// "Such a chip consists of regular tiles, where each tile can be a
//  general-purpose processor, a DSP, a memory subsystem, etc.  A router is
//  embedded within each tile with the objective of connecting it to its
//  neighboring tiles."

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "exec/error.hpp"

namespace holms::noc {

using TileId = std::size_t;

enum class Dir : std::uint8_t { kLocal = 0, kNorth, kSouth, kEast, kWest };
inline constexpr std::size_t kNumPorts = 5;

struct XyRoute;

/// W x H mesh with XY-dimension-ordered routing helpers.
class Mesh2D {
 public:
  Mesh2D(std::size_t width, std::size_t height)
      : w_(width), h_(height) {
    if (width == 0 || height == 0) {
      throw holms::InvalidArgument("Mesh2D: empty mesh");
    }
  }

  std::size_t width() const { return w_; }
  std::size_t height() const { return h_; }
  std::size_t num_tiles() const { return w_ * h_; }

  std::size_t x_of(TileId t) const { return t % w_; }
  std::size_t y_of(TileId t) const { return t / w_; }
  TileId tile_at(std::size_t x, std::size_t y) const { return y * w_ + x; }

  /// Manhattan hop distance — the XY-routing path length.
  std::size_t hops(TileId a, TileId b) const;

  /// Next output direction under XY routing from `here` toward `dest`.
  Dir xy_next(TileId here, TileId dest) const {
    if (here == dest) return Dir::kLocal;
    const std::size_t hx = x_of(here), dx = x_of(dest);
    if (hx < dx) return Dir::kEast;
    if (hx > dx) return Dir::kWest;
    return y_of(here) < y_of(dest) ? Dir::kSouth : Dir::kNorth;
  }

  /// Neighbor tile in a direction; throws if off-mesh.
  TileId neighbor(TileId t, Dir d) const {
    const std::size_t x = x_of(t), y = y_of(t);
    switch (d) {
      case Dir::kNorth:
        if (y == 0) break;
        return tile_at(x, y - 1);
      case Dir::kSouth:
        if (y + 1 >= h_) break;
        return tile_at(x, y + 1);
      case Dir::kEast:
        if (x + 1 >= w_) break;
        return tile_at(x + 1, y);
      case Dir::kWest:
        if (x == 0) break;
        return tile_at(x - 1, y);
      case Dir::kLocal:
        return t;
    }
    throw holms::OutOfRange("Mesh2D::neighbor: off-mesh");
  }

  bool has_neighbor(TileId t, Dir d) const {
    switch (d) {
      case Dir::kNorth: return y_of(t) > 0;
      case Dir::kSouth: return y_of(t) + 1 < h_;
      case Dir::kEast: return x_of(t) + 1 < w_;
      case Dir::kWest: return x_of(t) > 0;
      case Dir::kLocal: return true;
    }
    return false;
  }

  /// Number of directed inter-tile links (4 outgoing per tile; edge tiles
  /// simply never use their off-mesh slots).
  std::size_t num_links() const { return num_tiles() * 4; }

  /// Dense index of the directed link leaving `from` in direction `d`
  /// (d != kLocal).  XyRoute numbers its legs with it, so link loads from
  /// evaluate_mapping, the SA evaluator and the router agree slot for slot.
  static std::size_t link_index(TileId from, Dir d) {
    return from * 4 + (static_cast<std::size_t>(d) - 1);
  }

  /// The XY route src -> dst as two strided legs of link indices (XyRoute).
  /// Two div/mod pairs per route, none per hop.
  XyRoute xy_links(TileId src, TileId dst) const;

  /// Number of physical (undirected) inter-tile links: (w-1)*h horizontal +
  /// w*(h-1) vertical.  This is the id namespace fault::FaultSchedule uses
  /// for Target::kLink events — a physical link failing takes out both
  /// directed channels at once.
  std::size_t num_undirected_links() const {
    return (w_ - 1) * h_ + w_ * (h_ - 1);
  }

  /// Canonical (tile, direction) endpoint of undirected link `id`:
  /// horizontal links first (row-major, East from their west endpoint), then
  /// vertical links (row-major, South from their north endpoint).
  std::pair<TileId, Dir> undirected_link(std::size_t id) const {
    const std::size_t horizontal = (w_ - 1) * h_;
    if (id < horizontal) {
      return {tile_at(id % (w_ - 1), id / (w_ - 1)), Dir::kEast};
    }
    id -= horizontal;
    if (id < w_ * (h_ - 1)) {
      return {tile_at(id % w_, id / w_), Dir::kSouth};
    }
    throw holms::OutOfRange("Mesh2D::undirected_link: bad link id");
  }

 private:
  std::size_t w_;
  std::size_t h_;
};

/// An XY route as two straight runs of directed-link indices
/// (Mesh2D::link_index): the X leg (East/West, stride ±4), then the Y leg
/// (South/North, stride ±4·width).  A leg is empty when the endpoints share
/// that coordinate, so src == dst is the empty route.
struct XyRoute {
  struct Leg {
    std::ptrdiff_t first = 0;   // link index of the leg's first hop
    std::ptrdiff_t stride = 0;  // link-index step between consecutive hops
    std::size_t count = 0;      // hops in the leg
  };
  Leg x, y;

  /// The route from tile (sx, sy) to tile (dx, dy) of a mesh `width` wide.
  XyRoute(std::size_t width, std::size_t sx, std::size_t sy, std::size_t dx,
          std::size_t dy) {
    const auto link = [](std::size_t tile, Dir d) {
      return static_cast<std::ptrdiff_t>(Mesh2D::link_index(tile, d));
    };
    const auto row = static_cast<std::ptrdiff_t>(4 * width);
    const std::size_t src = sy * width + sx, corner = sy * width + dx;
    x = dx >= sx ? Leg{link(src, Dir::kEast), 4, dx - sx}
                 : Leg{link(src, Dir::kWest), -4, sx - dx};
    y = dy >= sy ? Leg{link(corner, Dir::kSouth), row, dy - sy}
                 : Leg{link(corner, Dir::kNorth), -row, sy - dy};
  }

  std::size_t hops() const { return x.count + y.count; }

  /// Calls f(link index) for every hop, in route order.
  template <class F>
  void for_each_link(F&& f) const {
    for (const Leg& leg : {x, y}) {
      std::ptrdiff_t l = leg.first;
      for (std::size_t k = 0; k < leg.count; ++k, l += leg.stride) {
        f(static_cast<std::uint32_t>(l));
      }
    }
  }
};

inline XyRoute Mesh2D::xy_links(TileId src, TileId dst) const {
  return XyRoute(w_, x_of(src), y_of(src), x_of(dst), y_of(dst));
}

inline std::size_t Mesh2D::hops(TileId a, TileId b) const {
  return xy_links(a, b).hops();
}

/// XY routes for any (src, dst) tile pair from a per-tile coordinate table:
/// a route costs two table loads and no div/mod, which keeps the delta-cost
/// mapping moves O(hops) with a tiny constant.  Memory is O(tiles).
class XyRouteTable {
 public:
  explicit XyRouteTable(const Mesh2D& mesh) : width_(mesh.width()) {
    xy_.reserve(mesh.num_tiles());
    for (TileId t = 0; t < mesh.num_tiles(); ++t) {
      xy_.push_back({static_cast<std::uint32_t>(mesh.x_of(t)),
                     static_cast<std::uint32_t>(mesh.y_of(t))});
    }
  }

  /// The XY route src -> dst; the same legs as Mesh2D::xy_links.
  XyRoute links(TileId src, TileId dst) const {
    return XyRoute(width_, xy_[src][0], xy_[src][1], xy_[dst][0], xy_[dst][1]);
  }

  /// Hop count (route length) — same value as Mesh2D::hops.
  std::size_t hops(TileId src, TileId dst) const {
    return links(src, dst).hops();
  }

  /// Number of tiles the table was built for (mesh-compatibility checks when
  /// a caller supplies the table).
  std::size_t tiles() const { return xy_.size(); }

 private:
  std::size_t width_;
  std::vector<std::array<std::uint32_t, 2>> xy_;  // tile -> (x, y)
};

/// Bit-energy model in the style of Hu–Marculescu [20][23]:
/// moving one bit across h hops costs (h+1) router traversals and h link
/// traversals.
struct EnergyModel {
  double e_router_pj = 0.98;  // pJ per bit per router
  double e_link_pj = 1.74;    // pJ per bit per inter-tile link
  double e_buffer_pj = 1.10;  // pJ per bit buffered under contention

  double bit_energy(std::size_t hops) const {
    return static_cast<double>(hops + 1) * e_router_pj +
           static_cast<double>(hops) * e_link_pj;
  }
  /// Joules for `bits` over `hops`.
  double transfer_energy(double bits, std::size_t hops) const {
    return bits * bit_energy(hops) * 1e-12;
  }
};

}  // namespace holms::noc
