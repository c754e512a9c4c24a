#pragma once
// The XY route as the tiles it visits, walked hop by hop with
// Mesh2D::xy_next: a reference for the route-leg code (XyRoute), which
// numbers the same hops by link index.  Tests only.
#include <vector>

#include "noc/topology.hpp"

namespace holms::test_support {

/// Tiles of the XY route src -> dst, both endpoints included.
inline std::vector<noc::TileId> xy_route(const noc::Mesh2D& mesh,
                                         noc::TileId src, noc::TileId dst) {
  std::vector<noc::TileId> path{src};
  noc::TileId cur = src;
  while (cur != dst) {
    cur = mesh.neighbor(cur, mesh.xy_next(cur, dst));
    path.push_back(cur);
  }
  return path;
}

}  // namespace holms::test_support
