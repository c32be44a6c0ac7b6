#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace parhde {

EdgeList GenUniformRandom(vid_t n, eid_t m, std::uint64_t seed) {
  assert(n > 0);
  EdgeList edges(static_cast<std::size_t>(m));
  const auto nm = static_cast<std::int64_t>(m);
  ParallelFor(nm, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // Per-edge independent stream so results don't depend on thread count.
      Xoshiro256 local(seed ^ (0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(i + 1)));
      const auto u = static_cast<vid_t>(
          local.NextBounded(static_cast<std::uint64_t>(n)));
      const auto v = static_cast<vid_t>(
          local.NextBounded(static_cast<std::uint64_t>(n)));
      edges[static_cast<std::size_t>(i)] = {u, v, 1.0};
    }
  });
  return edges;
}

EdgeList GenKronecker(int scale, int edge_factor, std::uint64_t seed,
                      const RmatParams& params) {
  assert(scale > 0 && scale < 31);
  const auto n = static_cast<vid_t>(vid_t{1} << scale);
  const auto m = static_cast<eid_t>(n) * edge_factor;

  // Random vertex permutation, as in the GAP generator: ids are shuffled so
  // the R-MAT block structure does not leak into vertex locality.
  std::vector<vid_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  {
    Xoshiro256 rng(seed ^ 0xabcdef12345ULL);
    std::shuffle(perm.begin(), perm.end(), rng);
  }

  EdgeList edges(static_cast<std::size_t>(m));
  const auto nm = static_cast<std::int64_t>(m);
  const double ab = params.a + params.b;
  const double abc = params.a + params.b + params.c;
  ParallelFor(nm, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      Xoshiro256 rng(seed ^ (0xdeadbeefULL + 0x9e3779b97f4a7c15ULL *
                                                 static_cast<std::uint64_t>(i)));
      vid_t u = 0, v = 0;
      for (int level = 0; level < scale; ++level) {
        const double r = rng.NextDouble();
        int bit_u = 0, bit_v = 0;
        if (r < params.a) {
          // top-left quadrant
        } else if (r < ab) {
          bit_v = 1;
        } else if (r < abc) {
          bit_u = 1;
        } else {
          bit_u = 1;
          bit_v = 1;
        }
        u = static_cast<vid_t>((u << 1) | bit_u);
        v = static_cast<vid_t>((v << 1) | bit_v);
      }
      edges[static_cast<std::size_t>(i)] = {
          perm[static_cast<std::size_t>(u)], perm[static_cast<std::size_t>(v)],
          1.0};
    }
  });
  return edges;
}

EdgeList GenGrid2d(vid_t rows, vid_t cols, bool wrap) {
  assert(rows > 0 && cols > 0);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 2);
  auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        edges.push_back({id(r, c), id(r, c + 1), 1.0});
      } else if (wrap && cols > 2) {
        edges.push_back({id(r, c), id(r, 0), 1.0});
      }
      if (r + 1 < rows) {
        edges.push_back({id(r, c), id(r + 1, c), 1.0});
      } else if (wrap && rows > 2) {
        edges.push_back({id(r, c), id(0, c), 1.0});
      }
    }
  }
  return edges;
}

EdgeList GenRoad(vid_t rows, vid_t cols, double diag_prob, std::uint64_t seed) {
  EdgeList edges = GenGrid2d(rows, cols, /*wrap=*/false);
  Xoshiro256 rng(seed);
  auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };
  for (vid_t r = 0; r + 1 < rows; ++r) {
    for (vid_t c = 0; c + 1 < cols; ++c) {
      if (rng.NextDouble() < diag_prob) {
        edges.push_back({id(r, c), id(r + 1, c + 1), 1.0});
      }
    }
  }
  return edges;
}

EdgeList GenGrid3d(vid_t nx, vid_t ny, vid_t nz) {
  assert(nx > 0 && ny > 0 && nz > 0);
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(nx) * ny * nz * 3);
  auto id = [ny, nz](vid_t x, vid_t y, vid_t z) { return (x * ny + y) * nz + z; };
  for (vid_t x = 0; x < nx; ++x) {
    for (vid_t y = 0; y < ny; ++y) {
      for (vid_t z = 0; z < nz; ++z) {
        if (x + 1 < nx) edges.push_back({id(x, y, z), id(x + 1, y, z), 1.0});
        if (y + 1 < ny) edges.push_back({id(x, y, z), id(x, y + 1, z), 1.0});
        if (z + 1 < nz) edges.push_back({id(x, y, z), id(x, y, z + 1), 1.0});
      }
    }
  }
  return edges;
}

vid_t PlateNumVertices(vid_t rows, vid_t cols) { return rows * cols; }

EdgeList GenPlateWithHoles(vid_t rows, vid_t cols) {
  assert(rows >= 16 && cols >= 16);
  // Four circular holes centered on the quarter points, radius ~ 1/6 of the
  // smaller half-dimension — mirrors the "four holes" global structure of
  // barth5 visible in the paper's Figs. 1 and 7.
  const double radius = 0.22 * (std::min(rows, cols) / 2.0);
  const double cr[4] = {rows * 0.3, rows * 0.3, rows * 0.7, rows * 0.7};
  const double cc[4] = {cols * 0.3, cols * 0.7, cols * 0.3, cols * 0.7};

  auto in_hole = [&](vid_t r, vid_t c) {
    for (int h = 0; h < 4; ++h) {
      const double dr = r - cr[h];
      const double dc = c - cc[h];
      if (dr * dr + dc * dc < radius * radius) return true;
    }
    return false;
  };
  auto id = [cols](vid_t r, vid_t c) { return r * cols + c; };

  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(rows) * cols * 3);
  for (vid_t r = 0; r < rows; ++r) {
    for (vid_t c = 0; c < cols; ++c) {
      if (in_hole(r, c)) continue;
      // Triangulated: right, down, and down-right diagonal.
      if (c + 1 < cols && !in_hole(r, c + 1)) {
        edges.push_back({id(r, c), id(r, c + 1), 1.0});
      }
      if (r + 1 < rows && !in_hole(r + 1, c)) {
        edges.push_back({id(r, c), id(r + 1, c), 1.0});
      }
      if (r + 1 < rows && c + 1 < cols && !in_hole(r + 1, c + 1)) {
        edges.push_back({id(r, c), id(r + 1, c + 1), 1.0});
      }
    }
  }
  return edges;
}

EdgeList GenChain(vid_t n) {
  EdgeList edges;
  edges.reserve(n > 0 ? static_cast<std::size_t>(n) - 1 : 0);
  for (vid_t v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<vid_t>(v + 1), 1.0});
  return edges;
}

EdgeList GenRing(vid_t n) {
  EdgeList edges = GenChain(n);
  if (n > 2) edges.push_back({static_cast<vid_t>(n - 1), 0, 1.0});
  return edges;
}

EdgeList GenStar(vid_t n) {
  EdgeList edges;
  edges.reserve(n > 0 ? static_cast<std::size_t>(n) - 1 : 0);
  for (vid_t v = 1; v < n; ++v) edges.push_back({0, v, 1.0});
  return edges;
}

EdgeList GenComplete(vid_t n) {
  EdgeList edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (vid_t u = 0; u < n; ++u) {
    for (vid_t v = u + 1; v < n; ++v) edges.push_back({u, v, 1.0});
  }
  return edges;
}

EdgeList GenBinaryTree(int levels) {
  assert(levels >= 1 && levels < 31);
  const auto n = static_cast<vid_t>((vid_t{1} << levels) - 1);
  EdgeList edges;
  edges.reserve(n > 0 ? static_cast<std::size_t>(n) - 1 : 0);
  for (vid_t v = 1; v < n; ++v) {
    edges.push_back({static_cast<vid_t>((v - 1) / 2), v, 1.0});
  }
  return edges;
}

void AssignRandomWeights(EdgeList& edges, weight_t lo, weight_t hi,
                         std::uint64_t seed) {
  assert(lo <= hi);
  Xoshiro256 rng(seed);
  for (auto& e : edges) e.w = lo + (hi - lo) * rng.NextDouble();
}

}  // namespace parhde
