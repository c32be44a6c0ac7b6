#include "hde/force_directed.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <vector>

#include "hde/refine.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

// Vertices per block; force evaluations vary with the local density, so
// blocks stay small.
constexpr std::int64_t kVertexGrain = 256;

/// Uniform spatial grid over the current layout: cell side = cutoff radius,
/// so each vertex only interacts with its 3x3 cell neighborhood.
class SpatialGrid {
 public:
  SpatialGrid(const Layout& layout, double cell_size)
      : cell_(std::max(cell_size, 1e-9)) {
    min_x_ = min_y_ = 0.0;
    if (!layout.x.empty()) {
      min_x_ = *std::min_element(layout.x.begin(), layout.x.end());
      min_y_ = *std::min_element(layout.y.begin(), layout.y.end());
      const double max_x = *std::max_element(layout.x.begin(), layout.x.end());
      const double max_y = *std::max_element(layout.y.begin(), layout.y.end());
      nx_ = static_cast<int>((max_x - min_x_) / cell_) + 1;
      ny_ = static_cast<int>((max_y - min_y_) / cell_) + 1;
    }
    cells_.assign(static_cast<std::size_t>(nx_) * ny_, {});
    for (std::size_t v = 0; v < layout.x.size(); ++v) {
      cells_[CellOf(layout.x[v], layout.y[v])].push_back(
          static_cast<vid_t>(v));
    }
  }

  template <typename Fn>
  void ForEachNeighbor(double x, double y, Fn&& fn) const {
    const int cx = ClampX(static_cast<int>((x - min_x_) / cell_));
    const int cy = ClampY(static_cast<int>((y - min_y_) / cell_));
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int gx = cx + dx;
        const int gy = cy + dy;
        if (gx < 0 || gy < 0 || gx >= nx_ || gy >= ny_) continue;
        for (const vid_t u :
             cells_[static_cast<std::size_t>(gy) * nx_ + gx]) {
          fn(u);
        }
      }
    }
  }

 private:
  std::size_t CellOf(double x, double y) const {
    const int cx = ClampX(static_cast<int>((x - min_x_) / cell_));
    const int cy = ClampY(static_cast<int>((y - min_y_) / cell_));
    return static_cast<std::size_t>(cy) * nx_ + cx;
  }
  int ClampX(int c) const { return std::clamp(c, 0, nx_ - 1); }
  int ClampY(int c) const { return std::clamp(c, 0, ny_ - 1); }

  double cell_;
  double min_x_ = 0.0, min_y_ = 0.0;
  int nx_ = 1, ny_ = 1;
  std::vector<std::vector<vid_t>> cells_;
};

}  // namespace

ForceDirectedResult FruchtermanReingold(const CsrGraph& graph,
                                        const ForceDirectedOptions& options,
                                        const Layout* initial) {
  const vid_t n = graph.NumVertices();
  assert(n > 0);

  ForceDirectedResult result;
  result.layout = initial ? *initial : RandomLayout(n, options.seed);
  assert(result.layout.x.size() == static_cast<std::size_t>(n));

  const double k =
      options.ideal_length > 0.0
          ? options.ideal_length
          : std::sqrt(1.0 / static_cast<double>(n));
  const double cutoff = options.cutoff_lengths * k;
  const double cutoff_sq = cutoff * cutoff;

  // Normalize the start into the unit square so the temperature schedule
  // and grid sizes are scale-free.
  {
    double min_x = result.layout.x[0], max_x = result.layout.x[0];
    double min_y = result.layout.y[0], max_y = result.layout.y[0];
    for (vid_t v = 0; v < n; ++v) {
      min_x = std::min(min_x, result.layout.x[static_cast<std::size_t>(v)]);
      max_x = std::max(max_x, result.layout.x[static_cast<std::size_t>(v)]);
      min_y = std::min(min_y, result.layout.y[static_cast<std::size_t>(v)]);
      max_y = std::max(max_y, result.layout.y[static_cast<std::size_t>(v)]);
    }
    const double span = std::max({max_x - min_x, max_y - min_y, 1e-12});
    for (vid_t v = 0; v < n; ++v) {
      result.layout.x[static_cast<std::size_t>(v)] =
          (result.layout.x[static_cast<std::size_t>(v)] - min_x) / span;
      result.layout.y[static_cast<std::size_t>(v)] =
          (result.layout.y[static_cast<std::size_t>(v)] - min_y) / span;
    }
  }

  std::vector<double> disp_x(static_cast<std::size_t>(n));
  std::vector<double> disp_y(static_cast<std::size_t>(n));
  std::int64_t interactions = 0;

  for (int it = 0; it < options.iterations; ++it) {
    result.iterations = it + 1;
    const double temperature =
        options.initial_temperature *
        (1.0 - static_cast<double>(it) / options.iterations);

    std::fill(disp_x.begin(), disp_x.end(), 0.0);
    std::fill(disp_y.begin(), disp_y.end(), 0.0);

    // Repulsion through the grid (truncated at `cutoff`).
    const SpatialGrid grid(result.layout, cutoff);
    interactions += ParallelReduce(
        n, kVertexGrain, std::int64_t{0},
        [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t count = 0;
          for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
            const double xv = result.layout.x[static_cast<std::size_t>(v)];
            const double yv = result.layout.y[static_cast<std::size_t>(v)];
            double fx = 0.0, fy = 0.0;
            grid.ForEachNeighbor(xv, yv, [&](vid_t u) {
              if (u == v) return;
              double dx = xv - result.layout.x[static_cast<std::size_t>(u)];
              double dy = yv - result.layout.y[static_cast<std::size_t>(u)];
              const double d_sq = dx * dx + dy * dy;
              if (d_sq > cutoff_sq) return;
              ++count;
              const double d = std::max(std::sqrt(d_sq), 1e-9);
              const double force = k * k / d;  // FR repulsion k²/d
              fx += force * dx / d;
              fy += force * dy / d;
            });
            disp_x[static_cast<std::size_t>(v)] += fx;
            disp_y[static_cast<std::size_t>(v)] += fy;
          }
          return count;
        },
        std::plus<>());

    // Attraction along edges (d²/k). Each endpoint accumulates its own
    // half from its adjacency list — no write races.
    interactions += ParallelReduce(
        n, kVertexGrain, std::int64_t{0},
        [&](std::int64_t lo, std::int64_t hi) {
          std::int64_t count = 0;
          for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
            const double xv = result.layout.x[static_cast<std::size_t>(v)];
            const double yv = result.layout.y[static_cast<std::size_t>(v)];
            double fx = 0.0, fy = 0.0;
            for (const vid_t u : graph.Neighbors(v)) {
              double dx = xv - result.layout.x[static_cast<std::size_t>(u)];
              double dy = yv - result.layout.y[static_cast<std::size_t>(u)];
              const double d = std::max(std::sqrt(dx * dx + dy * dy), 1e-9);
              ++count;
              const double force = d * d / k;  // FR attraction d²/k
              fx -= force * dx / d;
              fy -= force * dy / d;
            }
            disp_x[static_cast<std::size_t>(v)] += fx;
            disp_y[static_cast<std::size_t>(v)] += fy;
          }
          return count;
        },
        std::plus<>());

    // Displace, capped at the current temperature.
    ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
        const double dx = disp_x[static_cast<std::size_t>(v)];
        const double dy = disp_y[static_cast<std::size_t>(v)];
        const double d = std::max(std::sqrt(dx * dx + dy * dy), 1e-12);
        const double step = std::min(d, temperature);
        result.layout.x[static_cast<std::size_t>(v)] += dx / d * step;
        result.layout.y[static_cast<std::size_t>(v)] += dy / d * step;
      }
    });
  }

  result.interactions = interactions;
  return result;
}

}  // namespace parhde
