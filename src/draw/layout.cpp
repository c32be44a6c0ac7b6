#include "draw/layout.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

#include "util/parallel.hpp"

namespace parhde {

PixelLayout NormalizeToCanvas(const Layout& layout, int width, int height,
                              int margin) {
  assert(width > 2 * margin && height > 2 * margin);
  const std::size_t n = layout.x.size();
  assert(layout.y.size() == n);

  PixelLayout out;
  out.width = width;
  out.height = height;
  out.x.resize(n);
  out.y.resize(n);
  if (n == 0) return out;

  double min_x = layout.x[0], max_x = layout.x[0];
  double min_y = layout.y[0], max_y = layout.y[0];
  for (std::size_t i = 1; i < n; ++i) {
    min_x = std::min(min_x, layout.x[i]);
    max_x = std::max(max_x, layout.x[i]);
    min_y = std::min(min_y, layout.y[i]);
    max_y = std::max(max_y, layout.y[i]);
  }

  const double span_x = max_x - min_x;
  const double span_y = max_y - min_y;
  const double avail_x = width - 2.0 * margin;
  const double avail_y = height - 2.0 * margin;
  double scale = 0.0;
  if (span_x > 0.0 || span_y > 0.0) {
    const double sx = span_x > 0.0 ? avail_x / span_x : kInfWeight;
    const double sy = span_y > 0.0 ? avail_y / span_y : kInfWeight;
    scale = std::min(sx, sy);
  }

  // Center whatever slack the preserved aspect ratio leaves.
  const double off_x = margin + (avail_x - span_x * scale) / 2.0;
  const double off_y = margin + (avail_y - span_y * scale) / 2.0;

  for (std::size_t i = 0; i < n; ++i) {
    out.x[i] = static_cast<int>(std::lround(off_x + (layout.x[i] - min_x) * scale));
    out.y[i] = static_cast<int>(std::lround(off_y + (layout.y[i] - min_y) * scale));
    out.x[i] = std::clamp(out.x[i], 0, width - 1);
    out.y[i] = std::clamp(out.y[i], 0, height - 1);
  }
  return out;
}

BoundingBox ComputeBoundingBox(const Layout& layout) {
  BoundingBox box;
  if (layout.x.empty()) return box;
  box.min_x = box.max_x = layout.x[0];
  box.min_y = box.max_y = layout.y[0];
  for (std::size_t i = 1; i < layout.x.size(); ++i) {
    box.min_x = std::min(box.min_x, layout.x[i]);
    box.max_x = std::max(box.max_x, layout.x[i]);
    box.min_y = std::min(box.min_y, layout.y[i]);
    box.max_y = std::max(box.max_y, layout.y[i]);
  }
  return box;
}

double NormalizedEdgeLengthEnergy(const CsrGraph& graph,
                                  const Layout& layout) {
  const vid_t n = graph.NumVertices();
  assert(layout.x.size() == static_cast<std::size_t>(n));
  if (n == 0 || graph.NumEdges() == 0) return 0.0;

  // Normalize to zero mean and unit RMS radius so the metric is invariant
  // to scaling/translation of the raw coordinates.
  double mean_x = 0.0, mean_y = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    mean_x += layout.x[static_cast<std::size_t>(v)];
    mean_y += layout.y[static_cast<std::size_t>(v)];
  }
  mean_x /= n;
  mean_y /= n;
  double rms = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    const double dx = layout.x[static_cast<std::size_t>(v)] - mean_x;
    const double dy = layout.y[static_cast<std::size_t>(v)] - mean_y;
    rms += dx * dx + dy * dy;
  }
  rms = std::sqrt(rms / n);
  if (rms <= 0.0) return 0.0;

  const double energy = ParallelReduce(
      n, 1024, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double sum = 0.0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          for (const vid_t u : graph.Neighbors(v)) {
            if (u <= v) continue;
            const double dx = (layout.x[static_cast<std::size_t>(v)] -
                               layout.x[static_cast<std::size_t>(u)]) /
                              rms;
            const double dy = (layout.y[static_cast<std::size_t>(v)] -
                               layout.y[static_cast<std::size_t>(u)]) /
                              rms;
            sum += dx * dx + dy * dy;
          }
        }
        return sum;
      },
      std::plus<>());
  return energy / static_cast<double>(graph.NumEdges());
}

double LayoutSpread(const Layout& layout) {
  const std::size_t n = layout.x.size();
  if (n < 2) return 0.0;
  // Deterministic stride sampling of pairs: cheap and reproducible.
  const std::size_t samples = std::min<std::size_t>(n * 4, 100000);
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t i = (k * 2654435761u) % n;
    const std::size_t j = (k * 40503u + 1) % n;
    if (i == j) continue;
    const double dx = layout.x[i] - layout.x[j];
    const double dy = layout.y[i] - layout.y[j];
    total += std::sqrt(dx * dx + dy * dy);
    ++count;
  }
  const double mean = count ? total / static_cast<double>(count) : 0.0;
  if (mean <= 0.0) return 0.0;
  std::size_t above = 0;
  count = 0;
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t i = (k * 2654435761u) % n;
    const std::size_t j = (k * 40503u + 1) % n;
    if (i == j) continue;
    const double dx = layout.x[i] - layout.x[j];
    const double dy = layout.y[i] - layout.y[j];
    if (std::sqrt(dx * dx + dy * dy) > mean) ++above;
    ++count;
  }
  return count ? static_cast<double>(above) / static_cast<double>(count) : 0.0;
}

}  // namespace parhde
