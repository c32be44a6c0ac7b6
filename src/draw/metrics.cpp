#include "draw/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "bfs/serial_bfs.hpp"
#include "hde/pivots.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace parhde {

double NeighborhoodPreservation(const CsrGraph& graph, const Layout& layout,
                                const QualityOptions& options) {
  const vid_t n = graph.NumVertices();
  assert(layout.x.size() == static_cast<std::size_t>(n));
  if (n < 3) return 1.0;

  const std::vector<vid_t> samples = RandomPivots(
      n, std::min<int>(options.np_samples, static_cast<int>(n)), options.seed);

  // (sum of per-sample hit ratios, samples counted), eight samples per
  // block: each sample is an O(n) scan.
  using Tally = std::pair<double, std::int64_t>;
  const Tally tally = ParallelReduce(
      static_cast<std::int64_t>(samples.size()), 8, Tally{},
      [&](std::int64_t lo, std::int64_t hi) {
        Tally local;
        std::vector<std::pair<double, vid_t>> nearest;
        for (std::int64_t s = lo; s < hi; ++s) {
          const vid_t v = samples[static_cast<std::size_t>(s)];
          const auto deg = static_cast<std::size_t>(graph.Degree(v));
          if (deg == 0) continue;

          // Exact deg(v)-nearest neighbors in the layout.
          nearest.clear();
          const double xv = layout.x[static_cast<std::size_t>(v)];
          const double yv = layout.y[static_cast<std::size_t>(v)];
          for (vid_t u = 0; u < n; ++u) {
            if (u == v) continue;
            const double dx = layout.x[static_cast<std::size_t>(u)] - xv;
            const double dy = layout.y[static_cast<std::size_t>(u)] - yv;
            nearest.emplace_back(dx * dx + dy * dy, u);
          }
          std::nth_element(
              nearest.begin(),
              nearest.begin() + static_cast<std::ptrdiff_t>(deg - 1),
              nearest.end());

          std::size_t hits = 0;
          for (std::size_t i = 0; i < deg; ++i) {
            if (graph.HasEdge(v, nearest[i].second)) ++hits;
          }
          local.first += static_cast<double>(hits) / static_cast<double>(deg);
          ++local.second;
        }
        return local;
      },
      [](Tally a, Tally b) {
        return Tally{a.first + b.first, a.second + b.second};
      });
  return tally.second ? tally.first / static_cast<double>(tally.second)
                      : 0.0;
}

double DistanceCorrelation(const CsrGraph& graph, const Layout& layout,
                           const QualityOptions& options) {
  const vid_t n = graph.NumVertices();
  assert(layout.x.size() == static_cast<std::size_t>(n));
  if (n < 3) return 1.0;

  const std::vector<vid_t> sources = RandomPivots(
      n, std::min<int>(options.dc_sources, static_cast<int>(n)),
      options.seed ^ 0x5bd1e995u);

  double correlation_sum = 0.0;
  int counted = 0;
  for (const vid_t s : sources) {
    const auto hops = SerialBfs(graph, s);
    const double xs = layout.x[static_cast<std::size_t>(s)];
    const double ys = layout.y[static_cast<std::size_t>(s)];

    // Pearson correlation over reachable vertices.
    double sum_g = 0, sum_l = 0, sum_gg = 0, sum_ll = 0, sum_gl = 0;
    std::int64_t count = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (v == s || hops[static_cast<std::size_t>(v)] == kInfDist) continue;
      const double g = static_cast<double>(hops[static_cast<std::size_t>(v)]);
      const double dx = layout.x[static_cast<std::size_t>(v)] - xs;
      const double dy = layout.y[static_cast<std::size_t>(v)] - ys;
      const double l = std::sqrt(dx * dx + dy * dy);
      sum_g += g;
      sum_l += l;
      sum_gg += g * g;
      sum_ll += l * l;
      sum_gl += g * l;
      ++count;
    }
    if (count < 2) continue;
    const double fc = static_cast<double>(count);
    const double cov = sum_gl - sum_g * sum_l / fc;
    const double var_g = sum_gg - sum_g * sum_g / fc;
    const double var_l = sum_ll - sum_l * sum_l / fc;
    if (var_g <= 0.0 || var_l <= 0.0) continue;
    correlation_sum += cov / std::sqrt(var_g * var_l);
    ++counted;
  }
  return counted ? correlation_sum / counted : 0.0;
}

}  // namespace parhde
