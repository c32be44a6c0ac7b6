#include "hde/stress.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <utility>

#include "hde/pivots.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Vertices per block of the per-edge sums and the SMACOF sweeps.
constexpr std::int64_t kVertexGrain = 1024;

/// Target length of the e-th incident edge of v.
inline double TargetLength(const CsrGraph& graph, vid_t v, std::size_t e) {
  return graph.HasWeights() ? graph.NeighborWeights(v)[e] : 1.0;
}

/// Euclidean distance between v and u in the layout.
inline double Distance(const Layout& layout, vid_t v, vid_t u) {
  const double dx =
      layout.x[static_cast<std::size_t>(v)] - layout.x[static_cast<std::size_t>(u)];
  const double dy =
      layout.y[static_cast<std::size_t>(v)] - layout.y[static_cast<std::size_t>(u)];
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

double EdgeStress(const CsrGraph& graph, const Layout& layout) {
  const vid_t n = graph.NumVertices();
  assert(layout.x.size() == static_cast<std::size_t>(n));
  return ParallelReduce(
      n, kVertexGrain, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        double total = 0.0;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          const auto nbrs = graph.Neighbors(v);
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            const vid_t u = nbrs[e];
            if (u <= v) continue;
            const double d = TargetLength(graph, v, e);
            const double len = Distance(layout, v, u);
            const double w = 1.0 / (d * d);
            total += w * (len - d) * (len - d);
          }
        }
        return total;
      },
      std::plus<>());
}

void RescaleToStressOptimum(const CsrGraph& graph, Layout& layout) {
  const vid_t n = graph.NumVertices();
  // (numerator, denominator) of the least-squares scale factor.
  using Terms = std::pair<double, double>;
  const Terms terms = ParallelReduce(
      n, kVertexGrain, Terms{},
      [&](std::int64_t lo, std::int64_t hi) {
        Terms local;
        for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
          const auto nbrs = graph.Neighbors(v);
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            const vid_t u = nbrs[e];
            if (u <= v) continue;
            const double d = TargetLength(graph, v, e);
            const double len = Distance(layout, v, u);
            const double w = 1.0 / (d * d);
            local.first += w * d * len;
            local.second += w * len * len;
          }
        }
        return local;
      },
      [](Terms a, Terms b) {
        return Terms{a.first + b.first, a.second + b.second};
      });
  if (terms.second <= 0.0) return;  // fully degenerate layout
  const double scale = terms.first / terms.second;
  for (auto& x : layout.x) x *= scale;
  for (auto& y : layout.y) y *= scale;
}

StressResult StressMajorize(const CsrGraph& graph, const Layout& initial,
                            const StressOptions& options) {
  const vid_t n = graph.NumVertices();
  assert(initial.x.size() == static_cast<std::size_t>(n));

  StressResult result;
  result.layout = initial;
  RescaleToStressOptimum(graph, result.layout);
  result.initial_stress = EdgeStress(graph, result.layout);

  Layout next;
  next.x.resize(static_cast<std::size_t>(n));
  next.y.resize(static_cast<std::size_t>(n));

  double stress = result.initial_stress;
  for (int it = 1; it <= options.max_iterations; ++it) {
    result.iterations = it;
    const Layout& cur = result.layout;

    // SMACOF update per vertex:
    //   x_v ← Σ_u w (x_u + d · (x_v − x_u)/‖x_v − x_u‖) / Σ_u w
    // Coincident endpoints contribute no direction term.
    ParallelFor(n, kVertexGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
        const auto nbrs = graph.Neighbors(v);
        if (nbrs.empty()) {
          next.x[static_cast<std::size_t>(v)] = cur.x[static_cast<std::size_t>(v)];
          next.y[static_cast<std::size_t>(v)] = cur.y[static_cast<std::size_t>(v)];
          continue;
        }
        double acc_x = 0.0, acc_y = 0.0, acc_w = 0.0;
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          const vid_t u = nbrs[e];
          const double d = TargetLength(graph, v, e);
          const double w = 1.0 / (d * d);
          const double dx = cur.x[static_cast<std::size_t>(v)] -
                            cur.x[static_cast<std::size_t>(u)];
          const double dy = cur.y[static_cast<std::size_t>(v)] -
                            cur.y[static_cast<std::size_t>(u)];
          const double len = std::sqrt(dx * dx + dy * dy);
          double tx = cur.x[static_cast<std::size_t>(u)];
          double ty = cur.y[static_cast<std::size_t>(u)];
          if (len > 1e-12) {
            tx += d * dx / len;
            ty += d * dy / len;
          }
          acc_x += w * tx;
          acc_y += w * ty;
          acc_w += w;
        }
        next.x[static_cast<std::size_t>(v)] = acc_x / acc_w;
        next.y[static_cast<std::size_t>(v)] = acc_y / acc_w;
      }
    });

    result.layout.x.swap(next.x);
    result.layout.y.swap(next.y);

    const double new_stress = EdgeStress(graph, result.layout);
    if (stress > 0.0 && (stress - new_stress) / stress < options.tolerance) {
      result.converged = true;
      stress = new_stress;
      break;
    }
    stress = new_stress;
  }
  result.final_stress = stress;
  return result;
}

namespace {

/// Pivot term data shared by SparseStress and SparseStressMajorize: the
/// n x p BFS-distance matrix and the pivot ids, built with the same
/// farthest-first machinery as ParHDE's BFS phase.
DistancePhase PivotTerms(const CsrGraph& graph, int pivots,
                         std::uint64_t seed) {
  HdeOptions options;
  options.subspace_dim = std::max(1, pivots);
  options.seed = seed;
  return RunDistancePhase(graph, options);
}

}  // namespace

double SparseStress(const CsrGraph& graph, const Layout& layout, int pivots,
                    std::uint64_t seed) {
  const DistancePhase phase = PivotTerms(graph, pivots, seed);
  const vid_t n = graph.NumVertices();

  return EdgeStress(graph, layout) +
         ParallelReduce(
             n, kVertexGrain, 0.0,
             [&](std::int64_t lo, std::int64_t hi) {
               double total = 0.0;
               for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
                 for (std::size_t i = 0; i < phase.pivots.size(); ++i) {
                   const vid_t p = phase.pivots[i];
                   if (p == v) continue;
                   const double d = phase.B.At(static_cast<std::size_t>(v), i);
                   if (d <= 0.0) continue;
                   const double len = Distance(layout, v, p);
                   total += (len - d) * (len - d) / (d * d);
                 }
               }
               return total;
             },
             std::plus<>());
}

StressResult SparseStressMajorize(const CsrGraph& graph, const Layout& initial,
                                  int pivots, const StressOptions& options,
                                  std::uint64_t seed) {
  const vid_t n = graph.NumVertices();
  assert(initial.x.size() == static_cast<std::size_t>(n));
  const DistancePhase phase = PivotTerms(graph, pivots, seed);

  StressResult result;
  result.layout = initial;
  RescaleToStressOptimum(graph, result.layout);

  auto full_stress = [&](const Layout& layout) {
    double total = EdgeStress(graph, layout);
    for (vid_t v = 0; v < n; ++v) {
      for (std::size_t i = 0; i < phase.pivots.size(); ++i) {
        const vid_t p = phase.pivots[i];
        if (p == v) continue;
        const double d = phase.B.At(static_cast<std::size_t>(v), i);
        if (d <= 0.0) continue;
        const double dx = layout.x[static_cast<std::size_t>(v)] -
                          layout.x[static_cast<std::size_t>(p)];
        const double dy = layout.y[static_cast<std::size_t>(v)] -
                          layout.y[static_cast<std::size_t>(p)];
        const double len = std::sqrt(dx * dx + dy * dy);
        total += (len - d) * (len - d) / (d * d);
      }
    }
    return total;
  };
  result.initial_stress = full_stress(result.layout);

  Layout next;
  next.x.resize(static_cast<std::size_t>(n));
  next.y.resize(static_cast<std::size_t>(n));
  double stress = result.initial_stress;

  for (int it = 1; it <= options.max_iterations; ++it) {
    result.iterations = it;
    const Layout& cur = result.layout;

    // Per-vertex SMACOF update over edge terms plus the vertex's pivot
    // terms. (Pivots receive only their own terms — the usual one-sided
    // landmark treatment.)
    ParallelFor(n, kVertexGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (auto v = static_cast<vid_t>(lo); v < hi; ++v) {
        double acc_x = 0.0, acc_y = 0.0, acc_w = 0.0;
        auto add_term = [&](vid_t u, double d) {
          const double w = 1.0 / (d * d);
          const double dx = cur.x[static_cast<std::size_t>(v)] -
                            cur.x[static_cast<std::size_t>(u)];
          const double dy = cur.y[static_cast<std::size_t>(v)] -
                            cur.y[static_cast<std::size_t>(u)];
          const double len = std::sqrt(dx * dx + dy * dy);
          double tx = cur.x[static_cast<std::size_t>(u)];
          double ty = cur.y[static_cast<std::size_t>(u)];
          if (len > 1e-12) {
            tx += d * dx / len;
            ty += d * dy / len;
          }
          acc_x += w * tx;
          acc_y += w * ty;
          acc_w += w;
        };

        const auto nbrs = graph.Neighbors(v);
        for (std::size_t e = 0; e < nbrs.size(); ++e) {
          add_term(nbrs[e], TargetLength(graph, v, e));
        }
        for (std::size_t i = 0; i < phase.pivots.size(); ++i) {
          const vid_t p = phase.pivots[i];
          const double d = phase.B.At(static_cast<std::size_t>(v), i);
          if (p != v && d > 0.0) add_term(p, d);
        }

        if (acc_w > 0.0) {
          next.x[static_cast<std::size_t>(v)] = acc_x / acc_w;
          next.y[static_cast<std::size_t>(v)] = acc_y / acc_w;
        } else {
          next.x[static_cast<std::size_t>(v)] = cur.x[static_cast<std::size_t>(v)];
          next.y[static_cast<std::size_t>(v)] = cur.y[static_cast<std::size_t>(v)];
        }
      }
    });

    result.layout.x.swap(next.x);
    result.layout.y.swap(next.y);

    const double new_stress = full_stress(result.layout);
    if (stress > 0.0 && (stress - new_stress) / stress < options.tolerance) {
      result.converged = true;
      stress = new_stress;
      break;
    }
    stress = new_stress;
  }
  result.final_stress = stress;
  return result;
}

}  // namespace parhde
