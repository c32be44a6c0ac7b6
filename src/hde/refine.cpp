#include "hde/refine.hpp"

#include <cassert>
#include <cmath>

#include "linalg/laplacian_ops.hpp"
#include "linalg/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace parhde {
namespace {

/// D-orthogonalizes the two axes against the unit vector and each other,
/// then D-normalizes. This is the projection that keeps power iteration
/// and centroid refinement away from the trivial eigenvector 1.
void ReorthogonalizeAxes(const CsrGraph& graph, Layout& layout) {
  const auto& d = graph.WeightedDegrees();
  const std::size_t n = d.size();
  std::vector<double> unit(n, 1.0);
  const double unit_norm_sq = WeightedDot(unit, unit, d);

  auto project_out_unit = [&](std::vector<double>& v) {
    const double coeff = WeightedDot(unit, v, d) / unit_norm_sq;
    Axpy(-coeff, unit, v);
  };

  project_out_unit(layout.x);
  double nx = WeightedNorm2(layout.x, d);
  if (nx > 0.0) Scale(layout.x, 1.0 / nx);

  project_out_unit(layout.y);
  const double cross = WeightedDot(layout.x, layout.y, d);
  Axpy(-cross, layout.x, layout.y);
  double ny = WeightedNorm2(layout.y, d);
  if (ny > 0.0) Scale(layout.y, 1.0 / ny);
}

/// Lazy-walk step y = (x + D⁻¹Ax) / 2. The half-step keeps the operator's
/// spectrum in [0, 1], so bipartite graphs (grids, meshes) cannot lock onto
/// the -1 eigenvector or oscillate between the two sides.
void LazyWalkStep(const CsrGraph& graph, std::vector<double>& x,
                  std::vector<double>& tmp) {
  TransitionTimesVector(graph, x, tmp);
  ParallelFor(static_cast<std::int64_t>(x.size()), kStreamGrain,
              [&](std::int64_t lo, std::int64_t hi) {
                for (std::int64_t i = lo; i < hi; ++i) {
                  const auto j = static_cast<std::size_t>(i);
                  x[j] = 0.5 * (x[j] + tmp[j]);
                }
              });
}

}  // namespace

void WeightedCentroidRefine(const CsrGraph& graph, Layout& layout,
                            int iterations) {
  const auto n = static_cast<std::size_t>(graph.NumVertices());
  assert(layout.x.size() == n && layout.y.size() == n);
  std::vector<double> tmp(n);
  for (int it = 0; it < iterations; ++it) {
    LazyWalkStep(graph, layout.x, tmp);
    LazyWalkStep(graph, layout.y, tmp);
    ReorthogonalizeAxes(graph, layout);
  }
}

PowerIterationResult PowerIteration(const CsrGraph& graph,
                                    const Layout& initial,
                                    const PowerIterationOptions& options) {
  const auto n = static_cast<std::size_t>(graph.NumVertices());
  assert(initial.x.size() == n && initial.y.size() == n);

  PowerIterationResult result;
  result.axes = initial;
  ReorthogonalizeAxes(graph, result.axes);

  const auto& d = graph.WeightedDegrees();
  std::vector<double> tmp(n);
  double prev_ev[2] = {0.0, 0.0};

  for (int it = 1; it <= options.max_iterations; ++it) {
    result.iterations = it;
    // One lazy-walk multiply per axis, then re-D-orthonormalize. The lazy
    // half-step keeps bipartite inputs away from the -1 eigenvector; its
    // dominant non-trivial eigenvector equals the walk matrix's.
    LazyWalkStep(graph, result.axes.x, tmp);
    LazyWalkStep(graph, result.axes.y, tmp);
    ReorthogonalizeAxes(graph, result.axes);

    // Rayleigh quotients of D⁻¹A: x'DMx / x'Dx with x D-normalized reduces
    // to x'D(Mx).
    TransitionTimesVector(graph, result.axes.x, tmp);
    const double ev0 = WeightedDot(result.axes.x, tmp, d);
    TransitionTimesVector(graph, result.axes.y, tmp);
    const double ev1 = WeightedDot(result.axes.y, tmp, d);

    if (std::abs(ev0 - prev_ev[0]) < options.tolerance &&
        std::abs(ev1 - prev_ev[1]) < options.tolerance) {
      result.eigenvalue[0] = ev0;
      result.eigenvalue[1] = ev1;
      result.converged = true;
      return result;
    }
    prev_ev[0] = ev0;
    prev_ev[1] = ev1;
    result.eigenvalue[0] = ev0;
    result.eigenvalue[1] = ev1;
  }
  return result;
}

Layout RandomLayout(vid_t n, std::uint64_t seed) {
  Layout layout;
  layout.x.resize(static_cast<std::size_t>(n));
  layout.y.resize(static_cast<std::size_t>(n));
  Xoshiro256 rng(seed);
  for (vid_t v = 0; v < n; ++v) {
    layout.x[static_cast<std::size_t>(v)] = 2.0 * rng.NextDouble() - 1.0;
    layout.y[static_cast<std::size_t>(v)] = 2.0 * rng.NextDouble() - 1.0;
  }
  return layout;
}

}  // namespace parhde
