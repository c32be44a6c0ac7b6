#include "hde/pivot_mds.hpp"

#include <algorithm>

#include "hde/phde.hpp"
#include "hde/pivots.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace parhde {

HdeResult RunPivotMds(const CsrGraph& graph, const HdeOptions& options_in) {
  PARHDE_TRACE_SPAN("hde.pivot_mds");
  const vid_t n = graph.NumVertices();
  if (n < 3) return TrivialSmallLayout(graph, options_in);

  HdeOptions options = options_in;
  options.subspace_dim =
      std::min<int>(options.subspace_dim, static_cast<int>(n) - 1);

  HdeResult result;

  // ---- BFS phase. ----
  DenseMatrix C = RunDistancePhaseWithRecovery(graph, options, result);
  const std::size_t cols = C.Cols();
  const auto rows = static_cast<std::int64_t>(C.Rows());

  // ---- Double centering of the squared distances. ----
  {
    obs::Phase center(result.timings, phase::kDblCenter);
    // Square in place, accumulating column means. The sums fold in block
    // order, so the centering is identical at every thread count.
    std::vector<double> col_mean(cols, 0.0);
    for (std::size_t c = 0; c < cols; ++c) {
      auto col = C.Col(c);
      const double total = ParallelReduce(
          rows, kStreamGrain, 0.0,
          [&](std::int64_t lo, std::int64_t hi) {
            double partial = 0.0;
            for (std::int64_t i = lo; i < hi; ++i) {
              const double sq = col[static_cast<std::size_t>(i)] *
                                col[static_cast<std::size_t>(i)];
              col[static_cast<std::size_t>(i)] = sq;
              partial += sq;
            }
            return partial;
          },
          [](double a, double b) { return a + b; });
      col_mean[c] = total / static_cast<double>(rows);
    }
    // Row means and grand mean.
    std::vector<double> row_mean(static_cast<std::size_t>(rows), 0.0);
    ParallelFor(rows, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        double total = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
          total += C.Col(c)[static_cast<std::size_t>(i)];
        }
        row_mean[static_cast<std::size_t>(i)] =
            total / static_cast<double>(cols);
      }
    });
    double grand = 0.0;
    for (const double cm : col_mean) grand += cm;
    grand /= static_cast<double>(cols);
    // Apply: c_ij = -1/2 (d² − rowmean − colmean + grand).
    for (std::size_t c = 0; c < cols; ++c) {
      auto col = C.Col(c);
      ParallelFor(rows, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          col[static_cast<std::size_t>(i)] =
              -0.5 * (col[static_cast<std::size_t>(i)] -
                      row_mean[static_cast<std::size_t>(i)] - col_mean[c] +
                      grand);
        }
      });
    }
  }
  CheckMatrixFinite(C, phase::kDblCenter, "double-centered distance matrix");
  result.kept_columns = static_cast<int>(cols);

  // ---- MatMul, eigensolve (largest), and coordinates — as PHDE. ----
  PcaCoordinates(C, options, result);
  return result;
}

}  // namespace parhde
