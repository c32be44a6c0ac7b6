#include "hde/phde.hpp"

#include <algorithm>

#include "hde/pivots.hpp"
#include "linalg/gemm.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "resilience/recovery.hpp"

namespace parhde {

HdeResult RunPhde(const CsrGraph& graph, const HdeOptions& options_in) {
  PARHDE_TRACE_SPAN("hde.phde");
  const vid_t n = graph.NumVertices();
  if (n < 3) return TrivialSmallLayout(graph, options_in);

  HdeOptions options = options_in;
  options.subspace_dim =
      std::min<int>(options.subspace_dim, static_cast<int>(n) - 1);

  HdeResult result;

  // ---- BFS phase (same machinery as ParHDE). ----
  DenseMatrix C = RunDistancePhaseWithRecovery(graph, options, result);

  // ---- Column centering: two-phase (parallel mean, parallel subtract). ----
  {
    obs::Phase center(result.timings, phase::kColCenter);
    for (std::size_t c = 0; c < C.Cols(); ++c) CenterInPlace(C.Col(c));
  }
  CheckMatrixFinite(C, phase::kColCenter, "centered distance matrix");
  result.kept_columns = static_cast<int>(C.Cols());

  PcaCoordinates(C, options, result);
  return result;
}

void PcaCoordinates(const DenseMatrix& C, const HdeOptions& options,
                    HdeResult& result) {
  // ---- MatMul: the small Gram matrix CᵀC. ----
  DenseMatrix Z;
  {
    obs::Phase matmul(result.timings, phase::kMatMul);
    Z = TransposeTimes(C, C);
  }

  // ---- Eigensolve: PCA takes the two *largest* eigenvalues of CᵀC. ----
  DenseMatrix Y;
  {
    obs::Phase eigensolve(result.timings, phase::kEigensolve);
    const EigenDecomposition eig =
        resilience::SolveSmallEigen(Z, phase::kEigensolve, options.resilience);
    const std::size_t axes = std::min<std::size_t>(2, eig.values.size());
    Y = LargestEigenvectors(eig, axes);
    for (std::size_t a = 0; a < axes; ++a) {
      result.axis_eigenvalue[a] = eig.values[eig.values.size() - 1 - a];
    }
  }

  // ---- Coordinates: [x,y] = C·Y. ----
  {
    obs::Phase other(result.timings, phase::kOther);
    const DenseMatrix coords = TallTimesSmall(C, Y);
    result.layout.x.assign(coords.Col(0).begin(), coords.Col(0).end());
    if (coords.Cols() > 1) {
      result.layout.y.assign(coords.Col(1).begin(), coords.Col(1).end());
    } else {
      result.layout.y.assign(C.Rows(), 0.0);
    }
  }
  CheckLayoutFinite(result.layout, phase::kEigensolve);
}

}  // namespace parhde
