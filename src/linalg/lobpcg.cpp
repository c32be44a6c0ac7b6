#include "linalg/lobpcg.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/gemm.hpp"
#include "linalg/gram_schmidt.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/laplacian_ops.hpp"
#include "linalg/vector_ops.hpp"
#include "resilience/deadline.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace parhde {
namespace {

/// Appends `cols` columns of `src` into `dst` starting at dst column `at`.
void CopyBlock(const DenseMatrix& src, DenseMatrix& dst, std::size_t at) {
  for (std::size_t c = 0; c < src.Cols(); ++c) {
    Copy(src.Col(c), dst.Col(at + c));
  }
}

}  // namespace

LobpcgResult Lobpcg(const CsrGraph& graph, const LobpcgOptions& options,
                    const DenseMatrix* initial) {
  const auto n = static_cast<std::size_t>(graph.NumVertices());
  const auto k = static_cast<std::size_t>(std::max(1, options.block_size));
  assert(n >= 3 * k + 1);

  LobpcgResult result;
  const auto& d = graph.WeightedDegrees();

  // Current iterate block X.
  DenseMatrix X(n, k);
  if (initial) {
    assert(initial->Rows() == n);
    for (std::size_t c = 0; c < k && c < initial->Cols(); ++c) {
      Copy(initial->Col(c), X.Col(c));
    }
  } else {
    Xoshiro256 rng(options.seed);
    for (std::size_t c = 0; c < k; ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        X.At(r, c) = rng.NextDouble() * 2.0 - 1.0;
      }
    }
  }

  DenseMatrix P(n, 0);  // previous update directions (empty on iteration 1)
  DenseMatrix LX(n, k);
  result.eigenvalues.assign(k, 0.0);
  result.residuals.assign(k, 1.0);

  GramSchmidtOptions gs;
  gs.drop_tol = 1e-10;  // basis vectors, not noisy distance columns

  for (int it = 1; it <= options.max_iterations; ++it) {
    resilience::CheckDeadline("LOBPCG");  // iteration granularity
    result.iterations = it;

    // Rayleigh quotients and residuals of the current block.
    LaplacianTimesMatrix(graph, X, LX);
    DenseMatrix R(n, k);
    bool all_converged = true;
    for (std::size_t c = 0; c < k; ++c) {
      const double xdx = WeightedDot(X.Col(c), X.Col(c), d);
      const double lambda =
          xdx > 0 ? Dot(X.Col(c), LX.Col(c)) / xdx : 0.0;
      result.eigenvalues[c] = lambda;
      // r = Lx − λ D x
      auto r = R.Col(c);
      const auto x = X.Col(c);
      const auto lx = LX.Col(c);
      ParallelFor(static_cast<std::int64_t>(n), kStreamGrain,
                  [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i) {
                      const auto j = static_cast<std::size_t>(i);
                      r[j] = lx[j] - lambda * d[j] * x[j];
                    }
                  });
      const double denom =
          std::max(1.0, std::abs(lambda) * std::sqrt(xdx));
      result.residuals[c] = Norm2(r) / denom;
      if (result.residuals[c] > options.tolerance) all_converged = false;
    }
    if (all_converged) {
      result.converged = true;
      break;
    }

    // Preconditioned residuals W = D⁻¹ R.
    DenseMatrix W(n, k);
    for (std::size_t c = 0; c < k; ++c) {
      const auto r = R.Col(c);
      auto w = W.Col(c);
      ParallelFor(static_cast<std::int64_t>(n), kStreamGrain,
                  [&](std::int64_t lo, std::int64_t hi) {
                    for (std::int64_t i = lo; i < hi; ++i) {
                      const auto j = static_cast<std::size_t>(i);
                      w[j] = d[j] > 0 ? r[j] / d[j] : 0.0;
                    }
                  });
    }

    // Basis V = [1 | X | W | P], D-orthonormalized; the constant column
    // pins the trivial eigenvector so Ritz pairs are non-trivial.
    const std::size_t total = 1 + k + k + P.Cols();
    DenseMatrix V(n, total);
    Fill(V.Col(0), 1.0);
    CopyBlock(X, V, 1);
    CopyBlock(W, V, 1 + k);
    if (P.Cols() > 0) CopyBlock(P, V, 1 + 2 * k);
    DOrthogonalize(V, d, gs);
    // Drop the constant direction (always first/kept).
    {
      std::vector<std::size_t> tail(V.Cols() > 0 ? V.Cols() - 1 : 0);
      for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = i + 1;
      V.KeepColumns(tail);
    }
    if (V.Cols() < k) break;  // basis collapsed; cannot proceed

    // Rayleigh-Ritz: A = Vᵀ L V (V is D-orthonormal so B = I).
    DenseMatrix LV(n, V.Cols());
    LaplacianTimesMatrix(graph, V, LV);
    const DenseMatrix A = TransposeTimes(V, LV);
    const EigenDecomposition eig = SymmetricEigen(A);
    const DenseMatrix C = SmallestEigenvectors(eig, k);

    // New block and implicit conjugate directions P = X_new − X.
    DenseMatrix X_new = TallTimesSmall(V, C);
    DenseMatrix P_new(n, k);
    for (std::size_t c = 0; c < k; ++c) {
      Copy(X_new.Col(c), P_new.Col(c));
      Axpy(-1.0, X.Col(c), P_new.Col(c));
    }
    X = std::move(X_new);
    P = std::move(P_new);
  }

  result.eigenvectors = std::move(X);
  return result;
}

}  // namespace parhde
