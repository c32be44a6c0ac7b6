#include "linalg/gram_schmidt.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>

#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "resilience/deadline.hpp"
#include "resilience/fault_injection.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Reference MGS projection: for each kept column j, one full dot pass then
/// one full axpy pass — 2k sweeps over the target. Kept columns are already
/// D-normalized, so the denominator is 1. Kept as the equivalence baseline.
void ProjectModifiedReference(DenseMatrix& S, std::span<const double> d,
                              std::span<const std::size_t> kept,
                              std::size_t target) {
  auto t = S.Col(target);
  for (const std::size_t j : kept) {
    const auto sj = S.Col(j);
    const double coeff = WeightedDot(sj, t, d);
    Axpy(-coeff, sj, t);
  }
  obs::CounterAdd(obs::Counter::kDOrthoSweeps,
                  2 * static_cast<std::int64_t>(kept.size()));
}

/// Pipelined MGS projection: the axpy against kept column j and the dot
/// against column j+1 fuse into ONE sweep — each element of t is updated
/// and immediately folded into the next coefficient while still in
/// register. k+1 sweeps instead of 2k, with arithmetic per element
/// identical to the reference (only the reduction grouping differs).
void ProjectModifiedPipelined(DenseMatrix& S, std::span<const double> d,
                              std::span<const std::size_t> kept,
                              std::size_t target) {
  const std::size_t k = kept.size();
  if (k == 0) return;
  const auto t = S.Col(target);
  const auto n = static_cast<std::int64_t>(t.size());

  // Priming sweep: the coefficient against the first kept column.
  double coeff = WeightedDot(S.Col(kept[0]), t, d);
  for (std::size_t idx = 0; idx < k; ++idx) {
    const auto sj = S.Col(kept[idx]);
    if (idx + 1 < k) {
      const auto sn = S.Col(kept[idx + 1]);
      const double c = coeff;
      coeff = ParallelReduce(
          n, kStreamGrain, 0.0,
          [&](std::int64_t lo, std::int64_t hi) {
            // Locals, not captures, inside the simd loop (see vector_ops).
            double* tp = t.data();
            const double* dp = d.data();
            const double* sjp = sj.data();
            const double* snp = sn.data();
            const double cj = c;
            double next = 0.0;
#pragma omp simd reduction(+ : next)
            for (std::int64_t i = lo; i < hi; ++i) {
              const double updated = tp[i] - cj * sjp[i];
              tp[i] = updated;
              next += snp[i] * dp[i] * updated;
            }
            return next;
          },
          std::plus<>());
    } else {
      // Drain sweep: the last kept column has no successor to dot against.
      Axpy(-coeff, sj, t);
    }
  }
  obs::CounterAdd(obs::Counter::kDOrthoSweeps,
                  static_cast<std::int64_t>(k) + 1);
}

/// CGS: compute every projection coefficient against the original target
/// vector in ONE fused pass (a Level-2 transposed mat-vec, coeffs = SᵀDt),
/// then subtract them all in a second fused pass. Two sweeps over the data
/// instead of MGS's 2k — the batching behind Table 7's 2.1x-2.8x CGS win,
/// at the cost of classical-Gram-Schmidt stability. `against` may be any
/// subset of already-normalized kept columns (the Blocked kind passes the
/// closed-block prefix).
void ProjectClassical(DenseMatrix& S, std::span<const double> d,
                      std::span<const std::size_t> against,
                      std::size_t target) {
  auto t = S.Col(target);
  const std::size_t k = against.size();
  if (k == 0) return;
  const auto n = static_cast<std::int64_t>(t.size());

  // Hoist column base pointers out of the hot loops.
  std::vector<const double*> cols(k);
  for (std::size_t idx = 0; idx < k; ++idx) {
    cols[idx] = S.Col(against[idx]).data();
  }

  // Both passes are tiled over kStreamGrain-row blocks: within a block,
  // each column is streamed sequentially while the block of t/d stays in
  // L1 — column-major layout makes iterating idx in the innermost position
  // a miss per element.

  // Pass 1: coeffs = Sᵀ D t, one k-vector partial per block folded in
  // block order (bitwise identical at any thread count).
  const std::vector<double> coeffs = ParallelReduce(
      n, kStreamGrain, std::vector<double>(k),
      [&](std::int64_t lo, std::int64_t hi) {
        // Locals, not captures, inside the simd loops (see vector_ops).
        const double* tp = t.data();
        const double* dp = d.data();
        std::vector<double> local(k);
        double dt[kStreamGrain];  // d[i]*t[i], shared across all k columns
#pragma omp simd
        for (std::int64_t i = lo; i < hi; ++i) dt[i - lo] = dp[i] * tp[i];
        for (std::size_t idx = 0; idx < k; ++idx) {
          const double* col = cols[idx];
          double acc = 0.0;
#pragma omp simd reduction(+ : acc)
          for (std::int64_t i = lo; i < hi; ++i) acc += col[i] * dt[i - lo];
          local[idx] = acc;
        }
        return local;
      },
      [](std::vector<double> acc, std::vector<double> block) {
        for (std::size_t idx = 0; idx < acc.size(); ++idx) {
          acc[idx] += block[idx];
        }
        return acc;
      });

  // Pass 2: t -= sum_j coeffs[j] * s_j, fused over all kept columns.
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    double* tp = t.data();
    for (std::size_t idx = 0; idx < k; ++idx) {
      const double c = coeffs[idx];
      const double* col = cols[idx];
#pragma omp simd
      for (std::int64_t i = lo; i < hi; ++i) tp[i] -= c * col[i];
    }
  });
  obs::CounterAdd(obs::Counter::kDOrthoSweeps, 2);
}

}  // namespace

GramSchmidtResult DOrthogonalize(DenseMatrix& S, std::span<const double> d,
                                 const GramSchmidtOptions& options) {
  assert(S.Rows() == d.size());
  const std::size_t block_width = std::max<std::size_t>(1, options.block_width);
  GramSchmidtResult result;
  std::vector<std::size_t>& kept = result.kept;
  // Blocked kind: kept[0, closed) sit in closed blocks (projected against
  // via the batched CGS stage); kept[closed, ..) is the open block (MGS).
  std::size_t closed = 0;
  for (std::size_t c = 0; c < S.Cols(); ++c) {
    // Column granularity: the loop is sequential (its projections fork
    // internally), so the deadline may throw directly.
    resilience::CheckDeadline("DOrtho");
    if (PARHDE_FAULT_ONESHOT("gs:nan")) {
      S.Col(c)[0] = std::numeric_limits<double>::quiet_NaN();
    }
    const std::span<const std::size_t> prefix(kept);
    switch (options.kind) {
      case GramSchmidtKind::Modified:
        if (options.reference_mgs) {
          ProjectModifiedReference(S, d, prefix, c);
        } else {
          ProjectModifiedPipelined(S, d, prefix, c);
        }
        break;
      case GramSchmidtKind::Classical:
        ProjectClassical(S, d, prefix, c);
        break;
      case GramSchmidtKind::Blocked:
        // Closed blocks via the batched Level-2 path, the open block via the
        // pipelined MGS stage (BCGS: CGS between blocks, MGS within).
        if (closed > 0) ProjectClassical(S, d, prefix.first(closed), c);
        ProjectModifiedPipelined(S, d, prefix.subspan(closed), c);
        break;
    }
    const double norm = WeightedNorm2(S.Col(c), d);
    if (norm <= options.drop_tol) {
      ++result.dropped;
      continue;
    }
    Scale(S.Col(c), 1.0 / norm);
    kept.push_back(c);
    if (options.kind == GramSchmidtKind::Blocked &&
        kept.size() - closed >= block_width) {
      closed = kept.size();
    }
  }
  S.KeepColumns(kept);
  obs::CounterAdd(obs::Counter::kDOrthoKeptColumns,
                  static_cast<std::int64_t>(kept.size()));
  obs::CounterAdd(obs::Counter::kDOrthoDroppedColumns,
                  static_cast<std::int64_t>(result.dropped));
  return result;
}

double OrthonormalityResidual(const DenseMatrix& S, std::span<const double> d) {
  const std::size_t k = S.Cols();
  const auto n = static_cast<std::int64_t>(S.Rows());
  if (k == 0) return 0.0;

  // Flatten the upper triangle into a pair list and parallelize over it:
  // at s=64 that is 2080 independent O(n) dots — embarrassingly parallel,
  // where the serial triple loop dominated test and bench runtime.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(k * (k + 1) / 2);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i; j < k; ++j) pairs.emplace_back(i, j);
  }
  // Eight pairs per block: at s=64 that is 260 blocks of O(n) dots.
  return ParallelReduce(
      static_cast<std::int64_t>(pairs.size()), 8, 0.0,
      [&](std::int64_t lo, std::int64_t hi) {
        const double* dp = d.data();
        double worst = 0.0;
        for (std::int64_t p = lo; p < hi; ++p) {
          const auto [i, j] = pairs[static_cast<std::size_t>(p)];
          const double* a = S.Col(i).data();
          const double* b = S.Col(j).data();
          double dot = 0.0;
#pragma omp simd reduction(+ : dot)
          for (std::int64_t r = 0; r < n; ++r) dot += a[r] * dp[r] * b[r];
          const double expected = (i == j) ? 1.0 : 0.0;
          worst = std::max(worst, std::abs(dot - expected));
        }
        return worst;
      },
      [](double a, double b) { return std::max(a, b); });
}

}  // namespace parhde
