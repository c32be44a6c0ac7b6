#include "linalg/gemm.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "util/parallel.hpp"

namespace parhde {
namespace {

/// Rows per block for both products: the unit of dynamic scheduling, of
/// TransposeTimes' partial tiles, and of TallTimesSmall's L1-resident
/// output chunk.
constexpr std::int64_t kGemmRowGrain = 2048;

}  // namespace

DenseMatrix TransposeTimes(const DenseMatrix& A, const DenseMatrix& B) {
  assert(A.Rows() == B.Rows());
  const std::size_t n = A.Rows();
  const std::size_t ka = A.Cols();
  const std::size_t kb = B.Cols();
  DenseMatrix Z(ka, kb);
  if (ka == 0 || kb == 0) return Z;

  // Column base pointers, hoisted once for the whole product.
  std::vector<const double*> acols(ka), bcols(kb);
  for (std::size_t a = 0; a < ka; ++a) acols[a] = A.Col(a).data();
  for (std::size_t b = 0; b < kb; ++b) bcols[b] = B.Col(b).data();

  // One ka x kb partial tile per kGemmRowGrain-row block, folded in block
  // order: bitwise identical at any thread count and free of atomics.
  const std::vector<double> sum = ParallelReduce(
      static_cast<std::int64_t>(n), kGemmRowGrain, std::vector<double>(ka * kb),
      [&](std::int64_t lo, std::int64_t hi) {
        std::vector<double> local(ka * kb);
        // Gather row i of B once into a contiguous buffer, then stream it
        // against every A column entry: the inner simd loop runs over brow
        // (L1-resident) instead of kb strided column reads.
        std::vector<double> brow(kb);
        double* browp = brow.data();
        for (std::int64_t i = lo; i < hi; ++i) {
          const auto row = static_cast<std::size_t>(i);
          for (std::size_t b = 0; b < kb; ++b) browp[b] = bcols[b][row];
          for (std::size_t a = 0; a < ka; ++a) {
            const double av = acols[a][row];
            if (av == 0.0) continue;
            double* la = local.data() + a * kb;
#pragma omp simd
            for (std::size_t b = 0; b < kb; ++b) la[b] += av * browp[b];
          }
        }
        return local;
      },
      [](std::vector<double> acc, std::vector<double> block) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += block[i];
        return acc;
      });
  for (std::size_t a = 0; a < ka; ++a) {
    for (std::size_t b = 0; b < kb; ++b) Z.At(a, b) = sum[a * kb + b];
  }
  return Z;
}

DenseMatrix TallTimesSmall(const DenseMatrix& A, const DenseMatrix& B) {
  assert(A.Cols() == B.Rows());
  const std::size_t n = A.Rows();
  const std::size_t k = A.Cols();
  const std::size_t p = B.Cols();
  DenseMatrix C(n, p);
  if (k == 0 || p == 0) return C;

  // Hoisted base pointers: B is column-major, so B.At(j, c) for fixed c is
  // the contiguous k-vector bcols[c] — the naive loop re-resolved that
  // indexing per (row, j) pair.
  std::vector<const double*> acols(k), bcols(p);
  std::vector<double*> ccols(p);
  for (std::size_t j = 0; j < k; ++j) acols[j] = A.Col(j).data();
  for (std::size_t c = 0; c < p; ++c) {
    bcols[c] = B.Col(c).data();
    ccols[c] = C.Col(c).data();
  }

  // Row-chunked axpy formulation: for each output column, accumulate
  // bc[j] * A.Col(j) chunk by chunk. The C chunk stays in L1 across the k
  // axpys and every stream is contiguous (vectorizable), where the naive
  // per-row inner product strided across all k columns at once.
  ParallelFor(static_cast<std::int64_t>(n), kGemmRowGrain,
              [&](std::int64_t lo, std::int64_t hi) {
    for (std::size_t c = 0; c < p; ++c) {
      const double* bc = bcols[c];
      double* cc = ccols[c];
      {
        const double b0 = bc[0];
        const double* aj = acols[0];
#pragma omp simd
        for (std::int64_t i = lo; i < hi; ++i) cc[i] = b0 * aj[i];
      }
      for (std::size_t j = 1; j < k; ++j) {
        const double bj = bc[j];
        const double* aj = acols[j];
#pragma omp simd
        for (std::int64_t i = lo; i < hi; ++i) cc[i] += bj * aj[i];
      }
    }
  });
  return C;
}

}  // namespace parhde
