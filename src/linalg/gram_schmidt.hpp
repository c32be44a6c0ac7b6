// D-weighted Gram-Schmidt orthogonalization — the DOrtho phase (§3).
//
// Given columns s_0..s_k of S (s_0 is the normalized unit vector), produce
// vectors satisfying s_i' D s_j = delta_ij. Three kinds:
//   * Modified — the paper default. The projection loop is *pipelined*:
//     the axpy against kept column j and the dot against column j+1 fuse
//     into one sweep over the target, so pushing against k kept columns
//     costs k+1 passes instead of the textbook 2k (set
//     GramSchmidtOptions::reference_mgs to force the 2k-pass loop — the
//     equivalence baseline for tests and benches).
//   * Classical — Table 7's alternative: all k coefficients batched into
//     one fused Level-2 pass, then subtracted in a second (2 passes total,
//     classical-GS stability).
//   * Blocked — CGS between blocks of `block_width` kept columns, MGS
//     within a block: approaches CGS throughput (most projections hit the
//     batched path) while the MGS inner stage keeps the current block
//     orthonormal to working precision, which bounds the error the
//     between-block CGS stage can commit (BCGS stability argument).
// Near-dependent columns (norm <= drop_tol after projection) are dropped,
// matching Alg. 3 lines 12-13.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace parhde {

enum class GramSchmidtKind {
  Modified,   // paper default: MGS, one (pipelined) projection at a time
  Classical,  // Table 7 alternative: CGS, coefficients batched per column
  Blocked,    // CGS between blocks, MGS within a block
};

struct GramSchmidtOptions {
  GramSchmidtKind kind = GramSchmidtKind::Modified;
  /// Columns with post-projection D-norm <= drop_tol are discarded
  /// (paper uses 1e-3).
  double drop_tol = 1e-3;
  /// Kept-column block size for GramSchmidtKind::Blocked (clamped to >= 1).
  std::size_t block_width = 8;
  /// Forces the unpipelined 2k-pass MGS projection loop for
  /// GramSchmidtKind::Modified — the reference implementation the
  /// kernel-equivalence tests and bench_dortho compare against.
  bool reference_mgs = false;
};

struct GramSchmidtResult {
  /// Indices (into the input matrix) of columns that survived, ascending.
  std::vector<std::size_t> kept;
  /// Number of dropped columns.
  std::size_t dropped = 0;
};

/// D-orthogonalizes the columns of `S` in place against the diagonal metric
/// `d` (the weighted-degree vector). On return, the surviving columns are
/// compacted to the front of S (use result.kept to map back).
///
/// Passing a vector of all ones makes this plain (Laplacian-eigenvector)
/// orthogonalization — the §4.5.1 variant.
GramSchmidtResult DOrthogonalize(DenseMatrix& S, std::span<const double> d,
                                 const GramSchmidtOptions& options = {});

/// Max |s_i' D s_j - delta_ij| over all column pairs — the orthonormality
/// residual, used by tests and the EXPERIMENTS verification pass.
/// Parallelized over the upper-triangle pairs (it is O(s²·n)).
double OrthonormalityResidual(const DenseMatrix& S, std::span<const double> d);

}  // namespace parhde
