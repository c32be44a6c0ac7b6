// Laplacian kernels — Step 1 of the TripleProd phase (§3, §3.1).
//
// The fused kernel never materializes L: row i of L·S is computed as
// deg(i)·S(i,:) − Σ_{j∈adj(i)} S(j,:) straight from the CSR arrays and the
// (weighted-)degree vector. The explicit variant allocates a CSR Laplacian
// (diagonal included) and runs a generic SpMM through it — the stand-in for
// MKL's mkl_sparse_d_mm in the §4.4 comparison.
//
// Two fused layouts cover the s spectrum:
//   * per-column (LaplacianTimesMatrixFused): one CSR traversal per column —
//     the paper-literal reference, still optimal at s = 1;
//   * column-blocked (LaplacianTimesMatrixBlocked): CB ∈ {4, 8, 16} columns
//     per traversal with per-vertex register accumulators. Each block is
//     first packed into a vertex-contiguous row-major tile, so one edge
//     gather reads CB consecutive doubles (1-2 cache lines) instead of CB
//     lines scattered across column arrays, and each edge's index and
//     weight are loaded once per *block* instead of once per *column*.
// LaplacianTimesMatrix dispatches between them from SpmmOptions.
#pragma once

#include "graph/csr_graph.hpp"
#include "linalg/dense_matrix.hpp"

namespace parhde {

/// P = L · S, fused, one CSR traversal per column. S and P are n x k
/// column-major; P is overwritten. Works for weighted graphs (L = D − W)
/// and unweighted (L = D − A). The reference kernel for the blocked path.
void LaplacianTimesMatrixFused(const CsrGraph& graph, const DenseMatrix& S,
                               DenseMatrix& P);

/// Widest column block the register-accumulator kernel instantiates.
inline constexpr int kMaxSpmmBlock = 16;

/// P = L · S with `block_width` columns (4, 8, or 16; clamped to
/// kMaxSpmmBlock) processed per CSR traversal. Exactly the same arithmetic
/// per element as the per-column kernel — results match to the last bit.
void LaplacianTimesMatrixBlocked(const CsrGraph& graph, const DenseMatrix& S,
                                 DenseMatrix& P, int block_width);

/// SpMM kernel selection for the fused L·S product.
struct SpmmOptions {
  /// 0 = auto-tune the block width from the column count; 1 = force the
  /// per-column reference kernel; 4/8/16 = force that block width.
  int block_width = 0;
};

/// Blocking only pays once a single column outgrows L2: below this vertex
/// count the per-column kernel's gathers are L2-resident and blocking's
/// pack pass plus wider tile working set cost more than the saved edge
/// sweeps (measured crossover; see bench_spmm_fused).
inline constexpr std::size_t kSpmmBlockAutoMinVertices = std::size_t{1} << 18;

/// Auto-tune rule: per-column for graphs whose columns fit L2
/// (rows < kSpmmBlockAutoMinVertices); above that, the widest robust-win
/// block the column count saturates (k >= 8 -> 8, k >= 4 -> 4, else
/// per-column). CB=16 is reachable by explicit request but never chosen
/// automatically: its two-cache-line rows win on heavy-tailed RMAT
/// degrees but trail CB=8 on shuffled meshes, while CB=8 wins or ties
/// everywhere blocking applies. A `requested` width other than 0 is
/// clamped to [1, kMaxSpmmBlock] and returned as-is.
int ResolveSpmmBlockWidth(int requested, std::size_t k, std::size_t rows);

/// P = L · S through whichever fused kernel `options` selects. This is the
/// entry point the HDE drivers and LOBPCG use.
void LaplacianTimesMatrix(const CsrGraph& graph, const DenseMatrix& S,
                          DenseMatrix& P, const SpmmOptions& options = {});

/// y = L · x single-vector convenience (used by power iteration and tests).
void LaplacianTimesVector(const CsrGraph& graph, std::span<const double> x,
                          std::span<double> y);

/// Explicit CSR Laplacian with diagonal entries, for the generic baseline.
struct ExplicitLaplacian {
  std::vector<eid_t> offsets;   // n+1
  std::vector<vid_t> columns;   // includes the diagonal entry per row
  std::vector<double> values;   // deg(i) on diagonal, -w(i,j) off-diagonal
};

/// Builds the explicit Laplacian (the allocation the paper's prior approach
/// and MKL both require, and ParHDE avoids).
ExplicitLaplacian BuildExplicitLaplacian(const CsrGraph& graph);

/// Bytes the explicit Laplacian occupies for this graph — the footprint
/// the paper blames for the prior implementation's out-of-memory failures
/// on billion-edge inputs (§4.2). ParHDE's fused kernel needs none of it.
std::int64_t ExplicitLaplacianBytes(const CsrGraph& graph);

/// P = L · S through the explicit matrix — generic CSR SpMM.
void LaplacianTimesMatrixExplicit(const ExplicitLaplacian& L,
                                  const DenseMatrix& S, DenseMatrix& P);

/// y = (D^{-1} A) x — one step of the walk-matrix power iteration used by
/// the §4.5.3 eigensolver-preprocessing extension.
void TransitionTimesVector(const CsrGraph& graph, std::span<const double> x,
                           std::span<double> y);

/// Quadratic form x' L x == sum over edges of w(i,j) (x_i − x_j)^2, computed
/// edge-wise (the identity of §2.1; used as a property-test oracle and as
/// the layout-energy metric in EXPERIMENTS.md).
double LaplacianQuadraticForm(const CsrGraph& graph, std::span<const double> x);

}  // namespace parhde
