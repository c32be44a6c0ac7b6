// ParHDE — the paper's primary contribution (Alg. 3): High-Dimensional
// Embedding parallelized for shared memory, organized into the three
// instrumented phases the paper analyzes (BFS, DOrtho, TripleProd) plus the
// negligible eigensolve.
//
// The variants evaluated in the paper are all reachable through HdeOptions:
//   * pivot strategy: k-centers farthest-first (default) vs random
//     concurrent pivots (Table 6);
//   * orthogonalization metric: D-weighted (default) vs plain, which yields
//     Laplacian-eigenvector approximations (§4.5.1);
//   * Gram-Schmidt kind: MGS (default) vs CGS (Table 7) vs blocked BCGS;
//   * distance kernel: direction-optimizing parallel BFS (default), serial
//     BFS, or Δ-stepping SSSP for weighted graphs (§3.3).
#pragma once

#include <cstdint>

#include "bfs/ms_bfs.hpp"
#include "bfs/parallel_bfs.hpp"
#include "graph/csr_graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/gram_schmidt.hpp"
#include "resilience/recovery_log.hpp"
#include "sssp/delta_stepping.hpp"
#include "util/timer.hpp"

namespace parhde {

/// How the s pivot (source) vertices are chosen.
enum class PivotStrategy {
  KCenters,  // farthest-first 2-approximation; BFSes run one at a time,
             // each internally parallel (paper default)
  Random,    // distinct uniform pivots; BFSes run concurrently, each serial
             // (the Table 6 alternative)
};

/// Metric for the Gram-Schmidt inner products.
enum class OrthoMetric {
  DegreeWeighted,  // D-orthogonalization: approximates the generalized
                   // eigenproblem Lx = µDx (paper default)
  Unweighted,      // plain orthogonalization: approximates Laplacian
                   // eigenvectors (§4.5.1 variant)
};

/// Which matrix multiplies the small eigenvectors to produce coordinates.
enum class CoordBasis {
  DistanceMatrix,  // [x,y] = B·Y — the paper-literal Alg. 3 line 20
  Subspace,        // [x,y] = S·Y — the orthonormal-basis formulation
};

/// Which traversal produces the distance columns.
enum class DistanceKernel {
  ParallelBfs,     // direction-optimizing BFS (unweighted graphs)
  SerialBfs,       // reference/baseline traversal
  DeltaStepping,   // Δ-stepping SSSP (weighted graphs, §3.3)
  MultiSourceBfs,  // bit-packed 64-wide batched BFS; random pivots only —
                   // k-centers interleaves selection with traversal, so it
                   // falls back to ParallelBfs there
  Dijkstra,        // serial binary-heap Dijkstra per pivot — the recovery
                   // ladder's last weighted rung: slowest, but free of the
                   // bucket arithmetic a poisoned weight can derail
};

/// How the weighted (Δ-stepping) distance phase schedules its s searches
/// when pivots are independent (PivotStrategy::Random). Mirrors the
/// unweighted engine split: one internally-parallel search at a time vs
/// many concurrent sequential searches (§4.4, Table 6).
enum class SsspEngine {
  Auto,        // Concurrent when s >= thread count, else Parallel
  Parallel,    // one parallel Δ-stepping search at a time
  Concurrent,  // one sequential Dijkstra per thread over the s pivots
};

/// Random-pivot phases with at least this many sources upgrade the default
/// ParallelBfs kernel to MultiSourceBfs automatically: batching amortizes
/// each adjacency read over up to 64 concurrent traversals, and the win
/// already shows at a fraction of one full batch.
inline constexpr int kMsBfsAutoThreshold = 8;

/// Diameter guard for that automatic upgrade. Batching only amortizes when
/// the lane waves overlap in time; arrival times of different sources at a
/// vertex spread over roughly the graph diameter, so once the diameter
/// approaches the 64-lane word width every vertex re-enters the frontier
/// once per lane and the batch degenerates to independent BFSes paying
/// word-op overhead. Empirically the crossover sits near eccentricity
/// 30-40 (small-world graphs win 8-23x, meshes/roads above ~40 lose), so
/// the auto path probes one pivot's eccentricity and batches only when it
/// is at most half the lane width. An explicit
/// DistanceKernel::MultiSourceBfs request skips the probe.
inline constexpr dist_t kMsBfsDiameterCap = 32;

struct HdeOptions {
  /// Subspace dimension s; the paper uses 10 for timing tables and 50 as
  /// the "common choice" (Fig. 5).
  int subspace_dim = 10;
  /// BFS start vertex; kInvalidVid picks one from `seed`.
  vid_t start_vertex = kInvalidVid;
  std::uint64_t seed = 1;
  PivotStrategy pivots = PivotStrategy::KCenters;
  OrthoMetric metric = OrthoMetric::DegreeWeighted;
  GramSchmidtKind gs_kind = GramSchmidtKind::Modified;
  CoordBasis basis = CoordBasis::DistanceMatrix;
  DistanceKernel kernel = DistanceKernel::ParallelBfs;
  BfsOptions bfs;
  MsBfsOptions ms_bfs;
  DeltaSteppingOptions sssp;
  /// Scheduling of the weighted random-pivot distance phase; ignored for
  /// BFS kernels and for k-centers pivots (whose searches are inherently
  /// sequential, each internally parallel).
  SsspEngine sssp_engine = SsspEngine::Auto;
  /// Drop tolerance for near-dependent distance vectors (Alg. 3 line 12).
  double drop_tol = 1e-3;
  /// Kept-column block size for GramSchmidtKind::Blocked (CGS between
  /// blocks of this many columns, MGS within a block).
  int gs_block = 8;
  /// Column-block width for the fused Laplacian SpMM in TripleProd:
  /// 0 auto-tunes from the kept column count, 1 forces the per-column
  /// reference kernel, 4/8/16 force that width (see linalg/laplacian_ops).
  int spmm_block = 0;
  /// Number of layout axes p — 2 for screen layouts (paper default),
  /// 3 for 3-D layouts (§2.1 allows either).
  int num_axes = 2;
  /// Permits the automatic ParallelBfs -> MultiSourceBfs upgrade in the
  /// random-pivot phase. The distance-phase recovery ladder clears it on a
  /// downgraded retry so the fallback cannot re-select the failed engine.
  bool msbfs_auto = true;
  /// Recovery policy and per-phase deadline budgets (resilience layer).
  resilience::ResilienceOptions resilience;
};

/// A 2-D layout: coordinate k of vertex i is (x[i], y[i]).
struct Layout {
  std::vector<double> x;
  std::vector<double> y;
};

/// Per-connected-component bookkeeping reported by the disconnected-graph
/// driver (hde/components_layout.hpp). Boxes are in the final (packed)
/// coordinate space, so callers can verify components do not overlap.
struct ComponentStat {
  vid_t vertices = 0;
  eid_t edges = 0;
  double min_x = 0.0;
  double max_x = 0.0;
  double min_y = 0.0;
  double max_y = 0.0;
};

/// Everything a benchmark or application needs from one HDE run.
struct HdeResult {
  Layout layout;
  /// Phase names: "BFS", "BFS:Other", "DOrtho", "TripleProd:LS",
  /// "TripleProd:GEMM", "Eigensolve", "Other".
  PhaseTimings timings;
  /// The s source vertices in selection order.
  std::vector<vid_t> pivots;
  /// Distance columns that survived orthogonalization (<= s).
  int kept_columns = 0;
  /// Eigenvalues of the projected matrix picked for the first two axes.
  double axis_eigenvalue[2] = {0.0, 0.0};
  /// All num_axes axes as an n x p matrix; layout.x/.y mirror columns 0/1.
  DenseMatrix axes;
  /// Eigenvalue per axis, in axis order.
  std::vector<double> eigenvalues;
  /// Aggregate traversal statistics over all s searches.
  BfsStats bfs_stats;
  /// Per-component stats when the layout came from the disconnected-graph
  /// driver; a single entry (or empty, for plain RunParHde calls) otherwise.
  std::vector<ComponentStat> components;
};

/// Standard phase-name constants shared by the drivers and benches.
namespace phase {
inline constexpr const char* kBfs = "BFS";
inline constexpr const char* kBfsOther = "BFS:Other";
inline constexpr const char* kDOrtho = "DOrtho";
inline constexpr const char* kTripleProdLs = "TripleProd:LS";
inline constexpr const char* kTripleProdGemm = "TripleProd:GEMM";
inline constexpr const char* kEigensolve = "Eigensolve";
inline constexpr const char* kOther = "Other";
inline constexpr const char* kColCenter = "ColCenter";
inline constexpr const char* kDblCenter = "DblCntr";
inline constexpr const char* kMatMul = "MatMul";
inline constexpr const char* kComponents = "Components";
}  // namespace phase

/// Runs ParHDE on a connected undirected graph. The subspace dimension is
/// clamped to n - 1. Graphs with n < 3 have no usable distance subspace and
/// get the trivial finite layout from TrivialSmallLayout — defined behavior
/// in every build, where the seed version asserted. Disconnected graphs
/// should go through RunHdeOnComponents (hde/components_layout.hpp); fed
/// directly, unreachable distances are clamped to n, which distorts the
/// embedding silently. Throws ParhdeError (kNumerical / kNoConvergence)
/// when a numerical escape or eigensolver failure survives the built-in
/// power-iteration fallback.
HdeResult RunParHde(const CsrGraph& graph, const HdeOptions& options = {});

/// Deterministic finite layout for graphs too small for a distance
/// subspace (n < 3): the origin for n = 1, a unit horizontal segment for
/// n = 2, empty for n = 0. Used as the graceful-degradation path by every
/// HDE driver and by the per-component layout packer.
HdeResult TrivialSmallLayout(const CsrGraph& graph, const HdeOptions& options);

/// Throws ParhdeError(kNumerical, phase, ...) if any entry of M is NaN or
/// infinite. The drivers run this after each numeric phase (O(n*s) once) so
/// Gram-Schmidt rank collapse or an eigensolver escape surfaces as a typed
/// error naming the offending phase instead of silently corrupt coordinates.
void CheckMatrixFinite(const DenseMatrix& M, const char* phase,
                       const char* what);

/// Same sweep for a finished layout.
void CheckLayoutFinite(const Layout& layout, const char* phase);

}  // namespace parhde
