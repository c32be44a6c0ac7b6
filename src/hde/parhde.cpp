#include "hde/parhde.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "hde/pivots.hpp"
#include "linalg/gemm.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/laplacian_ops.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "resilience/recovery.hpp"
#include "util/status.hpp"

namespace parhde {
namespace {

std::vector<double> MetricVector(const CsrGraph& graph,
                                 const HdeOptions& options) {
  // Weighted degrees for D-orthogonalization; all-ones for the plain
  // (Laplacian-eigenvector) variant of §4.5.1.
  if (options.metric == OrthoMetric::DegreeWeighted) {
    return graph.WeightedDegrees();
  }
  return std::vector<double>(static_cast<std::size_t>(graph.NumVertices()),
                             1.0);
}

}  // namespace

HdeResult TrivialSmallLayout(const CsrGraph& graph,
                             const HdeOptions& options) {
  const vid_t n = graph.NumVertices();
  const auto axes = static_cast<std::size_t>(std::max(1, options.num_axes));
  HdeResult result;
  result.layout.x.assign(static_cast<std::size_t>(n), 0.0);
  result.layout.y.assign(static_cast<std::size_t>(n), 0.0);
  if (n == 2) {
    result.layout.x[0] = -0.5;
    result.layout.x[1] = 0.5;
  }
  result.axes = DenseMatrix(static_cast<std::size_t>(n), axes);
  for (vid_t v = 0; v < n; ++v) {
    result.axes.At(static_cast<std::size_t>(v), 0) =
        result.layout.x[static_cast<std::size_t>(v)];
  }
  result.eigenvalues.assign(axes, 0.0);
  return result;
}

void CheckMatrixFinite(const DenseMatrix& M, const char* phase,
                       const char* what) {
  for (std::size_t c = 0; c < M.Cols(); ++c) {
    const auto col = M.Col(c);
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (!std::isfinite(col[i])) {
        throw ParhdeError(ErrorCode::kNumerical, phase,
                          std::string(what) + " contains a non-finite value "
                          "at row " + std::to_string(i) + ", column " +
                          std::to_string(c));
      }
    }
  }
}

void CheckLayoutFinite(const Layout& layout, const char* phase) {
  for (std::size_t v = 0; v < layout.x.size(); ++v) {
    if (!std::isfinite(layout.x[v]) || !std::isfinite(layout.y[v])) {
      throw ParhdeError(ErrorCode::kNumerical, phase,
                        "non-finite coordinate for vertex " +
                            std::to_string(v));
    }
  }
}

HdeResult RunParHde(const CsrGraph& graph, const HdeOptions& options_in) {
  PARHDE_TRACE_SPAN("hde.parhde");
  const vid_t n = graph.NumVertices();
  if (n < 3) return TrivialSmallLayout(graph, options_in);

  HdeOptions options = options_in;
  options.subspace_dim =
      std::min<int>(options.subspace_dim, static_cast<int>(n) - 1);
  options.num_axes = std::max(1, options.num_axes);

  HdeResult result;
  const std::vector<double> metric = MetricVector(graph, options);
  GramSchmidtOptions gs_opts;
  gs_opts.kind = options.gs_kind;
  gs_opts.drop_tol = options.drop_tol;
  gs_opts.block_width =
      static_cast<std::size_t>(std::max(1, options.gs_block));

  // ---- BFS phase: s traversals, interleaved with pivot selection. ----
  const DenseMatrix B = RunDistancePhaseWithRecovery(graph, options, result);

  // ---- DOrtho phase: build S = [s0 | b1 .. bs] and D-orthogonalize,
  // under the GS downgrade ladder (blocked/classical -> pipelined MGS ->
  // reference MGS). Each attempt rebuilds S from the retained B: a failed
  // attempt leaves S scaled, compacted, or poisoned in place.
  DenseMatrix S;
  GramSchmidtResult gs;
  {
    obs::Phase dortho(result.timings, phase::kDOrtho);
    std::vector<const char*> gs_rungs;
    std::vector<GramSchmidtOptions> gs_configs;
    GramSchmidtOptions cfg = gs_opts;
    switch (gs_opts.kind) {
      case GramSchmidtKind::Blocked:
        gs_rungs.push_back("bcgs");
        gs_configs.push_back(cfg);
        break;
      case GramSchmidtKind::Classical:
        gs_rungs.push_back("cgs");
        gs_configs.push_back(cfg);
        break;
      case GramSchmidtKind::Modified:
        break;
    }
    cfg.kind = GramSchmidtKind::Modified;
    cfg.reference_mgs = false;
    if (gs_opts.kind != GramSchmidtKind::Modified || !gs_opts.reference_mgs) {
      gs_rungs.push_back("mgs");
      gs_configs.push_back(cfg);
    }
    cfg.reference_mgs = true;
    gs_rungs.push_back("mgs-reference");
    gs_configs.push_back(cfg);
    gs = resilience::RunLadder(
        phase::kDOrtho, options.resilience,
        options.resilience.dortho_budget_seconds, gs_rungs.data(),
        gs_rungs.size(), [&](std::size_t rung) {
          // B.Cols(), not s: the distance phase may have stopped early at
          // pivot saturation and truncated B to the effective pivot count.
          S = DenseMatrix(static_cast<std::size_t>(n), B.Cols() + 1);
          Fill(S.Col(0), 1.0 / std::sqrt(static_cast<double>(n)));
          for (std::size_t i = 0; i < B.Cols(); ++i) {
            Copy(B.Col(i), S.Col(i + 1));
          }
          GramSchmidtResult attempt_gs =
              DOrthogonalize(S, metric, gs_configs[rung]);
          CheckMatrixFinite(S, phase::kDOrtho, "orthogonalized subspace");
          return attempt_gs;
        });
  }

  // Drop the degenerate 0th column (Alg. 3 line 16). It always survives
  // orthogonalization (it is the first column), so it is compacted to the
  // front.
  assert(!gs.kept.empty() && gs.kept.front() == 0);
  {
    std::vector<std::size_t> tail(S.Cols() > 0 ? S.Cols() - 1 : 0);
    for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = i + 1;
    S.KeepColumns(tail);
  }
  result.kept_columns = static_cast<int>(S.Cols());
  if (S.Cols() == 0) {
    // Pathological input (e.g. complete graph with s=1): fall back to a
    // degenerate layout at the origin rather than crash.
    result.layout.x.assign(static_cast<std::size_t>(n), 0.0);
    result.layout.y.assign(static_cast<std::size_t>(n), 0.0);
    result.axes = DenseMatrix(static_cast<std::size_t>(n), 0);
    return result;
  }

  // ---- TripleProd phase: P = L·S (fused SpMM), then Z = Sᵀ·P. ----
  DenseMatrix P(S.Rows(), S.Cols());
  {
    obs::Phase ls(result.timings, phase::kTripleProdLs);
    SpmmOptions spmm;
    spmm.block_width = options.spmm_block;
    LaplacianTimesMatrix(graph, S, P, spmm);
  }
  DenseMatrix Z;
  {
    obs::Phase gemm(result.timings, phase::kTripleProdGemm);
    Z = TransposeTimes(S, P);
  }

  // ---- Eigensolve on the small s x s matrix. ----
  DenseMatrix Y;
  {
    obs::Phase eigensolve(result.timings, phase::kEigensolve);
    EigenDecomposition eig =
        resilience::SolveSmallEigen(Z, phase::kEigensolve, options.resilience);
    // With S D-orthonormal, minimizing the Hall energy in the subspace means
    // taking the *smallest* eigenvalues of Z (the paper's "top two" refers
    // to the reversed ordering of the transition matrix, §2.1).
    const auto axes =
        std::min<std::size_t>(static_cast<std::size_t>(options.num_axes),
                              eig.values.size());
    Y = SmallestEigenvectors(eig, axes);
    result.eigenvalues.assign(eig.values.begin(),
                              eig.values.begin() + static_cast<std::ptrdiff_t>(axes));
    for (std::size_t a = 0; a < std::min<std::size_t>(2, axes); ++a) {
      result.axis_eigenvalue[a] = eig.values[a];
    }
  }

  // ---- Coordinates: axes = B·Y (paper literal) or S·Y. ----
  {
    obs::Phase other(result.timings, phase::kOther);
    if (options.basis == CoordBasis::Subspace) {
      result.axes = TallTimesSmall(S, Y);
    } else {
      // Columns of S map to kept input columns; kept[0] was the unit vector,
      // so subspace column c corresponds to B column kept[c+1] - 1.
      DenseMatrix Bkept(B.Rows(), S.Cols());
      for (std::size_t c = 0; c < S.Cols(); ++c) {
        Copy(B.Col(gs.kept[c + 1] - 1), Bkept.Col(c));
      }
      result.axes = TallTimesSmall(Bkept, Y);
    }
    result.layout.x.assign(result.axes.Col(0).begin(),
                           result.axes.Col(0).end());
    if (result.axes.Cols() > 1) {
      result.layout.y.assign(result.axes.Col(1).begin(),
                             result.axes.Col(1).end());
    } else {
      result.layout.y.assign(static_cast<std::size_t>(n), 0.0);
    }
  }
  CheckLayoutFinite(result.layout, phase::kEigensolve);
  return result;
}

}  // namespace parhde
