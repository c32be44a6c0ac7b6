#include "hde/prior_baseline.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "bfs/serial_bfs.hpp"
#include "hde/pivots.hpp"
#include "linalg/gemm.hpp"
#include "linalg/jacobi_eigen.hpp"
#include "linalg/laplacian_ops.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/counters.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/prng.hpp"

namespace parhde {
namespace {

/// Expression-template-style vector ops that materialize temporaries, the
/// way naive Eigen usage does: every projection allocates and copies.
std::vector<double> AllocatingScale(const std::vector<double>& x,
                                    double alpha) {
  std::vector<double> out(x.size());
  const auto n = static_cast<std::int64_t>(x.size());
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] = alpha * x[static_cast<std::size_t>(i)];
    }
  });
  return out;
}

std::vector<double> AllocatingSub(const std::vector<double>& x,
                                  const std::vector<double>& y) {
  std::vector<double> out(x.size());
  const auto n = static_cast<std::int64_t>(x.size());
  ParallelFor(n, kStreamGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] =
          x[static_cast<std::size_t>(i)] - y[static_cast<std::size_t>(i)];
    }
  });
  return out;
}

}  // namespace

HdeResult RunPriorHde(const CsrGraph& graph, const HdeOptions& options_in) {
  PARHDE_TRACE_SPAN("hde.prior");
  const vid_t n = graph.NumVertices();
  if (n < 3) return TrivialSmallLayout(graph, options_in);

  HdeOptions options = options_in;
  options.subspace_dim =
      std::min<int>(options.subspace_dim, static_cast<int>(n) - 1);
  const int s = options.subspace_dim;

  HdeResult result;

  // ---- BFS phase: serial traversals, k-centers selection. ----
  DenseMatrix B(static_cast<std::size_t>(n), static_cast<std::size_t>(s));
  {
    vid_t source = options.start_vertex;
    if (source == kInvalidVid) {
      Xoshiro256 rng(options.seed);
      source =
          static_cast<vid_t>(rng.NextBounded(static_cast<std::uint64_t>(n)));
    }
    std::vector<dist_t> to_sources(static_cast<std::size_t>(n), kInfDist);
    for (int i = 0; i < s; ++i) {
      result.pivots.push_back(source);
      obs::Phase bfs(result.timings, phase::kBfs);
      const auto hops = SerialBfs(graph, source);
      obs::CounterAdd(obs::Counter::kSerialBfsSearches, 1);

      obs::Phase other(result.timings, phase::kBfsOther);
      auto column = B.Col(static_cast<std::size_t>(i));
      for (vid_t v = 0; v < n; ++v) {
        const dist_t d = hops[static_cast<std::size_t>(v)];
        column[static_cast<std::size_t>(v)] =
            d == kInfDist ? static_cast<double>(n) : static_cast<double>(d);
        to_sources[static_cast<std::size_t>(v)] =
            std::min(to_sources[static_cast<std::size_t>(v)], d);
      }
      vid_t far = kInvalidVid;
      dist_t far_d = -1;
      for (vid_t v = 0; v < n; ++v) {
        const dist_t d = to_sources[static_cast<std::size_t>(v)];
        if (d != kInfDist && d > far_d) {
          far_d = d;
          far = v;
        }
      }
      source = far == kInvalidVid ? source : far;
    }
  }

  // ---- DOrtho with allocating temporaries (Eigen-usage style). ----
  DenseMatrix S(static_cast<std::size_t>(n), static_cast<std::size_t>(s) + 1);
  std::vector<std::size_t> kept;
  {
    obs::Phase dortho(result.timings, phase::kDOrtho);
    Fill(S.Col(0), 1.0 / std::sqrt(static_cast<double>(n)));
    for (int i = 0; i < s; ++i) {
      Copy(B.Col(static_cast<std::size_t>(i)),
           S.Col(static_cast<std::size_t>(i) + 1));
    }
    const auto& degrees = graph.WeightedDegrees();
    for (std::size_t c = 0; c < S.Cols(); ++c) {
      std::vector<double> t(S.Col(c).begin(), S.Col(c).end());
      for (const std::size_t j : kept) {
        const auto sj = S.Col(j);
        const double coeff = WeightedDot(sj, t, degrees);
        // Temporary-allocating update: t = t - coeff * s_j.
        const std::vector<double> sj_copy(sj.begin(), sj.end());
        t = AllocatingSub(t, AllocatingScale(sj_copy, coeff));
      }
      const double norm = WeightedNorm2(t, degrees);
      if (norm <= options.drop_tol) continue;
      const auto scaled = AllocatingScale(t, 1.0 / norm);
      Copy(scaled, S.Col(c));
      kept.push_back(c);
    }
    S.KeepColumns(kept);
  }
  // Drop the degenerate unit column.
  {
    std::vector<std::size_t> tail(S.Cols() > 0 ? S.Cols() - 1 : 0);
    for (std::size_t i = 0; i < tail.size(); ++i) tail[i] = i + 1;
    S.KeepColumns(tail);
  }
  result.kept_columns = static_cast<int>(S.Cols());
  if (S.Cols() == 0) {
    result.layout.x.assign(static_cast<std::size_t>(n), 0.0);
    result.layout.y.assign(static_cast<std::size_t>(n), 0.0);
    return result;
  }

  // ---- TripleProd through the explicitly constructed Laplacian. ----
  DenseMatrix P(S.Rows(), S.Cols());
  {
    obs::Phase ls(result.timings, phase::kTripleProdLs);
    // The explicit construction is what blew up the prior code's memory
    // footprint (§4.2) — and unlike MKL's untimed allocation (§4.4), it is
    // part of the measured step here, as it was in the prior code.
    const ExplicitLaplacian L = BuildExplicitLaplacian(graph);
    LaplacianTimesMatrixExplicit(L, S, P);
  }
  DenseMatrix Z;
  {
    obs::Phase gemm(result.timings, phase::kTripleProdGemm);
    Z = TransposeTimes(S, P);
  }

  DenseMatrix Y;
  {
    obs::Phase eigensolve(result.timings, phase::kEigensolve);
    const EigenDecomposition eig = SymmetricEigen(Z);
    const std::size_t axes = std::min<std::size_t>(2, eig.values.size());
    Y = SmallestEigenvectors(eig, axes);
    for (std::size_t a = 0; a < axes; ++a) {
      result.axis_eigenvalue[a] = eig.values[a];
    }
  }
  {
    obs::Phase other(result.timings, phase::kOther);
    // Coordinates from the surviving distance columns, as in RunParHde.
    DenseMatrix Bkept(B.Rows(), S.Cols());
    for (std::size_t c = 0; c + 1 < kept.size(); ++c) {
      Copy(B.Col(kept[c + 1] - 1), Bkept.Col(c));
    }
    const DenseMatrix coords = TallTimesSmall(Bkept, Y);
    result.layout.x.assign(coords.Col(0).begin(), coords.Col(0).end());
    if (coords.Cols() > 1) {
      result.layout.y.assign(coords.Col(1).begin(), coords.Col(1).end());
    } else {
      result.layout.y.assign(static_cast<std::size_t>(n), 0.0);
    }
  }
  return result;
}

}  // namespace parhde
