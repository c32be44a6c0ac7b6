// Kernel-equivalence suite for the cache-blocked dense phases: the blocked
// SpMM must reproduce the per-column reference bit-for-bit-close, and the
// pipelined / blocked orthogonalizers must keep and drop the same columns as
// reference MGS with coordinates matching to rounding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "linalg/gram_schmidt.hpp"
#include "linalg/laplacian_ops.hpp"
#include "linalg/vector_ops.hpp"
#include "util/prng.hpp"

namespace parhde {
namespace {

DenseMatrix RandomColumns(std::size_t n, std::size_t k, std::uint64_t seed) {
  DenseMatrix m(n, k);
  Xoshiro256 rng(seed);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      m.At(r, c) = rng.NextDouble() * 2.0 - 1.0;
    }
  }
  return m;
}

std::vector<double> RandomMetric(std::size_t n, std::uint64_t seed) {
  std::vector<double> d(n);
  Xoshiro256 rng(seed);
  for (auto& v : d) v = 0.5 + 4.0 * rng.NextDouble();
  return d;
}

double MaxDiff(const DenseMatrix& a, const DenseMatrix& b) {
  EXPECT_EQ(a.Rows(), b.Rows());
  EXPECT_EQ(a.Cols(), b.Cols());
  double worst = 0.0;
  for (std::size_t c = 0; c < a.Cols(); ++c) {
    for (std::size_t r = 0; r < a.Rows(); ++r) {
      worst = std::max(worst, std::abs(a.At(r, c) - b.At(r, c)));
    }
  }
  return worst;
}

CsrGraph WeightedGrid(vid_t rows, vid_t cols, std::uint64_t seed) {
  EdgeList edges = GenGrid2d(rows, cols);
  AssignRandomWeights(edges, 0.5, 4.0, seed);
  BuildOptions opts;
  opts.keep_weights = true;
  return BuildCsrGraph(rows * cols, edges, opts);
}

// ---------------------------------------------------------------------------
// Blocked SpMM vs the per-column reference kernel.

class SpmmBlockWidthSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpmmBlockWidthSweep, MatchesPerColumnOnKron) {
  const int width = GetParam();
  const CsrGraph g = BuildCsrGraph(1 << 10, GenKronecker(10, 8, 3));
  const auto n = static_cast<std::size_t>(g.NumVertices());
  // k = 10 exercises the remainder path for every width > 1.
  const DenseMatrix S = RandomColumns(n, 10, 4);
  DenseMatrix reference(n, 10), blocked(n, 10);
  LaplacianTimesMatrixFused(g, S, reference);
  LaplacianTimesMatrixBlocked(g, S, blocked, width);
  EXPECT_LT(MaxDiff(reference, blocked), 1e-12) << "width=" << width;
}

TEST_P(SpmmBlockWidthSweep, MatchesPerColumnOnGrid) {
  const int width = GetParam();
  const CsrGraph g = BuildCsrGraph(900, GenGrid2d(30, 30));
  const DenseMatrix S = RandomColumns(900, 16, 5);
  DenseMatrix reference(900, 16), blocked(900, 16);
  LaplacianTimesMatrixFused(g, S, reference);
  LaplacianTimesMatrixBlocked(g, S, blocked, width);
  EXPECT_LT(MaxDiff(reference, blocked), 1e-12) << "width=" << width;
}

TEST_P(SpmmBlockWidthSweep, MatchesPerColumnOnWeightedGraph) {
  const int width = GetParam();
  const CsrGraph g = WeightedGrid(24, 24, 7);
  const DenseMatrix S = RandomColumns(576, 9, 8);
  DenseMatrix reference(576, 9), blocked(576, 9);
  LaplacianTimesMatrixFused(g, S, reference);
  LaplacianTimesMatrixBlocked(g, S, blocked, width);
  EXPECT_LT(MaxDiff(reference, blocked), 1e-12) << "width=" << width;
}

TEST_P(SpmmBlockWidthSweep, FewerColumnsThanWidth) {
  const int width = GetParam();
  const CsrGraph g = BuildCsrGraph(1 << 8, GenKronecker(8, 6, 9));
  const auto n = static_cast<std::size_t>(g.NumVertices());
  const DenseMatrix S = RandomColumns(n, 3, 10);
  DenseMatrix reference(n, 3), blocked(n, 3);
  LaplacianTimesMatrixFused(g, S, reference);
  LaplacianTimesMatrixBlocked(g, S, blocked, width);
  EXPECT_LT(MaxDiff(reference, blocked), 1e-12) << "width=" << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, SpmmBlockWidthSweep,
                         ::testing::Values(1, 4, 8, 16));

TEST(SpmmBlocked, SingleColumnMatchesVectorKernel) {
  const CsrGraph g = BuildCsrGraph(400, GenGrid2d(20, 20));
  const DenseMatrix S = RandomColumns(400, 1, 11);
  DenseMatrix blocked(400, 1);
  LaplacianTimesMatrixBlocked(g, S, blocked, 8);
  std::vector<double> x(S.Col(0).begin(), S.Col(0).end()), y(400);
  LaplacianTimesVector(g, x, y);
  for (std::size_t r = 0; r < 400; ++r) {
    EXPECT_NEAR(blocked.At(r, 0), y[r], 1e-12);
  }
}

TEST(SpmmBlocked, ConstantColumnsInKernel) {
  // L * 1 = 0 must hold per block column, including remainder lanes.
  const CsrGraph g = BuildCsrGraph(1 << 9, GenKronecker(9, 7, 13));
  const auto n = static_cast<std::size_t>(g.NumVertices());
  DenseMatrix S(n, 6);
  for (std::size_t c = 0; c < 6; ++c) Fill(S.Col(c), 1.0 + double(c));
  DenseMatrix P(n, 6);
  LaplacianTimesMatrixBlocked(g, S, P, 4);
  for (std::size_t c = 0; c < 6; ++c) EXPECT_LT(MaxAbs(P.Col(c)), 1e-10);
}

TEST(SpmmDispatch, ResolveBlockWidth) {
  const std::size_t big = kSpmmBlockAutoMinVertices;  // columns spill L2
  const std::size_t small = big - 1;
  // Explicit request wins regardless of size, clamped to [1, kMaxSpmmBlock].
  EXPECT_EQ(ResolveSpmmBlockWidth(8, 64, small), 8);
  EXPECT_EQ(ResolveSpmmBlockWidth(1, 64, big), 1);
  EXPECT_EQ(ResolveSpmmBlockWidth(16, 64, big), 16);
  EXPECT_EQ(ResolveSpmmBlockWidth(99, 64, big), kMaxSpmmBlock);
  EXPECT_EQ(ResolveSpmmBlockWidth(-3, 64, big), 1);
  // Auto (0): per-column while a column is L2-resident.
  EXPECT_EQ(ResolveSpmmBlockWidth(0, 64, small), 1);
  // Auto above the crossover: CB=8 when saturated, else narrower.
  EXPECT_EQ(ResolveSpmmBlockWidth(0, 64, big), 8);
  EXPECT_EQ(ResolveSpmmBlockWidth(0, 8, big), 8);
  EXPECT_EQ(ResolveSpmmBlockWidth(0, 6, big), 4);
  EXPECT_EQ(ResolveSpmmBlockWidth(0, 3, big), 1);
  EXPECT_EQ(ResolveSpmmBlockWidth(0, 1, big), 1);
}

TEST(SpmmDispatch, DispatcherHonorsOptions) {
  const CsrGraph g = BuildCsrGraph(576, GenGrid2d(24, 24));
  const DenseMatrix S = RandomColumns(576, 20, 14);
  DenseMatrix reference(576, 20);
  LaplacianTimesMatrixFused(g, S, reference);
  for (const int width : {0, 1, 4, 8, 16}) {
    SpmmOptions opts;
    opts.block_width = width;
    DenseMatrix out(576, 20);
    LaplacianTimesMatrix(g, S, out, opts);
    EXPECT_LT(MaxDiff(reference, out), 1e-12) << "width=" << width;
  }
}

// ---------------------------------------------------------------------------
// Pipelined MGS vs the unpipelined 2k-pass reference.

TEST(PipelinedMgs, SameKeptSetAndCoordinatesAsReference) {
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    DenseMatrix ref = RandomColumns(500, 12, seed);
    DenseMatrix pipe = ref;
    const auto d = RandomMetric(500, seed + 100);

    GramSchmidtOptions options;
    options.reference_mgs = true;
    const GramSchmidtResult a = DOrthogonalize(ref, d, options);
    options.reference_mgs = false;
    const GramSchmidtResult b = DOrthogonalize(pipe, d, options);

    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.dropped, b.dropped);
    // Per-element arithmetic is identical; only the dot-product reduction
    // grouping differs, so columns agree to rounding.
    EXPECT_LT(MaxDiff(ref, pipe), 1e-10);
    EXPECT_LT(OrthonormalityResidual(pipe, d), 1e-10);
  }
}

TEST(PipelinedMgs, SameDropsAsReference) {
  // Columns 3 and 7 are linear combinations — both loops must drop exactly
  // those, at the same step.
  DenseMatrix ref = RandomColumns(300, 9, 31);
  for (std::size_t r = 0; r < 300; ++r) {
    ref.At(r, 3) = 2.0 * ref.At(r, 0) - ref.At(r, 1);
    ref.At(r, 7) = ref.At(r, 2) + 0.25 * ref.At(r, 4);
  }
  DenseMatrix pipe = ref;
  const auto d = RandomMetric(300, 32);

  GramSchmidtOptions options;
  options.reference_mgs = true;
  const GramSchmidtResult a = DOrthogonalize(ref, d, options);
  options.reference_mgs = false;
  const GramSchmidtResult b = DOrthogonalize(pipe, d, options);

  EXPECT_EQ(a.dropped, 2u);
  EXPECT_EQ(a.kept, b.kept);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_LT(MaxDiff(ref, pipe), 1e-10);
}

TEST(PipelinedMgs, WeightedMetricUnitMetricAgree) {
  // The pipelined sweep handles both the D-weighted and plain inner
  // products (§4.5.1 variant uses d = 1).
  for (const bool unit : {false, true}) {
    DenseMatrix ref = RandomColumns(256, 8, 41);
    DenseMatrix pipe = ref;
    const std::vector<double> d =
        unit ? std::vector<double>(256, 1.0) : RandomMetric(256, 42);
    GramSchmidtOptions options;
    options.reference_mgs = true;
    DOrthogonalize(ref, d, options);
    options.reference_mgs = false;
    DOrthogonalize(pipe, d, options);
    EXPECT_LT(MaxDiff(ref, pipe), 1e-10);
  }
}

// ---------------------------------------------------------------------------
// Blocked (BCGS) orthogonalization vs reference MGS.

class BlockedGsWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockedGsWidthSweep, SameKeptSetResidualTight) {
  const std::size_t width = GetParam();
  DenseMatrix mgs = RandomColumns(400, 14, 51);
  DenseMatrix blocked = mgs;
  const auto d = RandomMetric(400, 52);

  GramSchmidtOptions options;
  options.kind = GramSchmidtKind::Modified;
  options.reference_mgs = true;
  const GramSchmidtResult a = DOrthogonalize(mgs, d, options);

  options.kind = GramSchmidtKind::Blocked;
  options.reference_mgs = false;
  options.block_width = width;
  const GramSchmidtResult b = DOrthogonalize(blocked, d, options);

  EXPECT_EQ(a.kept, b.kept) << "width=" << width;
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_LT(OrthonormalityResidual(blocked, d), 1e-8) << "width=" << width;

  // Same subspace: every blocked column lies in span(mgs).
  for (std::size_t c = 0; c < blocked.Cols(); ++c) {
    std::vector<double> residual(blocked.Col(c).begin(),
                                 blocked.Col(c).end());
    for (std::size_t j = 0; j < mgs.Cols(); ++j) {
      const double coeff = WeightedDot(mgs.Col(j), residual, d);
      Axpy(-coeff, mgs.Col(j), residual);
    }
    EXPECT_LT(WeightedNorm2(residual, d), 1e-7) << "column " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BlockedGsWidthSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{4}, std::size_t{8},
                                           std::size_t{16}));

TEST(BlockedGs, DropMidBlockKeepsBookkeepingConsistent) {
  // A dependent column lands in the middle of an open block; the closed /
  // open split must stay consistent and later columns still orthogonalize.
  DenseMatrix S = RandomColumns(300, 11, 61);
  for (std::size_t r = 0; r < 300; ++r) {
    S.At(r, 5) = S.At(r, 1) - 3.0 * S.At(r, 2);  // dropped mid-block
  }
  const auto d = RandomMetric(300, 62);
  GramSchmidtOptions options;
  options.kind = GramSchmidtKind::Blocked;
  options.block_width = 4;
  const GramSchmidtResult result = DOrthogonalize(S, d, options);
  EXPECT_EQ(result.dropped, 1u);
  EXPECT_EQ(result.kept.size(), 10u);
  EXPECT_LT(OrthonormalityResidual(S, d), 1e-8);
}

TEST(BlockedGs, ManyBlocksStayOrthonormal) {
  // s large relative to the block width: several closed blocks stack up and
  // the between-block CGS stage carries most projections.
  DenseMatrix S = RandomColumns(600, 32, 71);
  const auto d = RandomMetric(600, 72);
  GramSchmidtOptions options;
  options.kind = GramSchmidtKind::Blocked;
  options.block_width = 4;
  const GramSchmidtResult result = DOrthogonalize(S, d, options);
  EXPECT_EQ(result.dropped, 0u);
  EXPECT_LT(OrthonormalityResidual(S, d), 1e-8);
}

// ---------------------------------------------------------------------------
// OrthonormalityResidual (parallelized) sanity.

TEST(OrthonormalityResidualCheck, ExactOnConstructedBasis) {
  // Two D-orthonormal columns plus one with a known defect: the residual
  // must report exactly that defect, not an artifact of the parallel sweep.
  const std::size_t n = 128;
  std::vector<double> d(n, 2.0);
  DenseMatrix S(n, 3);
  Fill(S.Col(0), 0.0);
  Fill(S.Col(1), 0.0);
  Fill(S.Col(2), 0.0);
  S.At(0, 0) = 1.0 / std::sqrt(2.0);
  S.At(1, 1) = 1.0 / std::sqrt(2.0);
  S.At(2, 2) = 1.0 / std::sqrt(2.0);
  // Off-diagonal defect s_0' D s_2 = 2 * (1/sqrt(2)) * 0.1 ~= 0.141, which
  // dominates the diagonal defect |s_2' D s_2 - 1| = 0.02.
  S.At(0, 2) = 0.1;
  const double expected = 2.0 * (1.0 / std::sqrt(2.0)) * 0.1;
  EXPECT_NEAR(OrthonormalityResidual(S, d), expected, 1e-12);
}

TEST(OrthonormalityResidualCheck, ZeroAndOneColumn) {
  const std::vector<double> d(64, 1.0);
  DenseMatrix empty(64, 0);
  EXPECT_DOUBLE_EQ(OrthonormalityResidual(empty, d), 0.0);
  DenseMatrix one(64, 1);
  Fill(one.Col(0), 0.125);  // norm^2 = 64 * 0.125^2 = 1
  EXPECT_NEAR(OrthonormalityResidual(one, d), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// DenseMatrix storage semantics after the first-touch rework.

TEST(DenseMatrixStorage, CopyAndMoveSemantics) {
  DenseMatrix a = RandomColumns(100, 4, 91);
  DenseMatrix b = a;  // copy ctor
  EXPECT_EQ(MaxDiff(a, b), 0.0);
  b.At(0, 0) += 1.0;  // deep copy: a unaffected
  EXPECT_NE(a.At(0, 0), b.At(0, 0));

  DenseMatrix c(10, 2);
  c = a;  // copy assign with realloc
  EXPECT_EQ(c.Rows(), 100u);
  EXPECT_EQ(MaxDiff(a, c), 0.0);

  const double probe = a.At(50, 2);
  DenseMatrix moved = std::move(a);  // move ctor
  EXPECT_EQ(moved.At(50, 2), probe);
}

TEST(DenseMatrixStorage, KeepColumnsCompactsInPlace) {
  DenseMatrix m = RandomColumns(64, 5, 92);
  const DenseMatrix original = m;
  m.KeepColumns({1, 3, 4});
  EXPECT_EQ(m.Cols(), 3u);
  for (std::size_t r = 0; r < 64; ++r) {
    EXPECT_EQ(m.At(r, 0), original.At(r, 1));
    EXPECT_EQ(m.At(r, 1), original.At(r, 3));
    EXPECT_EQ(m.At(r, 2), original.At(r, 4));
  }
}

TEST(DenseMatrixStorage, LargeMatrixFirstTouchZeroed) {
  // Above the parallel-touch threshold the zeroing path switches to the
  // statically-scheduled parallel sweep; every element must still be 0.
  DenseMatrix big(1 << 16, 2);
  double sum = 0.0;
  for (std::size_t c = 0; c < 2; ++c) {
    for (const double v : big.Col(c)) sum += std::abs(v);
  }
  EXPECT_EQ(sum, 0.0);
}

}  // namespace
}  // namespace parhde
