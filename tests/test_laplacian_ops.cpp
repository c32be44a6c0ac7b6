#include "linalg/laplacian_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "util/prng.hpp"

namespace parhde {
namespace {

std::vector<double> RandomVector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  Xoshiro256 rng(seed);
  for (auto& v : x) v = rng.NextDouble() * 2.0 - 1.0;
  return x;
}

TEST(LaplacianOps, ConstantVectorInKernel) {
  // L * 1 = 0 for every graph (row sums vanish).
  const CsrGraph g = BuildCsrGraph(1 << 8, GenKronecker(8, 5, 2));
  std::vector<double> ones(static_cast<std::size_t>(g.NumVertices()), 1.0);
  std::vector<double> y(ones.size());
  LaplacianTimesVector(g, ones, y);
  EXPECT_LT(MaxAbs(y), 1e-12);
}

TEST(LaplacianOps, TriangleByHand) {
  const CsrGraph g = BuildCsrGraph(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::vector<double> x{1.0, 2.0, 4.0};
  std::vector<double> y(3);
  LaplacianTimesVector(g, x, y);
  // L = [[2,-1,-1],[-1,2,-1],[-1,-1,2]].
  EXPECT_DOUBLE_EQ(y[0], 2 * 1 - 2 - 4);
  EXPECT_DOUBLE_EQ(y[1], -1 + 2 * 2 - 4);
  EXPECT_DOUBLE_EQ(y[2], -1 - 2 + 2 * 4);
}

TEST(LaplacianOps, WeightedByHand) {
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(2, {{0, 1, 3.0}}, opts);
  const std::vector<double> x{1.0, 5.0};
  std::vector<double> y(2);
  LaplacianTimesVector(g, x, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0 * 1 - 3.0 * 5);
  EXPECT_DOUBLE_EQ(y[1], -3.0 * 1 + 3.0 * 5);
}

TEST(LaplacianOps, QuadraticFormMatchesOperator) {
  // x' (Lx) computed via the kernel equals the edge-difference identity.
  const CsrGraph g = BuildCsrGraph(500, GenUniformRandom(500, 2500, 3));
  const auto x = RandomVector(static_cast<std::size_t>(g.NumVertices()), 4);
  std::vector<double> y(x.size());
  LaplacianTimesVector(g, x, y);
  EXPECT_NEAR(Dot(x, y), LaplacianQuadraticForm(g, x), 1e-8);
}

TEST(LaplacianOps, QuadraticFormNonNegative) {
  // PSD property of the Laplacian, §2.1.
  const CsrGraph g = BuildCsrGraph(256, GenKronecker(8, 4, 5));
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto x = RandomVector(static_cast<std::size_t>(g.NumVertices()), seed);
    EXPECT_GE(LaplacianQuadraticForm(g, x), 0.0);
  }
}

TEST(LaplacianOps, FusedMatchesExplicit) {
  // The §4.4 equivalence: fused L·S must equal the explicit-matrix SpMM.
  const CsrGraph g = BuildCsrGraph(400, GenGrid2d(20, 20));
  const std::size_t n = static_cast<std::size_t>(g.NumVertices());
  DenseMatrix S(n, 5);
  Xoshiro256 rng(6);
  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t r = 0; r < n; ++r) S.At(r, c) = rng.NextDouble();
  }

  DenseMatrix fused(n, 5), explicit_out(n, 5);
  LaplacianTimesMatrixFused(g, S, fused);
  const ExplicitLaplacian L = BuildExplicitLaplacian(g);
  LaplacianTimesMatrixExplicit(L, S, explicit_out);

  for (std::size_t c = 0; c < 5; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(fused.At(r, c), explicit_out.At(r, c), 1e-10);
    }
  }
}

TEST(LaplacianOps, ExplicitLaplacianStructure) {
  const CsrGraph g = BuildCsrGraph(3, {{0, 1}, {1, 2}});
  const ExplicitLaplacian L = BuildExplicitLaplacian(g);
  // Row 0: diagonal 1, then -1 at column 1.
  ASSERT_EQ(L.offsets.size(), 4u);
  EXPECT_EQ(L.offsets[1] - L.offsets[0], 2);  // deg + diagonal
  EXPECT_EQ(L.offsets[2] - L.offsets[1], 3);
  // Row sums are zero.
  for (vid_t v = 0; v < 3; ++v) {
    double sum = 0.0;
    for (eid_t e = L.offsets[static_cast<std::size_t>(v)];
         e < L.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      sum += L.values[static_cast<std::size_t>(e)];
    }
    EXPECT_DOUBLE_EQ(sum, 0.0);
  }
  // Columns sorted within each row (diagonal in place).
  for (vid_t v = 0; v < 3; ++v) {
    for (eid_t e = L.offsets[static_cast<std::size_t>(v)] + 1;
         e < L.offsets[static_cast<std::size_t>(v) + 1]; ++e) {
      EXPECT_LT(L.columns[static_cast<std::size_t>(e) - 1],
                L.columns[static_cast<std::size_t>(e)]);
    }
  }
}

TEST(TransitionOps, RowStochastic) {
  // (D^-1 A) * 1 = 1 on graphs without isolated vertices.
  const CsrGraph g = BuildCsrGraph(300, GenRing(300));
  std::vector<double> ones(300, 1.0), y(300);
  TransitionTimesVector(g, ones, y);
  for (const double v : y) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(TransitionOps, IsolatedVertexGetsZero) {
  const CsrGraph g = BuildCsrGraph(3, {{0, 1}});
  std::vector<double> x{1.0, 1.0, 5.0}, y(3);
  TransitionTimesVector(g, x, y);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
}

class LaplacianGraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(LaplacianGraphSweep, FusedEqualsExplicitOnKron) {
  const int scale = GetParam();
  const CsrGraph g =
      BuildCsrGraph(vid_t{1} << scale, GenKronecker(scale, 6, 11));
  const std::size_t n = static_cast<std::size_t>(g.NumVertices());
  DenseMatrix S(n, 3);
  Xoshiro256 rng(12);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 0; r < n; ++r) S.At(r, c) = rng.NextDouble();
  }
  DenseMatrix a(n, 3), b(n, 3);
  LaplacianTimesMatrixFused(g, S, a);
  LaplacianTimesMatrixExplicit(BuildExplicitLaplacian(g), S, b);
  double worst = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      worst = std::max(worst, std::abs(a.At(r, c) - b.At(r, c)));
    }
  }
  EXPECT_LT(worst, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplacianGraphSweep,
                         ::testing::Values(6, 8, 10));

}  // namespace
}  // namespace parhde
