// Tests for the ParHDE option extensions: p-axis (3-D) layouts (§2.1).
#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "hde/parhde.hpp"

namespace parhde {
namespace {

TEST(MultiAxis, ThreeAxesProduced) {
  const CsrGraph g = BuildCsrGraph(512, GenGrid3d(8, 8, 8));
  HdeOptions options;
  options.subspace_dim = 10;
  options.start_vertex = 0;
  options.num_axes = 3;
  const HdeResult result = RunParHde(g, options);
  ASSERT_EQ(result.axes.Cols(), 3u);
  ASSERT_EQ(result.eigenvalues.size(), 3u);
  EXPECT_LE(result.eigenvalues[0], result.eigenvalues[1] + 1e-12);
  EXPECT_LE(result.eigenvalues[1], result.eigenvalues[2] + 1e-12);
  for (std::size_t c = 0; c < 3; ++c) {
    for (const double v : result.axes.Col(c)) {
      ASSERT_TRUE(std::isfinite(v));
    }
  }
}

TEST(MultiAxis, FirstTwoAxesMatchLayout) {
  const CsrGraph g = BuildCsrGraph(400, GenGrid2d(20, 20));
  HdeOptions options;
  options.subspace_dim = 8;
  options.start_vertex = 0;
  options.num_axes = 3;
  const HdeResult result = RunParHde(g, options);
  for (std::size_t v = 0; v < 400; ++v) {
    EXPECT_DOUBLE_EQ(result.layout.x[v], result.axes.At(v, 0));
    EXPECT_DOUBLE_EQ(result.layout.y[v], result.axes.At(v, 1));
  }
}

TEST(MultiAxis, SingleAxisHasZeroY) {
  const CsrGraph g = BuildCsrGraph(100, GenChain(100));
  HdeOptions options;
  options.subspace_dim = 6;
  options.start_vertex = 0;
  options.num_axes = 1;
  const HdeResult result = RunParHde(g, options);
  EXPECT_EQ(result.axes.Cols(), 1u);
  for (const double y : result.layout.y) EXPECT_DOUBLE_EQ(y, 0.0);
}

TEST(MultiAxis, AxesCappedByKeptColumns) {
  // Requesting more axes than surviving subspace dimensions must clamp.
  const CsrGraph g = BuildCsrGraph(64, GenRing(64));
  HdeOptions options;
  options.subspace_dim = 3;
  options.start_vertex = 0;
  options.num_axes = 10;
  const HdeResult result = RunParHde(g, options);
  EXPECT_LE(result.axes.Cols(), static_cast<std::size_t>(result.kept_columns));
  EXPECT_EQ(result.eigenvalues.size(), result.axes.Cols());
}

TEST(MultiAxis, Grid3dThirdAxisAddsInformation) {
  // On a 3-D grid the third spectral axis separates the z-dimension: its
  // variance must be non-trivial (not a numerical zero vector).
  const CsrGraph g = BuildCsrGraph(1000, GenGrid3d(10, 10, 10));
  HdeOptions options;
  options.subspace_dim = 12;
  options.start_vertex = 0;
  options.num_axes = 3;
  const HdeResult result = RunParHde(g, options);
  double mean = 0.0, var = 0.0;
  const auto axis = result.axes.Col(2);
  for (const double v : axis) mean += v;
  mean /= static_cast<double>(axis.size());
  for (const double v : axis) var += (v - mean) * (v - mean);
  EXPECT_GT(var / static_cast<double>(axis.size()), 1e-9);
}

}  // namespace
}  // namespace parhde
