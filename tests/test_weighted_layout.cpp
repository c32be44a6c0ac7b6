// End-to-end layouts over the weighted distance phase: RunParHde with the
// Δ-stepping kernel on graphs whose edge weights are far from 1, plus the
// disconnected-graph driver on a weighted multi-component input. These are
// the integration gates for the weighted-path fixes: the unreachable
// sentinel must sort above reachable vertices, the random-pivot phase must
// actually honor the SSSP kernel (not silently fall back to hop BFS), and
// both SSSP engines must feed the eigensolver equally well.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "hde/components_layout.hpp"
#include "hde/parhde.hpp"

namespace parhde {
namespace {

CsrGraph WeightedPlate(vid_t rows, vid_t cols, std::uint64_t seed) {
  EdgeList edges = GenGrid2d(rows, cols);
  AssignRandomWeights(edges, 2.0, 30.0, seed);
  BuildOptions opts;
  opts.keep_weights = true;
  return BuildCsrGraph(rows * cols, std::move(edges), opts);
}

void ExpectFiniteLayout(const HdeResult& result, vid_t n) {
  ASSERT_EQ(result.layout.x.size(), static_cast<std::size_t>(n));
  ASSERT_EQ(result.layout.y.size(), static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) {
    EXPECT_TRUE(std::isfinite(result.layout.x[static_cast<std::size_t>(v)]));
    EXPECT_TRUE(std::isfinite(result.layout.y[static_cast<std::size_t>(v)]));
  }
  EXPECT_GE(result.kept_columns, 2);
}

TEST(WeightedLayout, KCentersPivotsProduceFiniteSpread) {
  const CsrGraph g = WeightedPlate(24, 24, 3);
  HdeOptions options;
  options.subspace_dim = 8;
  options.start_vertex = 0;
  options.kernel = DistanceKernel::DeltaStepping;
  const HdeResult result = RunParHde(g, options);
  ExpectFiniteLayout(result, g.NumVertices());
  // A layout that collapsed to a point means the distance columns were
  // degenerate — the historical symptom of weight-ignoring fallbacks.
  double min_x = result.layout.x[0], max_x = result.layout.x[0];
  for (const double x : result.layout.x) {
    min_x = std::min(min_x, x);
    max_x = std::max(max_x, x);
  }
  EXPECT_GT(max_x - min_x, 1e-6);
}

TEST(WeightedLayout, RandomPivotsBothEnginesProduceFiniteLayouts) {
  const CsrGraph g = WeightedPlate(20, 20, 5);
  for (const SsspEngine engine :
       {SsspEngine::Parallel, SsspEngine::Concurrent}) {
    HdeOptions options;
    options.subspace_dim = 10;
    options.pivots = PivotStrategy::Random;
    options.kernel = DistanceKernel::DeltaStepping;
    options.seed = 9;
    options.sssp_engine = engine;
    const HdeResult result = RunParHde(g, options);
    ExpectFiniteLayout(result, g.NumVertices());
  }
}

TEST(WeightedLayout, DisconnectedWeightedGraphPacksComponents) {
  // Two weighted grids plus a weighted triangle: exercises the unreachable
  // sentinel inside each per-component run only if a component were itself
  // split, but more importantly proves the whole weighted pipeline survives
  // the disconnected-graph driver.
  EdgeList edges = GenGrid2d(10, 10);  // 0..99
  for (const auto& [u, v, w] : GenGrid2d(6, 6)) {
    edges.push_back({u + 100, v + 100, w});  // 100..135
  }
  edges.push_back({136, 137, 1.0});
  edges.push_back({137, 138, 1.0});
  edges.push_back({138, 136, 1.0});
  AssignRandomWeights(edges, 3.0, 12.0, 13);
  BuildOptions bopts;
  bopts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(139, edges, bopts);

  HdeOptions options;
  options.subspace_dim = 6;
  options.kernel = DistanceKernel::DeltaStepping;
  options.pivots = PivotStrategy::Random;
  const ComponentsLayoutResult result = RunHdeOnComponents(g, options);
  EXPECT_EQ(result.num_components, 3);
  ExpectFiniteLayout(result.hde, g.NumVertices());
}

TEST(WeightedLayout, WeightsChangeTheEmbedding) {
  // Same topology, unit vs heavy weights: the weighted kernel must actually
  // read the weights (the silent-BFS-fallback regression would make these
  // two layouts identical).
  EdgeList unit = GenGrid2d(15, 15);
  EdgeList heavy = unit;
  AssignRandomWeights(heavy, 1.0, 50.0, 19);
  BuildOptions bopts;
  bopts.keep_weights = true;
  const CsrGraph gu = BuildCsrGraph(225, std::move(unit), bopts);
  const CsrGraph gw = BuildCsrGraph(225, std::move(heavy), bopts);

  HdeOptions options;
  options.subspace_dim = 8;
  options.pivots = PivotStrategy::Random;
  options.kernel = DistanceKernel::DeltaStepping;
  options.seed = 21;
  const HdeResult a = RunParHde(gu, options);
  const HdeResult b = RunParHde(gw, options);
  double max_diff = 0.0;
  for (std::size_t v = 0; v < 225; ++v) {
    max_diff = std::max(max_diff, std::abs(a.layout.x[v] - b.layout.x[v]) +
                                      std::abs(a.layout.y[v] - b.layout.y[v]));
  }
  EXPECT_GT(max_diff, 1e-9);
}

}  // namespace
}  // namespace parhde
