#include "bfs/parallel_bfs.hpp"

#include <gtest/gtest.h>

#include "bfs/serial_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

void ExpectMatchesSerial(const CsrGraph& g, vid_t source,
                         const BfsOptions& options = {}) {
  const auto expected = SerialBfs(g, source);
  const BfsResult result = ParallelBfs(g, source, options);
  ASSERT_EQ(result.dist.size(), expected.size());
  for (std::size_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(result.dist[v], expected[v]) << "vertex " << v;
  }
}

TEST(ParallelBfs, ChainMatchesSerial) {
  ExpectMatchesSerial(BuildCsrGraph(200, GenChain(200)), 0);
}

TEST(ParallelBfs, GridMatchesSerial) {
  ExpectMatchesSerial(BuildCsrGraph(400, GenGrid2d(20, 20)), 7);
}

TEST(ParallelBfs, KroneckerMatchesSerial) {
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 11, GenKronecker(11, 8, 2))).graph;
  ExpectMatchesSerial(g, 0);
  ExpectMatchesSerial(g, g.NumVertices() / 2);
}

TEST(ParallelBfs, UniformRandomMatchesSerial) {
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(3000, GenUniformRandom(3000, 12000, 3)))
          .graph;
  ExpectMatchesSerial(g, 1);
}

TEST(ParallelBfs, DisconnectedMarksUnreachable) {
  const CsrGraph g = BuildCsrGraph(6, {{0, 1}, {1, 2}, {4, 5}});
  const BfsResult result = ParallelBfs(g, 0);
  EXPECT_EQ(result.dist[2], 2);
  EXPECT_EQ(result.dist[3], kInfDist);
  EXPECT_EQ(result.dist[4], kInfDist);
  EXPECT_EQ(result.dist, SerialBfs(g, 0));
}

TEST(ParallelBfs, DistancesMatchSerialOnKronecker) {
  // The engine keeps no BFS tree, so exact distances are the whole result.
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 10, GenKronecker(10, 6, 9))).graph;
  EXPECT_EQ(ParallelBfs(g, 0).dist, SerialBfs(g, 0));
}

TEST(ParallelBfs, TopDownOnlyMatchesSerial) {
  BfsOptions options;
  options.mode = BfsOptions::Mode::TopDownOnly;
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 10, GenKronecker(10, 8, 4))).graph;
  ExpectMatchesSerial(g, 0, options);
}

TEST(ParallelBfs, BottomUpOnlyMatchesSerial) {
  BfsOptions options;
  options.mode = BfsOptions::Mode::BottomUpOnly;
  const CsrGraph g = BuildCsrGraph(225, GenGrid2d(15, 15));
  ExpectMatchesSerial(g, 0, options);
}

TEST(ParallelBfs, DirectionOptimizingUsesBottomUpOnDenseGraph) {
  // Low-diameter graph with skewed degrees: the heuristic must fire.
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 12, GenKronecker(12, 16, 8))).graph;
  const BfsResult result = ParallelBfs(g, 0);
  EXPECT_GT(result.stats.bottom_up_steps, 0);
}

TEST(ParallelBfs, DirectionOptimizingIsMostlyTopDownOnChain) {
  // High-diameter, degree-2: top-down dominates. (The alpha heuristic may
  // legitimately flip to bottom-up for a step or two near the end, when
  // almost no unexplored edges remain — GAP behaves the same way.)
  const CsrGraph g = BuildCsrGraph(500, GenChain(500));
  const BfsResult result = ParallelBfs(g, 0);
  EXPECT_GE(result.stats.top_down_steps, 450);
  EXPECT_LE(result.stats.bottom_up_steps, result.stats.top_down_steps / 10);
}

TEST(ParallelBfs, DirectionOptimizingExaminesFewerEdges) {
  // The whole point of Beamer's heuristic (§3.1): on low-diameter skewed
  // graphs the hybrid examines fewer arcs than pure top-down.
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 12, GenKronecker(12, 16, 5))).graph;
  BfsOptions top_down;
  top_down.mode = BfsOptions::Mode::TopDownOnly;
  const auto hybrid = ParallelBfs(g, 0);
  const auto pure = ParallelBfs(g, 0, top_down);
  EXPECT_LT(hybrid.stats.edges_examined, pure.stats.edges_examined);
}

TEST(ParallelBfs, LevelsMatchEccentricity) {
  const CsrGraph g = BuildCsrGraph(100, GenGrid2d(10, 10));
  const BfsResult result = ParallelBfs(g, 0);
  EXPECT_EQ(result.stats.levels, Eccentricity(g, 0));
}

/// A chain of kLollipopChain vertices hung off a scale-12 Kronecker core:
/// chain levels have one or two arcs, the core's widest level about 270K.
constexpr vid_t kLollipopChain = 3000;

CsrGraph Lollipop() {
  const CsrGraph core =
      LargestComponent(BuildCsrGraph(1 << 12, GenKronecker(12, 64, 2))).graph;
  const vid_t nc = core.NumVertices();
  EdgeList edges;
  for (vid_t v = 0; v < nc; ++v) {
    for (const vid_t u : core.Neighbors(v)) {
      if (v < u) edges.push_back({v, u});
    }
  }
  edges.push_back({0, nc});
  for (vid_t i = 0; i + 1 < kLollipopChain; ++i) {
    edges.push_back({nc + i, nc + i + 1});
  }
  return BuildCsrGraph(nc + kLollipopChain, edges);
}

TEST(ParallelBfs, AdaptiveStepsMatchSerial) {
  // From the chain's far end: serial steps down the chain, a parallel
  // top-down step on the core's first wide frontier, bottom-up through the
  // core's middle, serial steps on its last few vertices. From inside the
  // core: the same core schedule, then serial steps down the chain. The
  // first wide frontiers (about 14.5K and 7.5K arcs) sit above the serial
  // step limit and below alpha's switch point.
  const CsrGraph g = Lollipop();
  for (const vid_t source : {g.NumVertices() - 1, vid_t{1}}) {
    const auto expected = SerialBfs(g, source);
    for (const int threads : {1, 2, 4}) {
      ThreadCountGuard guard(threads);
      const BfsResult result = ParallelBfs(g, source);
      const BfsStats& stats = result.stats;
      SCOPED_TRACE(::testing::Message()
                   << "source " << source << ", " << threads << " threads");
      EXPECT_EQ(result.dist, expected);
      EXPECT_GE(stats.serial_steps, kLollipopChain);
      EXPECT_GT(stats.top_down_steps, stats.serial_steps);  // a parallel one
      EXPECT_GT(stats.bottom_up_steps, 0);
      EXPECT_EQ(stats.levels, stats.top_down_steps + stats.bottom_up_steps - 1);
    }
  }
}

class BfsThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(BfsThreadSweep, DistancesIndependentOfThreadCount) {
  ThreadCountGuard guard(GetParam());
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 11, GenKronecker(11, 6, 6))).graph;
  ExpectMatchesSerial(g, 3);
}

INSTANTIATE_TEST_SUITE_P(Threads, BfsThreadSweep, ::testing::Values(1, 2, 4, 8));

class BfsSourceSweep : public ::testing::TestWithParam<vid_t> {};

TEST_P(BfsSourceSweep, RoadGraphAllSourcesMatchSerial) {
  const CsrGraph g = BuildCsrGraph(900, GenRoad(30, 30, 0.15, 2));
  const vid_t source = GetParam() % g.NumVertices();
  ExpectMatchesSerial(g, source);
}

INSTANTIATE_TEST_SUITE_P(Sources, BfsSourceSweep,
                         ::testing::Values(0, 1, 17, 450, 899));

}  // namespace
}  // namespace parhde
