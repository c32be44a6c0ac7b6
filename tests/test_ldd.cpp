#include "bfs/ldd.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

TEST(Ldd, EveryVertexAssigned) {
  const CsrGraph g = BuildCsrGraph(900, GenGrid2d(30, 30));
  const LddResult ldd = LowDiameterDecomposition(g);
  for (const vid_t c : ldd.cluster) {
    EXPECT_NE(c, kInvalidVid);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 900);
  }
}

TEST(Ldd, CentersClusterToThemselves) {
  const CsrGraph g = BuildCsrGraph(400, GenGrid2d(20, 20));
  const LddResult ldd = LowDiameterDecomposition(g);
  EXPECT_FALSE(ldd.centers.empty());
  for (const vid_t c : ldd.centers) {
    EXPECT_EQ(ldd.cluster[static_cast<std::size_t>(c)], c);
  }
  // Every cluster id is a center.
  const std::set<vid_t> centers(ldd.centers.begin(), ldd.centers.end());
  for (const vid_t c : ldd.cluster) EXPECT_TRUE(centers.count(c));
}

TEST(Ldd, ClustersAreConnected) {
  const CsrGraph g = BuildCsrGraph(625, GenGrid2d(25, 25));
  const LddResult ldd = LowDiameterDecomposition(g);
  // Radius computation only reaches vertices connected to the center within
  // the cluster; if every vertex is reached, clusters are connected.
  // Reuse MaxClusterRadius's traversal logic indirectly: count reached.
  for (const vid_t center : ldd.centers) {
    std::vector<bool> seen(static_cast<std::size_t>(g.NumVertices()), false);
    std::vector<vid_t> queue{center};
    seen[static_cast<std::size_t>(center)] = true;
    std::size_t reached = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const vid_t v = queue[head];
      ++reached;
      for (const vid_t u : g.Neighbors(v)) {
        if (!seen[static_cast<std::size_t>(u)] &&
            ldd.cluster[static_cast<std::size_t>(u)] == center) {
          seen[static_cast<std::size_t>(u)] = true;
          queue.push_back(u);
        }
      }
    }
    std::size_t members = 0;
    for (const vid_t c : ldd.cluster) {
      if (c == center) ++members;
    }
    EXPECT_EQ(reached, members) << "cluster " << center;
  }
}

TEST(Ldd, DeterministicForSeed) {
  const CsrGraph g = BuildCsrGraph(1 << 10, GenKronecker(10, 6, 5));
  LddOptions options;
  options.seed = 42;
  const LddResult a = LowDiameterDecomposition(g, options);
  const LddResult b = LowDiameterDecomposition(g, options);
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.cut_edges, b.cut_edges);
}

TEST(Ldd, LargerBetaMeansMoreClustersSmallerRadius) {
  const CsrGraph g = BuildCsrGraph(2500, GenGrid2d(50, 50));
  LddOptions fine;
  fine.beta = 0.8;
  LddOptions coarse;
  coarse.beta = 0.05;
  const LddResult f = LowDiameterDecomposition(g, fine);
  const LddResult c = LowDiameterDecomposition(g, coarse);
  EXPECT_GT(f.centers.size(), c.centers.size());
  EXPECT_LE(MaxClusterRadius(g, f), MaxClusterRadius(g, c));
}

TEST(Ldd, CutFractionTracksBeta) {
  // MPX guarantee: E[cut] <= beta * m. Allow generous slack for the
  // discretized implementation and finite samples.
  const CsrGraph g = BuildCsrGraph(3600, GenGrid2d(60, 60));
  for (const double beta : {0.1, 0.3}) {
    LddOptions options;
    options.beta = beta;
    options.seed = 9;
    const LddResult ldd = LowDiameterDecomposition(g, options);
    const double fraction = static_cast<double>(ldd.cut_edges) /
                            static_cast<double>(g.NumEdges());
    EXPECT_LT(fraction, 3.0 * beta) << "beta " << beta;
  }
}

TEST(Ldd, ChainRadiusFarBelowDiameter) {
  // The whole point: a 2000-chain has diameter 1999, but LDD clusters have
  // radius O(log n / beta).
  const CsrGraph g = BuildCsrGraph(2000, GenChain(2000));
  LddOptions options;
  options.beta = 0.2;
  const LddResult ldd = LowDiameterDecomposition(g, options);
  EXPECT_LT(MaxClusterRadius(g, ldd), 200);
  EXPECT_GT(ldd.centers.size(), 10u);
}

TEST(Ldd, SingletonAndEmptyGraphs) {
  const LddResult empty = LowDiameterDecomposition(BuildCsrGraph(0, {}));
  EXPECT_TRUE(empty.cluster.empty());
  const LddResult one = LowDiameterDecomposition(BuildCsrGraph(1, {}));
  EXPECT_EQ(one.cluster[0], 0);
  EXPECT_EQ(one.centers.size(), 1u);
}

TEST(Ldd, ClustersIdenticalAt124Threads) {
  // Both graphs span several blocks of every loop (shifts, activation
  // rounds, claims, cut count), so 2 and 4 threads really split the work.
  const CsrGraph grid = BuildCsrGraph(10000, GenGrid2d(100, 100));
  const CsrGraph kron =
      LargestComponent(BuildCsrGraph(1 << 13, GenKronecker(13, 8, 4))).graph;
  for (const CsrGraph* g : {&grid, &kron}) {
    LddOptions options;
    options.seed = 17;
    LddResult serial;
    {
      ThreadCountGuard guard(1);
      serial = LowDiameterDecomposition(*g, options);
    }
    for (const int threads : {2, 4}) {
      ThreadCountGuard guard(threads);
      const LddResult ldd = LowDiameterDecomposition(*g, options);
      EXPECT_EQ(ldd.cluster, serial.cluster) << threads << " threads";
      EXPECT_EQ(ldd.centers, serial.centers) << threads << " threads";
      EXPECT_EQ(ldd.rounds, serial.rounds) << threads << " threads";
      EXPECT_EQ(ldd.cut_edges, serial.cut_edges) << threads << " threads";
    }
  }
}

class LddBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(LddBetaSweep, InvariantsHoldAcrossBeta) {
  const CsrGraph g =
      LargestComponent(BuildCsrGraph(1 << 11, GenKronecker(11, 6, 3))).graph;
  LddOptions options;
  options.beta = GetParam();
  const LddResult ldd = LowDiameterDecomposition(g, options);
  // All assigned, all cluster ids are centers.
  std::set<vid_t> centers(ldd.centers.begin(), ldd.centers.end());
  for (const vid_t c : ldd.cluster) {
    ASSERT_NE(c, kInvalidVid);
    ASSERT_TRUE(centers.count(c));
  }
  EXPECT_GT(ldd.rounds, 0);
}

INSTANTIATE_TEST_SUITE_P(Betas, LddBetaSweep,
                         ::testing::Values(0.05, 0.2, 0.5, 1.0));

}  // namespace
}  // namespace parhde
