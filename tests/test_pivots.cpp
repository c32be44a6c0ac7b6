#include "hde/pivots.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "bfs/serial_bfs.hpp"
#include "graph/builder.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

TEST(RandomPivots, DistinctAndInRange) {
  const auto pivots = RandomPivots(100, 30, 5);
  EXPECT_EQ(pivots.size(), 30u);
  std::set<vid_t> unique(pivots.begin(), pivots.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const vid_t p : pivots) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 100);
  }
}

TEST(RandomPivots, FullSampleIsPermutation) {
  const auto pivots = RandomPivots(20, 20, 7);
  std::set<vid_t> unique(pivots.begin(), pivots.end());
  EXPECT_EQ(unique.size(), 20u);
}

TEST(RandomPivots, DeterministicForSeed) {
  EXPECT_EQ(RandomPivots(1000, 50, 9), RandomPivots(1000, 50, 9));
}

// Farthest-first pivots as the distance phase picks them: `count` k-centers
// searches from vertex 0 with the default kernel.
std::vector<vid_t> KCentersFromZero(const CsrGraph& g, int count) {
  HdeOptions options;
  options.subspace_dim = count;
  options.start_vertex = 0;
  return RunDistancePhase(g, options).pivots;
}

TEST(KCentersPivots, ChainPicksExtremes) {
  // On a chain starting from vertex 0, the farthest vertex is n-1, then the
  // next pivot maximizes min-distance: the middle.
  const CsrGraph g = BuildCsrGraph(101, GenChain(101));
  const auto pivots = KCentersFromZero(g, 3);
  ASSERT_EQ(pivots.size(), 3u);
  EXPECT_EQ(pivots[0], 0);
  EXPECT_EQ(pivots[1], 100);
  EXPECT_EQ(pivots[2], 50);
}

TEST(KCentersPivots, PivotsAreDistinctOnNonTrivialGraphs) {
  const CsrGraph g = BuildCsrGraph(400, GenGrid2d(20, 20));
  const auto pivots = KCentersFromZero(g, 10);
  std::set<vid_t> unique(pivots.begin(), pivots.end());
  EXPECT_EQ(unique.size(), pivots.size());
}

TEST(KCentersPivots, TwoApproximationProperty) {
  // Gonzalez's guarantee: the farthest-first radius is at most 2x optimal.
  // We verify the weaker but checkable invariant that each new pivot was at
  // maximal distance from the previous set at selection time.
  const CsrGraph g = BuildCsrGraph(225, GenGrid2d(15, 15));
  const auto pivots = KCentersFromZero(g, 5);

  std::vector<dist_t> to_set(static_cast<std::size_t>(g.NumVertices()),
                             kInfDist);
  for (std::size_t i = 0; i < pivots.size(); ++i) {
    if (i > 0) {
      // pivots[i] must achieve the max of to_set.
      dist_t maxd = 0;
      for (const dist_t d : to_set) {
        if (d != kInfDist) maxd = std::max(maxd, d);
      }
      EXPECT_EQ(to_set[static_cast<std::size_t>(pivots[i])], maxd);
    }
    const auto dist = SerialBfs(g, pivots[i]);
    for (std::size_t v = 0; v < dist.size(); ++v) {
      to_set[v] = std::min(to_set[v], dist[v]);
    }
  }
}

TEST(DistancePhase, KCentersFillsColumnsWithBfsDistances) {
  const CsrGraph g = BuildCsrGraph(100, GenGrid2d(10, 10));
  HdeOptions options;
  options.subspace_dim = 4;
  options.start_vertex = 0;
  const DistancePhase phase = RunDistancePhase(g, options);
  ASSERT_EQ(phase.pivots.size(), 4u);
  ASSERT_EQ(phase.B.Cols(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto expected = SerialBfs(g, phase.pivots[i]);
    for (vid_t v = 0; v < 100; ++v) {
      EXPECT_DOUBLE_EQ(phase.B.At(static_cast<std::size_t>(v), i),
                       static_cast<double>(expected[static_cast<std::size_t>(v)]));
    }
  }
}

TEST(DistancePhase, RandomStrategyAlsoFillsBfsDistances) {
  const CsrGraph g = BuildCsrGraph(225, GenGrid2d(15, 15));
  HdeOptions options;
  options.subspace_dim = 6;
  options.pivots = PivotStrategy::Random;
  options.seed = 3;
  const DistancePhase phase = RunDistancePhase(g, options);
  ASSERT_EQ(phase.pivots.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto expected = SerialBfs(g, phase.pivots[i]);
    for (vid_t v = 0; v < g.NumVertices(); ++v) {
      EXPECT_DOUBLE_EQ(phase.B.At(static_cast<std::size_t>(v), i),
                       static_cast<double>(expected[static_cast<std::size_t>(v)]));
    }
  }
}

TEST(DistancePhase, SerialKernelMatchesParallelKernel) {
  const CsrGraph g = BuildCsrGraph(256, GenKronecker(8, 5, 4));
  HdeOptions par;
  par.subspace_dim = 3;
  par.start_vertex = 0;
  HdeOptions ser = par;
  ser.kernel = DistanceKernel::SerialBfs;
  const DistancePhase a = RunDistancePhase(g, par);
  const DistancePhase b = RunDistancePhase(g, ser);
  EXPECT_EQ(a.pivots, b.pivots);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t r = 0; r < static_cast<std::size_t>(g.NumVertices()); ++r) {
      EXPECT_DOUBLE_EQ(a.B.At(r, c), b.B.At(r, c));
    }
  }
}

TEST(DistancePhase, SsspKernelOnUnitWeightsMatchesBfs) {
  BuildOptions bopts;
  bopts.keep_weights = true;
  EdgeList edges = GenGrid2d(12, 12);  // unit weights by default
  const CsrGraph g = BuildCsrGraph(144, edges, bopts);
  HdeOptions options;
  options.subspace_dim = 3;
  options.start_vertex = 0;
  options.kernel = DistanceKernel::DeltaStepping;
  const DistancePhase phase = RunDistancePhase(g, options);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto expected = SerialBfs(g, phase.pivots[i]);
    for (vid_t v = 0; v < 144; ++v) {
      EXPECT_DOUBLE_EQ(phase.B.At(static_cast<std::size_t>(v), i),
                       static_cast<double>(expected[static_cast<std::size_t>(v)]));
    }
  }
}

CsrGraph WeightedConnected(vid_t scale, std::uint64_t seed) {
  EdgeList edges = GenKronecker(scale, 6, seed);
  AssignRandomWeights(edges, 2.0, 20.0, seed + 1);
  BuildOptions opts;
  opts.keep_weights = true;
  opts.merge = BuildOptions::MergePolicy::Min;
  return LargestComponent(BuildCsrGraph(vid_t{1} << scale, edges, opts)).graph;
}

TEST(DistancePhase, WeightedRandomPhaseMatchesDijkstra) {
  // The random-pivot weighted phase must produce exact Dijkstra columns no
  // matter which engine the auto heuristic picks.
  const CsrGraph g = WeightedConnected(9, 41);
  HdeOptions options;
  options.subspace_dim = 6;
  options.pivots = PivotStrategy::Random;
  options.kernel = DistanceKernel::DeltaStepping;
  options.seed = 5;
  const DistancePhase phase = RunDistancePhase(g, options);
  ASSERT_EQ(phase.B.Cols(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const auto expected = Dijkstra(g, phase.pivots[i]);
    for (vid_t v = 0; v < g.NumVertices(); ++v) {
      EXPECT_NEAR(phase.B.At(static_cast<std::size_t>(v), i),
                  expected[static_cast<std::size_t>(v)], 1e-9)
          << "column " << i << " vertex " << v;
    }
  }
}

TEST(DistancePhase, WeightedEnginesProduceEqualColumns) {
  // One parallel Δ-stepping search at a time vs one sequential Δ-stepping
  // per thread: identical pivots, near-identical distance matrices.
  const CsrGraph g = WeightedConnected(9, 43);
  HdeOptions par;
  par.subspace_dim = 8;
  par.pivots = PivotStrategy::Random;
  par.kernel = DistanceKernel::DeltaStepping;
  par.seed = 7;
  par.sssp_engine = SsspEngine::Parallel;
  HdeOptions con = par;
  con.sssp_engine = SsspEngine::Concurrent;
  const DistancePhase a = RunDistancePhase(g, par);
  const DistancePhase b = RunDistancePhase(g, con);
  ASSERT_EQ(a.pivots, b.pivots);
  for (std::size_t c = 0; c < 8; ++c) {
    for (std::size_t r = 0; r < static_cast<std::size_t>(g.NumVertices());
         ++r) {
      EXPECT_NEAR(a.B.At(r, c), b.B.At(r, c), 1e-9);
    }
  }
}

TEST(DistancePhase, WeightedSentinelSortsAboveReachable) {
  // Regression test for the weighted unreachable sentinel: with weights in
  // [8, 10] the far corner of the grid is at distance >= 22 hops * 8 = 176
  // > n = 147, so the old hop sentinel n would sort *below* reachable
  // vertices. Every unreachable entry must be strictly above every finite
  // entry of its column.
  EdgeList edges = GenGrid2d(12, 12);  // component A: 0..143
  edges.push_back({144, 145, 1.0});    // component B: 144-145-146
  edges.push_back({145, 146, 1.0});
  AssignRandomWeights(edges, 8.0, 10.0, 23);
  BuildOptions bopts;
  bopts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(147, edges, bopts);
  const vid_t n = g.NumVertices();

  HdeOptions options;
  options.kernel = DistanceKernel::DeltaStepping;
  options.subspace_dim = 1;
  options.start_vertex = 0;
  const DistancePhase phase = RunDistancePhase(g, options);
  const auto column = phase.B.Col(0);

  const auto expected = Dijkstra(g, 0);
  double max_reachable = 0.0;
  for (vid_t v = 0; v < n; ++v) {
    if (std::isfinite(expected[static_cast<std::size_t>(v)])) {
      max_reachable =
          std::max(max_reachable, column[static_cast<std::size_t>(v)]);
    }
  }
  // The premise of the bug: reachable weighted distances exceed n.
  ASSERT_GT(max_reachable, static_cast<double>(n));
  for (vid_t v = 145; v < n; ++v) {
    EXPECT_GT(column[static_cast<std::size_t>(v)], max_reachable)
        << "unreachable vertex " << v << " sorted below a reachable one";
  }
}

TEST(DistancePhase, WeightedKCentersUsesWeightedFarthestVertex) {
  // On a weighted chain, k-centers with the SSSP kernel must chase the
  // weighted-farthest vertex, and columns must be weighted distances.
  BuildOptions bopts;
  bopts.keep_weights = true;
  EdgeList edges = GenChain(50);
  AssignRandomWeights(edges, 1.0, 9.0, 31);
  const CsrGraph g = BuildCsrGraph(50, edges, bopts);
  HdeOptions options;
  options.subspace_dim = 4;
  options.start_vertex = 0;
  options.kernel = DistanceKernel::DeltaStepping;
  const DistancePhase phase = RunDistancePhase(g, options);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto expected = Dijkstra(g, phase.pivots[i]);
    for (vid_t v = 0; v < 50; ++v) {
      EXPECT_NEAR(phase.B.At(static_cast<std::size_t>(v), i),
                  expected[static_cast<std::size_t>(v)], 1e-9);
    }
  }
}

TEST(DistancePhase, WeightedRandomPhaseAcrossThreadCounts) {
  // The auto engine split depends on the thread count (s >= threads picks
  // the concurrent driver); both sides of the split must agree with
  // Dijkstra at every count.
  const CsrGraph g = WeightedConnected(8, 47);
  for (const int threads : {1, 4, 16}) {
    ThreadCountGuard guard(threads);
    HdeOptions options;
    options.subspace_dim = 8;  // concurrent at 1 and 4 threads, parallel at 16
    options.pivots = PivotStrategy::Random;
    options.kernel = DistanceKernel::DeltaStepping;
    options.seed = 11;
    const DistancePhase phase = RunDistancePhase(g, options);
    for (std::size_t i = 0; i < 8; ++i) {
      const auto expected = Dijkstra(g, phase.pivots[i]);
      for (vid_t v = 0; v < g.NumVertices(); ++v) {
        EXPECT_NEAR(phase.B.At(static_cast<std::size_t>(v), i),
                    expected[static_cast<std::size_t>(v)], 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace parhde
