#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "graph/generators.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

TEST(Builder, RemovesSelfLoops) {
  const CsrGraph g = BuildCsrGraph(3, {{0, 0}, {0, 1}, {1, 1}, {2, 2}});
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.Validate());
}

TEST(Builder, MergesParallelEdges) {
  const CsrGraph g = BuildCsrGraph(2, {{0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.Degree(0), 1);
  EXPECT_TRUE(g.Validate());
}

TEST(Builder, SymmetrizesDirectedInput) {
  const CsrGraph g = BuildCsrGraph(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 1));
}

TEST(Builder, WeightMergeSum) {
  BuildOptions opts;
  opts.keep_weights = true;
  opts.merge = BuildOptions::MergePolicy::Sum;
  const CsrGraph g = BuildCsrGraph(2, {{0, 1, 2.0}, {1, 0, 3.0}}, opts);
  EXPECT_DOUBLE_EQ(g.NeighborWeights(0)[0], 5.0);
  EXPECT_TRUE(g.Validate());
}

TEST(Builder, WeightMergeMin) {
  BuildOptions opts;
  opts.keep_weights = true;
  opts.merge = BuildOptions::MergePolicy::Min;
  const CsrGraph g = BuildCsrGraph(2, {{0, 1, 2.0}, {0, 1, 3.0}}, opts);
  EXPECT_DOUBLE_EQ(g.NeighborWeights(0)[0], 2.0);
}

TEST(Builder, WeightMergeMax) {
  BuildOptions opts;
  opts.keep_weights = true;
  opts.merge = BuildOptions::MergePolicy::Max;
  const CsrGraph g = BuildCsrGraph(2, {{0, 1, 2.0}, {0, 1, 3.0}}, opts);
  EXPECT_DOUBLE_EQ(g.NeighborWeights(0)[0], 3.0);
}

TEST(Builder, DropWeightsWhenNotKept) {
  const CsrGraph g = BuildCsrGraph(2, {{0, 1, 7.0}});
  EXPECT_FALSE(g.HasWeights());
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 1.0);
}

TEST(Builder, EdgeCountMatchesCleanInput) {
  const EdgeList edges = GenGrid2d(10, 10);
  const CsrGraph g = BuildCsrGraph(100, edges);
  EXPECT_EQ(g.NumEdges(), static_cast<eid_t>(edges.size()));
}

TEST(Builder, RandomInputAlwaysValid) {
  const EdgeList edges = GenUniformRandom(500, 3000, 99);
  const CsrGraph g = BuildCsrGraph(500, edges);
  EXPECT_TRUE(g.Validate());
  EXPECT_LE(g.NumEdges(), 3000);  // self loops and duplicates removed
  EXPECT_GT(g.NumEdges(), 2500);  // but not many at this density
}

class BuilderThreadSweep : public ::testing::TestWithParam<int> {};

TEST_P(BuilderThreadSweep, DeterministicStructureAcrossThreads) {
  ThreadCountGuard guard(GetParam());
  const EdgeList edges = GenUniformRandom(300, 2000, 7);
  const CsrGraph g = BuildCsrGraph(300, edges);

  ThreadCountGuard serial(1);
  const CsrGraph ref = BuildCsrGraph(300, edges);
  EXPECT_EQ(g.Offsets(), ref.Offsets());
  EXPECT_EQ(g.Adjacency(), ref.Adjacency());
}

INSTANTIATE_TEST_SUITE_P(Threads, BuilderThreadSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(Builder, WeightedDeterministicAcrossThreads) {
  EdgeList edges = GenUniformRandom(200, 1500, 3);
  AssignRandomWeights(edges, 1.0, 10.0, 11);
  BuildOptions opts;
  opts.keep_weights = true;
  opts.merge = BuildOptions::MergePolicy::Sum;

  ThreadCountGuard guard(4);
  const CsrGraph g4 = BuildCsrGraph(200, edges, opts);
  ThreadCountGuard serial(1);
  const CsrGraph g1 = BuildCsrGraph(200, edges, opts);
  EXPECT_EQ(g4.Adjacency(), g1.Adjacency());
  ASSERT_EQ(g4.Weights().size(), g1.Weights().size());
  for (std::size_t i = 0; i < g4.Weights().size(); ++i) {
    EXPECT_DOUBLE_EQ(g4.Weights()[i], g1.Weights()[i]);
  }
}

TEST(BuilderThreadDeterminism, WeightedSumBitwiseIdenticalAt124Threads) {
  // About 7000 distinct pairs, each about 57 times in either orientation;
  // the merged sums must not depend on the order the scatter placed the
  // copies in.
  EdgeList edges = GenUniformRandom(2000, 400000, 31);
  AssignRandomWeights(edges, 0.001, 1000.0, 32);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i].v = edges[i].u ^ static_cast<vid_t>(1 + (i % 7));
    if (edges[i].v >= 2000) edges[i].v = edges[i].u;
    if (i % 2 == 1) std::swap(edges[i].u, edges[i].v);
  }
  BuildOptions opts;
  opts.keep_weights = true;
  const auto build_at = [&](int threads) {
    ThreadCountGuard guard(threads);
    return BuildCsrGraph(2000, edges, opts);
  };
  const CsrGraph one = build_at(1);
  for (const int threads : {2, 4}) {
    const CsrGraph g = build_at(threads);
    EXPECT_EQ(g.Adjacency(), one.Adjacency()) << threads;
    ASSERT_EQ(g.Weights().size(), one.Weights().size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < g.Weights().size(); ++i) {
      differing += std::bit_cast<std::uint64_t>(g.Weights()[i]) !=
                   std::bit_cast<std::uint64_t>(one.Weights()[i]);
    }
    EXPECT_EQ(differing, 0u) << threads << " threads";
  }
}

}  // namespace
}  // namespace parhde
