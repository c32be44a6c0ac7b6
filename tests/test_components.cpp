#include "graph/components.hpp"

#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/parallel.hpp"

namespace parhde {
namespace {

TEST(ConnectedComponents, SingleComponent) {
  const CsrGraph g = BuildCsrGraph(10, GenRing(10));
  const auto labels = ConnectedComponents(g);
  EXPECT_EQ(CountComponents(labels), 1);
  for (const vid_t l : labels) EXPECT_EQ(l, 0);
}

TEST(ConnectedComponents, IsolatedVerticesAreOwnComponents) {
  const CsrGraph g = BuildCsrGraph(5, {});
  const auto labels = ConnectedComponents(g);
  EXPECT_EQ(CountComponents(labels), 5);
}

TEST(ConnectedComponents, LabelsAreCanonicalMinima) {
  // Components {0,1}, {2,3,4}: labels must be the smallest member.
  const CsrGraph g = BuildCsrGraph(5, {{0, 1}, {2, 3}, {3, 4}});
  const auto labels = ConnectedComponents(g);
  EXPECT_EQ(labels[0], 0);
  EXPECT_EQ(labels[1], 0);
  EXPECT_EQ(labels[2], 2);
  EXPECT_EQ(labels[3], 2);
  EXPECT_EQ(labels[4], 2);
}

TEST(LargestComponent, PicksBiggest) {
  // Two components: sizes 2 and 3.
  const CsrGraph g = BuildCsrGraph(5, {{0, 1}, {2, 3}, {3, 4}});
  const auto extraction = LargestComponent(g);
  EXPECT_EQ(extraction.graph.NumVertices(), 3);
  EXPECT_EQ(extraction.graph.NumEdges(), 2);
  EXPECT_EQ(extraction.new_to_old, (std::vector<vid_t>{2, 3, 4}));
}

TEST(LargestComponent, PreservesRelativeOrder) {
  // Component members 1, 4, 7 must map to 0, 1, 2 in that order.
  const CsrGraph g = BuildCsrGraph(8, {{1, 4}, {4, 7}, {0, 2}});
  const auto extraction = LargestComponent(g);
  EXPECT_EQ(extraction.new_to_old, (std::vector<vid_t>{1, 4, 7}));
  EXPECT_EQ(extraction.old_to_new[1], 0);
  EXPECT_EQ(extraction.old_to_new[4], 1);
  EXPECT_EQ(extraction.old_to_new[7], 2);
  EXPECT_EQ(extraction.old_to_new[0], kInvalidVid);
}

TEST(LargestComponent, MappingsAreInverse) {
  const CsrGraph g = BuildCsrGraph(1 << 10, GenKronecker(10, 4, 5));
  const auto extraction = LargestComponent(g);
  for (std::size_t nv = 0; nv < extraction.new_to_old.size(); ++nv) {
    const vid_t old = extraction.new_to_old[nv];
    EXPECT_EQ(extraction.old_to_new[static_cast<std::size_t>(old)],
              static_cast<vid_t>(nv));
  }
}

TEST(LargestComponent, KeepsWeights) {
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(4, {{0, 1, 2.5}, {1, 2, 1.5}}, opts);
  const auto extraction = LargestComponent(g);
  EXPECT_TRUE(extraction.graph.HasWeights());
  EXPECT_EQ(extraction.graph.NumVertices(), 3);
  EXPECT_DOUBLE_EQ(extraction.graph.NeighborWeights(0)[0], 2.5);
}

TEST(LargestComponent, ResultIsConnected) {
  const CsrGraph g = BuildCsrGraph(2000, GenUniformRandom(2000, 3000, 6));
  const auto extraction = LargestComponent(g);
  EXPECT_TRUE(IsConnected(extraction.graph));
  EXPECT_TRUE(extraction.graph.Validate());
}

TEST(IsConnected, EmptyAndSingleton) {
  EXPECT_TRUE(IsConnected(BuildCsrGraph(0, {})));
  EXPECT_TRUE(IsConnected(BuildCsrGraph(1, {})));
  EXPECT_FALSE(IsConnected(BuildCsrGraph(2, {})));
}

// ExtractComponent filters the CSR directly; it must produce exactly what
// rebuilding the filtered, renumbered edge list produces.

CsrGraph RebuiltComponent(const CsrGraph& g, const std::vector<vid_t>& labels,
                          vid_t label) {
  std::vector<vid_t> old_to_new(labels.size(), kInvalidVid);
  vid_t next = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == label) old_to_new[v] = next++;
  }
  EdgeList edges;
  for (const Edge& e : g.ToEdgeList()) {
    const vid_t u = old_to_new[static_cast<std::size_t>(e.u)];
    const vid_t v = old_to_new[static_cast<std::size_t>(e.v)];
    if (u != kInvalidVid && v != kInvalidVid) edges.push_back({u, v, e.w});
  }
  BuildOptions opts;
  opts.keep_weights = g.HasWeights();
  return BuildCsrGraph(next, edges, opts);
}

void ExpectExtractionMatchesRebuild(const CsrGraph& g,
                                    const std::vector<vid_t>& labels,
                                    vid_t label) {
  const CsrGraph want = RebuiltComponent(g, labels, label);
  for (const int threads : {1, 4}) {
    ThreadCountGuard guard(threads);
    const ComponentExtraction got = ExtractComponent(g, labels, label);
    EXPECT_EQ(got.graph.Offsets(), want.Offsets()) << threads;
    EXPECT_EQ(got.graph.Adjacency(), want.Adjacency()) << threads;
    EXPECT_EQ(got.graph.Weights(), want.Weights()) << threads;
    EXPECT_EQ(got.graph.WeightedDegrees(), want.WeightedDegrees()) << threads;
    ASSERT_EQ(got.new_to_old.size(),
              static_cast<std::size_t>(want.NumVertices()));
    for (std::size_t nv = 0; nv < got.new_to_old.size(); ++nv) {
      EXPECT_EQ(labels[static_cast<std::size_t>(got.new_to_old[nv])], label);
      EXPECT_EQ(got.old_to_new[static_cast<std::size_t>(got.new_to_old[nv])],
                static_cast<vid_t>(nv));
    }
  }
}

TEST(ExtractComponentDirect, MatchesRebuildOnKron) {
  const CsrGraph g = BuildCsrGraph(1 << 14, GenKronecker(14, 8, 21));
  const std::vector<vid_t> labels = ConnectedComponents(g);
  const vid_t largest = LargestComponent(g).new_to_old.front();
  ExpectExtractionMatchesRebuild(g, labels, labels[static_cast<std::size_t>(largest)]);
}

TEST(ExtractComponentDirect, MatchesRebuildOnWeightedGraph) {
  EdgeList edges = GenUniformRandom(20000, 30000, 22);
  AssignRandomWeights(edges, 0.5, 4.0, 23);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(20000, edges, opts);
  const std::vector<vid_t> labels = ConnectedComponents(g);
  const vid_t largest = LargestComponent(g).new_to_old.front();
  ExpectExtractionMatchesRebuild(g, labels, labels[static_cast<std::size_t>(largest)]);
}

TEST(ExtractComponentDirect, MatchesRebuildWithLabelsThatAreNotComponentClosed) {
  // Residues mod 3 cut most edges of a connected grid; cross-label arcs
  // must be dropped from both endpoints.
  EdgeList edges = GenGrid2d(120, 130);
  AssignRandomWeights(edges, 1.0, 2.0, 24);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(120 * 130, edges, opts);
  std::vector<vid_t> labels(static_cast<std::size_t>(g.NumVertices()));
  for (std::size_t v = 0; v < labels.size(); ++v) {
    labels[v] = static_cast<vid_t>((v * 7 + v / 5) % 3);
  }
  for (const vid_t label : {0, 1, 2}) {
    ExpectExtractionMatchesRebuild(g, labels, label);
  }
  ExpectExtractionMatchesRebuild(g, labels, 5);  // no members: empty graph
}

class ComponentCountSweep
    : public ::testing::TestWithParam<int> {};

TEST_P(ComponentCountSweep, DisjointRingsCounted) {
  const int rings = GetParam();
  EdgeList edges;
  const vid_t ring_size = 6;
  for (int r = 0; r < rings; ++r) {
    const vid_t base = r * ring_size;
    for (vid_t i = 0; i < ring_size; ++i) {
      edges.push_back({static_cast<vid_t>(base + i),
                       static_cast<vid_t>(base + (i + 1) % ring_size), 1.0});
    }
  }
  const CsrGraph g = BuildCsrGraph(rings * ring_size, edges);
  EXPECT_EQ(CountComponents(ConnectedComponents(g)), rings);
}

INSTANTIATE_TEST_SUITE_P(RingCounts, ComponentCountSweep,
                         ::testing::Values(1, 2, 5, 17));

}  // namespace
}  // namespace parhde
