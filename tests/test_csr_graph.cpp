#include "graph/csr_graph.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace parhde {
namespace {

CsrGraph Triangle() { return BuildCsrGraph(3, {{0, 1}, {1, 2}, {0, 2}}); }

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph g = BuildCsrGraph(0, {});
  EXPECT_EQ(g.NumVertices(), 0);
  EXPECT_EQ(g.NumEdges(), 0);
  EXPECT_TRUE(g.Validate());
}

TEST(CsrGraph, IsolatedVertices) {
  const CsrGraph g = BuildCsrGraph(5, {});
  EXPECT_EQ(g.NumVertices(), 5);
  EXPECT_EQ(g.NumEdges(), 0);
  for (vid_t v = 0; v < 5; ++v) EXPECT_EQ(g.Degree(v), 0);
  EXPECT_TRUE(g.Validate());
}

TEST(CsrGraph, TriangleBasics) {
  const CsrGraph g = Triangle();
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_EQ(g.NumArcs(), 6);
  for (vid_t v = 0; v < 3; ++v) {
    EXPECT_EQ(g.Degree(v), 2);
    EXPECT_DOUBLE_EQ(g.WeightedDegree(v), 2.0);
  }
  EXPECT_TRUE(g.Validate());
}

TEST(CsrGraph, NeighborsAreSorted) {
  const CsrGraph g = BuildCsrGraph(5, {{4, 0}, {2, 0}, {0, 3}, {1, 0}});
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_EQ(nbrs[0], 1);
  EXPECT_EQ(nbrs[1], 2);
  EXPECT_EQ(nbrs[2], 3);
  EXPECT_EQ(nbrs[3], 4);
}

TEST(CsrGraph, HasEdgeBothDirections) {
  const CsrGraph g = Triangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
  const CsrGraph chain = BuildCsrGraph(3, GenChain(3));
  EXPECT_FALSE(chain.HasEdge(0, 2));
}

TEST(CsrGraph, MaxDegreeOfStar) {
  const CsrGraph g = BuildCsrGraph(10, GenStar(10));
  EXPECT_EQ(g.MaxDegree(), 9);
}

TEST(CsrGraph, WeightedDegreeSumsWeights) {
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = BuildCsrGraph(3, {{0, 1, 2.5}, {0, 2, 1.5}}, opts);
  EXPECT_TRUE(g.HasWeights());
  EXPECT_DOUBLE_EQ(g.WeightedDegree(0), 4.0);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(1), 2.5);
  EXPECT_DOUBLE_EQ(g.WeightedDegree(2), 1.5);
  EXPECT_TRUE(g.Validate());
}

TEST(CsrGraph, ToEdgeListRoundTrips) {
  const CsrGraph g = BuildCsrGraph(6, GenRing(6));
  const EdgeList edges = g.ToEdgeList();
  EXPECT_EQ(edges.size(), 6u);
  const CsrGraph g2 = BuildCsrGraph(6, edges);
  EXPECT_EQ(g2.Offsets(), g.Offsets());
  EXPECT_EQ(g2.Adjacency(), g.Adjacency());
}

TEST(CsrGraph, ValidateCatchesAsymmetry) {
  // Hand-build a broken CSR: 0->1 exists but 1->0 does not.
  std::vector<eid_t> offsets{0, 1, 1};
  std::vector<vid_t> adj{1};
  // NumArcs is odd -> invalid, and asymmetric.
  const CsrGraph g(std::move(offsets), std::move(adj));
  EXPECT_FALSE(g.Validate());
}

TEST(CsrGraph, ValidateCatchesSelfLoop) {
  std::vector<eid_t> offsets{0, 2, 3, 4};
  std::vector<vid_t> adj{0, 1, 0, 0};  // 0->0 self loop plus 0-1 edge, junk
  const CsrGraph g(std::move(offsets), std::move(adj));
  EXPECT_FALSE(g.Validate());
}

struct GeneratorCase {
  const char* name;
  EdgeList edges;
};

// Print only the family name: gtest would otherwise print the pointer and
// the raw edge bytes, and ctest derives the test name from that text, so
// the name would change from build to build.
void PrintTo(const GeneratorCase& c, std::ostream* os) { *os << c.name; }

class GeneratorValidateSweep : public ::testing::TestWithParam<GeneratorCase> {
};

TEST_P(GeneratorValidateSweep, BuilderOutputAlwaysValid) {
  const auto& [name, edges] = GetParam();
  vid_t n = 0;
  for (const Edge& e : edges) n = std::max({n, e.u, e.v});
  const CsrGraph g = BuildCsrGraph(n + 1, edges);
  EXPECT_TRUE(g.Validate()) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorValidateSweep,
    ::testing::Values(GeneratorCase{"chain", GenChain(50)},
                      GeneratorCase{"ring", GenRing(64)},
                      GeneratorCase{"star", GenStar(40)},
                      GeneratorCase{"complete", GenComplete(12)},
                      GeneratorCase{"tree", GenBinaryTree(6)},
                      GeneratorCase{"grid", GenGrid2d(8, 9)},
                      GeneratorCase{"torus", GenGrid2d(6, 6, true)},
                      GeneratorCase{"grid3d", GenGrid3d(4, 5, 3)}));

}  // namespace
}  // namespace parhde
