#include "graph/structure.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "graph/social.h"

namespace impreg {
namespace {

TEST(CoreTest, CliqueIsItsOwnCore) {
  const std::vector<int> core = CoreNumbers(CompleteGraph(6));
  for (int c : core) EXPECT_EQ(c, 5);
  EXPECT_EQ(Degeneracy(CompleteGraph(6)), 5);
}

TEST(CoreTest, TreeHasDegeneracyOne) {
  EXPECT_EQ(Degeneracy(CompleteBinaryTree(31)), 1);
  EXPECT_EQ(Degeneracy(PathGraph(10)), 1);
  EXPECT_EQ(Degeneracy(StarGraph(10)), 1);
}

TEST(CoreTest, CycleIsTwoCore) {
  const std::vector<int> core = CoreNumbers(CycleGraph(9));
  for (int c : core) EXPECT_EQ(c, 2);
}

TEST(CoreTest, LollipopSeparatesCliqueFromTail) {
  const Graph g = LollipopGraph(6, 5);  // K6 + 5-node tail.
  const std::vector<int> core = CoreNumbers(g);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(core[u], 5);
  for (NodeId u = 6; u < 11; ++u) EXPECT_EQ(core[u], 1);
  const std::vector<NodeId> k5 = KCore(g, 5);
  EXPECT_EQ(k5.size(), 6u);
}

TEST(CoreTest, WhiskersArePeeledFirst) {
  Rng rng(1);
  SocialGraphParams params;
  params.core_nodes = 1000;
  params.num_communities = 3;
  params.num_whiskers = 20;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  const std::vector<int> core = CoreNumbers(sg.graph);
  for (const auto& whisker : sg.whiskers) {
    for (NodeId u : whisker) EXPECT_EQ(core[u], 1);
  }
}

TEST(CoreTest, CoreNumberAtMostDegree) {
  Rng rng(2);
  const Graph g = ErdosRenyi(200, 0.05, rng);
  const std::vector<int> core = CoreNumbers(g);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_LE(core[u], g.OutDegree(u));
    EXPECT_GE(core[u], 0);
  }
}

TEST(CoreTest, KCoreInducedMinDegreeIsK) {
  // Definitional property: within the k-core, every node has ≥ k
  // neighbors that are also in the k-core.
  Rng rng(3);
  const Graph g = ErdosRenyi(150, 0.08, rng);
  const int k = 4;
  const std::vector<NodeId> core_nodes = KCore(g, k);
  std::vector<char> in_core(g.NumNodes(), 0);
  for (NodeId u : core_nodes) in_core[u] = 1;
  for (NodeId u : core_nodes) {
    int internal = 0;
    for (const NodeId v : g.Heads(u)) {
      if (v != u && in_core[v]) ++internal;
    }
    EXPECT_GE(internal, k);
  }
}

TEST(TriangleTest, KnownCounts) {
  EXPECT_EQ(CountTriangles(CompleteGraph(5)), 10);  // C(5,3).
  EXPECT_EQ(CountTriangles(CycleGraph(3)), 1);
  EXPECT_EQ(CountTriangles(CycleGraph(8)), 0);
  EXPECT_EQ(CountTriangles(PathGraph(10)), 0);
  EXPECT_EQ(CountTriangles(StarGraph(10)), 0);
}

TEST(TriangleTest, PerNodeCountsOnClique) {
  const std::vector<std::int64_t> counts = TriangleCounts(CompleteGraph(6));
  for (std::int64_t c : counts) EXPECT_EQ(c, 10);  // C(5,2).
}

TEST(TriangleTest, SelfLoopsIgnored) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 0);
  builder.AddEdge(0, 0, 4.0);
  EXPECT_EQ(CountTriangles(builder.Build()), 1);
}

TEST(TriangleTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(4);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = ErdosRenyi(40, 0.2, rng);
    std::int64_t brute = 0;
    for (NodeId a = 0; a < 40; ++a) {
      for (NodeId b = a + 1; b < 40; ++b) {
        if (!g.HasEdge(a, b)) continue;
        for (NodeId c = b + 1; c < 40; ++c) {
          if (g.HasEdge(a, c) && g.HasEdge(b, c)) ++brute;
        }
      }
    }
    EXPECT_EQ(CountTriangles(g), brute);
  }
}

TEST(ClusteringTest, CliqueHasCoefficientOne) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(CompleteGraph(7)), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(CompleteGraph(7)), 1.0);
}

TEST(ClusteringTest, TreeHasCoefficientZero) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(CompleteBinaryTree(15)), 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(StarGraph(8)), 0.0);
}

TEST(ClusteringTest, LocalValuesInUnitInterval) {
  Rng rng(5);
  const Graph g = WattsStrogatz(100, 6, 0.1, rng);
  for (double c : LocalClusteringCoefficients(g)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(ClusteringTest, SmallWorldHasHighClustering) {
  Rng rng(6);
  const Graph lattice = WattsStrogatz(300, 6, 0.0, rng);
  const Graph random = ErdosRenyi(300, 6.0 / 299.0, rng);
  EXPECT_GT(AverageClusteringCoefficient(lattice),
            5.0 * AverageClusteringCoefficient(random) + 0.1);
}

TEST(ClusteringTest, EmptyAndTinyGraphs) {
  GraphBuilder empty(0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(empty.Build()), 0.0);
  EXPECT_EQ(Degeneracy(empty.Build()), 0);
  GraphBuilder single(1);
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(single.Build()), 0.0);
}

}  // namespace
}  // namespace impreg
