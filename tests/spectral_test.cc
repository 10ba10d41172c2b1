#include "partition/spectral.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "partition/conductance.h"

namespace impreg {
namespace {

// Property test: the sweep cut of the exact v₂ satisfies both sides of
// the Cheeger inequality λ₂/2 ≤ φ(G) ≤ φ(sweep) ≤ √(2 λ₂).
class CheegerPropertyTest : public testing::TestWithParam<int> {
 protected:
  Graph MakeGraph() const {
    Rng rng(GetParam());
    switch (GetParam() % 6) {
      case 0:
        return PathGraph(24);
      case 1:
        return CycleGraph(30);
      case 2:
        return CavemanGraph(4, 6);
      case 3:
        return GridGraph(5, 8);
      case 4:
        return CockroachGraph(6);
      default: {
        Graph g = ErdosRenyi(60, 0.12, rng);
        while (!IsConnectedEnough(g)) g = ErdosRenyi(60, 0.12, rng);
        return g;
      }
    }
  }

 private:
  static bool IsConnectedEnough(const Graph& g) {
    // Require a connected graph so λ₂ > 0.
    std::vector<char> seen(g.NumNodes(), 0);
    std::vector<NodeId> stack = {0};
    seen[0] = 1;
    NodeId count = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId v : g.Heads(u)) {
        if (!seen[v]) {
          seen[v] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    return count == g.NumNodes();
  }
};

TEST_P(CheegerPropertyTest, SweepCutSatisfiesCheeger) {
  const Graph g = MakeGraph();
  const SpectralPartitionResult result = SpectralPartition(g);
  EXPECT_GT(result.lambda2, 0.0);
  ASSERT_FALSE(result.set.empty());
  // Upper bound: the sweep cut is quadratically good.
  EXPECT_LE(result.stats.conductance, result.cheeger_upper + 1e-9);
  // Lower bound: no cut beats λ₂/2, in particular not this one.
  EXPECT_GE(result.stats.conductance, result.cheeger_lower - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Families, CheegerPropertyTest,
                         testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                         11));

TEST(SpectralTest, DumbbellRecoversClique) {
  const Graph g = DumbbellGraph(8, 2);
  const SpectralPartitionResult result = SpectralPartition(g);
  // The bridge cut: conductance ≈ 1/vol(clique side).
  EXPECT_LT(result.stats.conductance, 0.05);
  // One side should contain a whole clique.
  EXPECT_GE(result.set.size(), 8u);
}

TEST(SpectralTest, CavemanSeparatesCliques) {
  const Graph g = CavemanGraph(2, 10);
  const SpectralPartitionResult result = SpectralPartition(g);
  EXPECT_EQ(result.set.size(), 10u);  // Exactly one clique.
  EXPECT_DOUBLE_EQ(result.stats.cut, 1.0);
}

TEST(SpectralTest, Lambda2MatchesAnalyticCycle) {
  const int n = 20;
  const SpectralPartitionResult result = SpectralPartition(CycleGraph(n));
  EXPECT_NEAR(result.lambda2, 1.0 - std::cos(2.0 * M_PI / n), 1e-8);
}

TEST(SpectralTest, CompleteGraphLambda2) {
  const int n = 12;
  const SpectralPartitionResult result = SpectralPartition(CompleteGraph(n));
  EXPECT_NEAR(result.lambda2, n / (n - 1.0), 1e-8);
}

TEST(SpectralTest, DisconnectedGraphHasZeroLambda2AndPerfectCut) {
  GraphBuilder builder(8);
  for (NodeId u = 0; u < 3; ++u) builder.AddEdge(u, (u + 1) % 4);
  builder.AddEdge(3, 0);
  for (NodeId u = 4; u < 7; ++u) builder.AddEdge(u, u + 1);
  builder.AddEdge(7, 4);
  const Graph g = builder.Build();
  const SpectralPartitionResult result = SpectralPartition(g);
  EXPECT_NEAR(result.lambda2, 0.0, 1e-8);
  EXPECT_NEAR(result.stats.conductance, 0.0, 1e-9);
  EXPECT_EQ(result.set.size(), 4u);  // One component.
}

TEST(SpectralTest, StringyGraphsSaturateTheUpperCheegerBound) {
  // §3.2: the quadratic factor "is obtained for spectral methods on
  // graphs with long stringy pieces". Quantitatively: on paths/cycles/
  // ladders the sweep conductance sits near the *upper* bound √(2λ₂)
  // (so φ ≫ λ₂/2: the certificate is quadratically loose), whereas on
  // the complete graph the *lower* bound λ₂/2 is exactly tight.
  for (const Graph& g :
       {CycleGraph(64), PathGraph(64), LadderGraph(32), CockroachGraph(16)}) {
    const SpectralPartitionResult result = SpectralPartition(g);
    EXPECT_GT(result.stats.conductance, 0.15 * result.cheeger_upper);
    EXPECT_GT(result.stats.conductance, 4.0 * result.cheeger_lower);
  }
  // Complete graph: the balanced cut achieves λ₂/2 exactly.
  const SpectralPartitionResult complete = SpectralPartition(CompleteGraph(10));
  EXPECT_NEAR(complete.stats.conductance, complete.cheeger_lower, 1e-9);
}

TEST(SpectralTest, SweepHatVectorOnProvidedVector) {
  const Graph g = DumbbellGraph(5, 0);
  Vector x(g.NumNodes(), -1.0);
  for (NodeId u = 0; u < 5; ++u) x[u] = 1.0;
  const SpectralPartitionResult result = SweepHatVector(g, x);
  EXPECT_DOUBLE_EQ(result.stats.cut, 1.0);
  EXPECT_GT(result.lambda2, 0.0);  // Rayleigh quotient of x.
}

TEST(SpectralTest, EdgelessGraphDies) {
  GraphBuilder builder(3);
  EXPECT_DEATH(SpectralPartition(builder.Build()), "no edges");
}

}  // namespace
}  // namespace impreg
