// Failure-injection and boundary-condition tests across the library:
// the inputs a downstream user will eventually feed it — empty graphs,
// isolated nodes, saturated parameters, starved iteration budgets —
// must produce defined behavior (a clean result, a documented fallback,
// or a CHECK), never garbage.

#include <gtest/gtest.h>

#include "core/impreg.h"

namespace impreg {
namespace {

// ---------------------------------------------------------------- graphs

TEST(EdgeCasesTest, SingleNodeGraphEverywhere) {
  GraphBuilder builder(1);
  const Graph g = builder.Build();
  EXPECT_EQ(CountComponents(g), 1);
  EXPECT_TRUE(IsConnected(g));
  EXPECT_EQ(Degeneracy(g), 0);
  EXPECT_EQ(CountTriangles(g), 0);
  EXPECT_TRUE(FindBridges(g).empty());
  EXPECT_TRUE(FindWhiskers(g).empty());
}

TEST(EdgeCasesTest, SelfLoopOnlyGraph) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 0, 3.0);
  const Graph g = builder.Build();
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 3.0);
  // Conductance of {0}: no edge can cross a self-loop.
  EXPECT_DOUBLE_EQ(ComputeCutStats(g, {0}).cut, 0.0);
  // The lazy walk fixes the loop's mass.
  LazyWalkOptions walk;
  walk.steps = 5;
  const Vector out = LazyWalk(g, SingleNodeSeed(g, 0), walk);
  EXPECT_NEAR(out[0], 1.0, 1e-12);
}

TEST(EdgeCasesTest, IsolatedNodesSurviveDiffusions) {
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  // PPR from a connected seed never reaches isolated nodes.
  const Vector p = PersonalizedPageRank(g, SingleNodeSeed(g, 0)).scores;
  EXPECT_DOUBLE_EQ(p[3], 0.0);
  // Heat kernel keeps isolated mass exactly in place.
  HeatKernelOptions hk;
  hk.t = 2.0;
  const Vector rho = HeatKernelWalk(g, SingleNodeSeed(g, 4), hk);
  EXPECT_NEAR(rho[4], 1.0, 1e-12);
}

// --------------------------------------------------------------- budgets

TEST(EdgeCasesTest, PushWithTinyCapStopsCleanly) {
  Rng rng(1);
  const Graph g = ErdosRenyi(100, 0.1, rng);
  PushOptions options;
  options.alpha = 0.05;
  options.epsilon = 1e-8;
  options.max_pushes = 10;
  const PushResult result =
      ApproximatePageRank(g, SingleNodeSeed(g, 0), options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kBudgetExhausted);
  EXPECT_LE(result.pushes, 10);
  // Mass conservation still holds at the point it stopped.
  EXPECT_NEAR(Sum(result.p) + Sum(result.residual), 1.0, 1e-10);
}

TEST(EdgeCasesTest, LanczosWithOneIterationReportsHonestly) {
  Rng rng(2);
  const Graph g = ErdosRenyi(50, 0.15, rng);
  const NormalizedLaplacianOperator lap(g);
  LanczosOptions options;
  options.max_iterations = 1;
  const LanczosResult result = LanczosSmallest(lap, 1, options);
  EXPECT_EQ(result.iterations, 1);
  ASSERT_EQ(result.eigenvectors.size(), 1u);
  EXPECT_NEAR(Norm2(result.eigenvectors[0]), 1.0, 1e-12);
}

TEST(EdgeCasesTest, MqiSingleRound) {
  const Graph g = LollipopGraph(10, 8);
  std::vector<NodeId> sloppy;
  for (NodeId u = 10; u < 18; ++u) sloppy.push_back(u);
  sloppy.push_back(0);
  const double before = Conductance(g, sloppy);
  const MqiResult result = Mqi(g, sloppy, /*max_rounds=*/1);
  EXPECT_LE(result.stats.conductance, before + 1e-12);
  EXPECT_LE(result.rounds, 1);
}

// ----------------------------------------------------------- saturation

TEST(EdgeCasesTest, SweepWithConstantValues) {
  const Graph g = CycleGraph(10);
  const SweepResult result = SweepCut(g, Vector(10, 1.0));
  // Deterministic order (by id), a valid nonempty cut.
  EXPECT_FALSE(result.set.empty());
  EXPECT_LE(result.stats.conductance, 1.0);
}

TEST(EdgeCasesTest, NibbleOneStep) {
  const Graph g = CavemanGraph(2, 6);
  NibbleOptions options;
  options.steps = 1;
  const NibbleResult result = Nibble(g, 0, options);
  EXPECT_LE(result.best_step, 1);
  EXPECT_NEAR(Sum(result.distribution) + result.truncated_mass, 1.0, 1e-10);
}

TEST(EdgeCasesTest, HkRelaxTinyTime) {
  const Graph g = PathGraph(20);
  HkRelaxOptions options;
  options.t = 1e-6;
  const HkRelaxResult result = HeatKernelRelax(g, 10, options);
  // Almost nothing diffuses: the seed dominates.
  EXPECT_GT(result.rho[10], 0.999);
}

TEST(EdgeCasesTest, PageRankGammaExtremes) {
  const Graph g = CycleGraph(8);
  PageRankOptions high;
  high.gamma = 1.0 - 1e-9;
  const Vector p = PersonalizedPageRank(g, SingleNodeSeed(g, 0), high).scores;
  EXPECT_GT(p[0], 1.0 - 1e-6);
}

TEST(EdgeCasesTest, MultilevelOnCompleteGraph) {
  // No good cut exists; the bisection must still return a balanced one.
  const MultilevelResult result = MultilevelBisection(CompleteGraph(32));
  EXPECT_NEAR(static_cast<double>(result.set.size()), 16.0, 4.0);
}

TEST(EdgeCasesTest, MultilevelOnStarGraph) {
  // Star: every balanced cut must cut ~half the edges; must not crash
  // or return a degenerate side.
  const MultilevelResult result = MultilevelBisection(StarGraph(64));
  EXPECT_GE(result.set.size(), 1u);
  EXPECT_LT(result.set.size(), 64u);
}

TEST(EdgeCasesTest, KwayOnDisconnectedGraph) {
  GraphBuilder builder(12);
  for (NodeId i = 0; i < 5; ++i) builder.AddEdge(i, (i + 1) % 6);
  builder.AddEdge(5, 0);
  for (NodeId i = 6; i < 11; ++i) builder.AddEdge(i, i + 1);
  const Graph g = builder.Build();
  const KwayResult result = KwayPartition(g, 3);
  std::int64_t total = 0;
  for (std::int64_t s : result.sizes) {
    EXPECT_GT(s, 0);
    total += s;
  }
  EXPECT_EQ(total, 12);
}

TEST(EdgeCasesTest, NcpOnTinyGraph) {
  const Graph g = CycleGraph(8);
  SpectralFamilyOptions options;
  options.num_seeds = 2;
  options.alphas = {0.1};
  options.epsilons = {1e-3};
  const auto clusters = SpectralFamilyClusters(g, options);
  for (const NcpCluster& c : clusters) {
    EXPECT_GE(c.stats.conductance, 0.0);
    EXPECT_LE(c.stats.conductance, 1.0);
    EXPECT_LT(c.nodes.size(), 8u);
  }
}

TEST(EdgeCasesTest, EquivalenceAtExtremeEta) {
  // Very small and very large regularization must both stay exact.
  const Graph g = CycleGraph(12);
  EXPECT_LT(VerifyHeatKernelEquivalence(g, 1e-4).trace_distance, 1e-8);
  EXPECT_LT(VerifyHeatKernelEquivalence(g, 500.0).trace_distance, 1e-8);
  EXPECT_LT(VerifyPageRankEquivalence(g, 0.999).trace_distance, 1e-8);
  EXPECT_LT(VerifyLazyWalkEquivalence(g, 0.5, 1).trace_distance, 1e-8);
}

TEST(EdgeCasesTest, MovAtSigmaFarBelowSpectrum) {
  const Graph g = GridGraph(4, 5);
  const MovResult result = MovSolveAtSigma(g, {0}, -1e4);
  // x collapses onto (the projected) seed; still unit and well-formed.
  EXPECT_NEAR(Norm2(result.x), 1.0, 1e-10);
  EXPECT_GT(result.correlation_sq, 0.9);
}

TEST(EdgeCasesTest, IncrementalPprOnEmptyGraphThenEdges) {
  DynamicGraph empty(4);
  Vector seed(4, 0.0);
  seed[0] = 1.0;
  IncrementalPersonalizedPageRank inc(empty, seed);
  // With no edges, all mass is teleport mass at the seed.
  EXPECT_NEAR(inc.Scores()[0], inc.Scores()[0], 0.0);
  inc.AddEdge(0, 1);
  inc.AddEdge(1, 2);
  EXPECT_GT(inc.Scores()[1], 0.0);
  EXPECT_GT(inc.Scores()[2], 0.0);
  EXPECT_DOUBLE_EQ(inc.Scores()[3], 0.0);
}

TEST(EdgeCasesTest, WeightedGraphsFlowThroughTheStack) {
  // One weighted path, exercised end to end.
  GraphBuilder builder(6);
  for (NodeId i = 0; i + 1 < 6; ++i) {
    builder.AddEdge(i, i + 1, 0.5 + i);
  }
  const Graph g = builder.Build();
  const SpectralPartitionResult spectral = SpectralPartition(g);
  EXPECT_GT(spectral.lambda2, 0.0);
  const MqiResult mqi = Mqi(g, {0, 1, 2});
  EXPECT_LE(mqi.stats.conductance, Conductance(g, {0, 1, 2}) + 1e-12);
  const Vector ppr = PersonalizedPageRank(g, SingleNodeSeed(g, 2)).scores;
  EXPECT_NEAR(Sum(ppr), 1.0, 1e-9);
}

}  // namespace
}  // namespace impreg
