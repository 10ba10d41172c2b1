#include "diffusion/pagerank.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "diffusion/seed.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/dense_matrix.h"

namespace impreg {
namespace {

// Dense ground truth: p = γ (I − (1−γ) A D^{-1})^{-1} s via the
// symmetric eigendecomposition route.
Vector DensePageRank(const Graph& g, double gamma, const Vector& seed) {
  const SymmetricEigen eigen =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  // (I − (1−γ)(I−ℒ))^{-1} = (γI + (1−γ)ℒ)^{-1} in hat space.
  const DenseMatrix inv = ApplySpectralFunction(eigen, [&](double lam) {
    return 1.0 / (gamma + (1.0 - gamma) * lam);
  });
  const Vector hat_seed = ToHatSpace(g, seed);
  Vector hat_out = inv.Apply(hat_seed);
  Scale(gamma, hat_out);
  return FromHatSpace(g, hat_out);
}

TEST(PageRankTest, RichardsonMatchesDenseSolve) {
  Rng rng(1);
  const Graph g = ErdosRenyi(40, 0.2, rng);
  const Vector seed = SingleNodeSeed(g, 5);
  PageRankOptions options;
  options.gamma = 0.2;
  options.tolerance = 1e-14;
  const PageRankResult result = PersonalizedPageRank(g, seed, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  const Vector exact = DensePageRank(g, 0.2, seed);
  EXPECT_LT(DistanceL1(result.scores, exact), 1e-9);
}

TEST(PageRankTest, ExactCgMatchesDenseSolve) {
  Rng rng(2);
  const Graph g = ErdosRenyi(50, 0.15, rng);
  const Vector seed = SeedSetDistribution(g, {0, 7, 13});
  PageRankOptions options;
  options.gamma = 0.1;
  options.tolerance = 1e-13;
  const PageRankResult result = PersonalizedPageRankExact(g, seed, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  const Vector exact = DensePageRank(g, 0.1, seed);
  EXPECT_LT(DistanceL1(result.scores, exact), 1e-8);
}

TEST(PageRankTest, MassIsPreserved) {
  Rng rng(3);
  const Graph g = ErdosRenyi(60, 0.1, rng);
  const Vector seed = SingleNodeSeed(g, 0);
  const PageRankResult result = PersonalizedPageRank(g, seed);
  EXPECT_NEAR(Sum(result.scores), 1.0, 1e-9);
  for (double v : result.scores) EXPECT_GE(v, 0.0);
}

TEST(PageRankTest, LinearInSeed) {
  Rng rng(4);
  const Graph g = ErdosRenyi(30, 0.2, rng);
  PageRankOptions options;
  options.tolerance = 1e-14;
  const Vector pa =
      PersonalizedPageRank(g, SingleNodeSeed(g, 3), options).scores;
  const Vector pb =
      PersonalizedPageRank(g, SingleNodeSeed(g, 9), options).scores;
  Vector mixed_seed(g.NumNodes(), 0.0);
  mixed_seed[3] = 0.25;
  mixed_seed[9] = 0.75;
  const Vector pm = PersonalizedPageRank(g, mixed_seed, options).scores;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_NEAR(pm[u], 0.25 * pa[u] + 0.75 * pb[u], 1e-10);
  }
}

TEST(PageRankTest, GammaOneLimitReturnsSeed) {
  // As γ → 1, R_γ → I (the diffusion never leaves the seed).
  const Graph g = PathGraph(6);
  PageRankOptions options;
  options.gamma = 0.999;
  const Vector seed = SingleNodeSeed(g, 2);
  const PageRankResult result = PersonalizedPageRank(g, seed, options);
  EXPECT_GT(result.scores[2], 0.998);
}

TEST(PageRankTest, GammaSmallApproachesStationary) {
  Rng rng(5);
  const Graph g = ErdosRenyi(40, 0.3, rng);
  PageRankOptions options;
  options.gamma = 1e-4;
  options.max_iterations = 200000;
  const Vector seed = SingleNodeSeed(g, 1);
  const PageRankResult result = PersonalizedPageRank(g, seed, options);
  // Stationary distribution ∝ degree.
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    EXPECT_NEAR(result.scores[u], g.Degree(u) / g.TotalVolume(), 5e-3);
  }
}

TEST(PageRankTest, GlobalPageRankRanksHubFirst) {
  const Graph g = StarGraph(20);
  const PageRankResult result = GlobalPageRank(g);
  for (NodeId u = 1; u < 20; ++u) {
    EXPECT_GT(result.scores[0], result.scores[u]);
  }
}

TEST(PageRankTest, SymmetricNodesGetEqualScores) {
  const Graph g = CycleGraph(9);
  const PageRankResult result = GlobalPageRank(g);
  for (NodeId u = 1; u < 9; ++u) {
    EXPECT_NEAR(result.scores[u], result.scores[0], 1e-10);
  }
}

TEST(PageRankTest, IsolatedSeedKeepsTeleportMass) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  Vector seed = {0.0, 0.0, 1.0};
  PageRankOptions options;
  options.gamma = 0.3;
  const PageRankResult exact = PersonalizedPageRankExact(g, seed, options);
  EXPECT_NEAR(exact.scores[2], 0.3, 1e-10);
}

TEST(PageRankTest, NegativeSeedDies) {
  const Graph g = PathGraph(3);
  EXPECT_DEATH(PersonalizedPageRank(g, {0.5, -0.5, 1.0}), "nonnegative");
}

TEST(PageRankTest, ReportsConvergedAndCappedStatus) {
  const Graph g = CycleGraph(12);
  const Vector seed = SingleNodeSeed(g, 0);
  const PageRankResult ok = PersonalizedPageRank(g, seed);
  EXPECT_EQ(ok.diagnostics.status, SolveStatus::kConverged);

  PageRankOptions capped;
  capped.max_iterations = 1;
  capped.tolerance = 1e-15;
  const PageRankResult stopped = PersonalizedPageRank(g, seed, capped);
  EXPECT_EQ(stopped.diagnostics.status, SolveStatus::kMaxIterations);
  // An early stop is still the (more) regularized answer.
  EXPECT_TRUE(stopped.diagnostics.usable());
  EXPECT_TRUE(AllFinite(stopped.scores));
}

TEST(PageRankTest, NonFiniteSeedIsContainedNotFatal) {
  // A NaN seed entry slips past any `v < 0` sign check (NaN compares
  // false); the solvers must reject it gracefully rather than diffuse
  // poison or abort.
  const Graph g = PathGraph(4);
  Vector seed = {1.0, 0.0, std::numeric_limits<double>::quiet_NaN(), 0.0};
  for (const PageRankResult& result :
       {PersonalizedPageRank(g, seed), PersonalizedPageRankExact(g, seed),
        PersonalizedPageRankChebyshev(g, seed)}) {
    EXPECT_EQ(result.diagnostics.status, SolveStatus::kNonFinite);
    EXPECT_TRUE(AllFinite(result.scores));
  }
}

}  // namespace
}  // namespace impreg
