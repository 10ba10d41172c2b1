#include "partition/hkrelax.h"

#include <gtest/gtest.h>

#include "diffusion/heat_kernel.h"
#include "diffusion/seed.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "graph/social.h"

namespace impreg {
namespace {

TEST(HkRelaxTest, ApproximatesExactHeatKernel) {
  Rng rng(1);
  const Graph g = ErdosRenyi(50, 0.15, rng);
  HkRelaxOptions options;
  options.t = 5.0;
  options.delta = 1e-9;  // Essentially no truncation.
  options.tail_tolerance = 1e-10;
  const HkRelaxResult result = HeatKernelRelax(g, 0, options);
  const Vector exact = HeatKernelWalkTaylor(g, SingleNodeSeed(g, 0), 5.0);
  EXPECT_LT(DistanceL1(result.rho, exact), 1e-6);
}

TEST(HkRelaxTest, DroppedMassAccountsForDeficit) {
  Rng rng(2);
  const Graph g = ErdosRenyi(100, 0.06, rng);
  HkRelaxOptions options;
  options.t = 8.0;
  options.delta = 1e-4;
  const HkRelaxResult result = HeatKernelRelax(g, 0, options);
  // rho-mass + dropped mass ≈ 1.
  EXPECT_NEAR(Sum(result.rho) + result.dropped_mass, 1.0, 1e-6);
  EXPECT_GT(result.dropped_mass, 0.0);
}

TEST(HkRelaxTest, TruncationSparsifiesOutput) {
  Rng rng(3);
  const Graph g = ErdosRenyi(400, 0.02, rng);
  HkRelaxOptions coarse;
  coarse.t = 6.0;
  coarse.delta = 1e-3;
  HkRelaxOptions fine;
  fine.t = 6.0;
  fine.delta = 1e-8;
  auto support = [](const Vector& v) {
    std::int64_t count = 0;
    for (double x : v) {
      if (x > 0.0) ++count;
    }
    return count;
  };
  const HkRelaxResult sparse = HeatKernelRelax(g, 0, coarse);
  const HkRelaxResult dense = HeatKernelRelax(g, 0, fine);
  EXPECT_LT(support(sparse.rho), support(dense.rho));
}

TEST(HkRelaxTest, FindsCliqueInCaveman) {
  const Graph g = CavemanGraph(4, 8);
  HkRelaxOptions options;
  options.t = 8.0;
  const HkRelaxResult result = HeatKernelRelax(g, 0, options);
  ASSERT_FALSE(result.set.empty());
  EXPECT_LT(result.stats.conductance, 0.1);
}

TEST(HkRelaxTest, FindsPlantedCommunity) {
  Rng rng(4);
  SocialGraphParams params;
  params.core_nodes = 3000;
  params.num_communities = 3;
  params.min_community_size = 50;
  params.max_community_size = 80;
  params.num_whiskers = 10;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  const auto& community = sg.communities[0];
  HkRelaxOptions options;
  options.t = 15.0;
  options.delta = 1e-6;
  const HkRelaxResult result = HeatKernelRelax(sg.graph, community[0],
                                               options);
  ASSERT_FALSE(result.set.empty());
  EXPECT_LT(result.stats.conductance, 0.35);
}

TEST(HkRelaxTest, WorkIsLocalOnBigGraph) {
  Rng rng(5);
  SocialGraphParams params;
  params.core_nodes = 10000;
  params.num_communities = 2;
  params.num_whiskers = 10;
  const SocialGraph sg = MakeWhiskeredSocialGraph(params, rng);
  HkRelaxOptions options;
  options.t = 5.0;
  options.delta = 1e-3;
  const HkRelaxResult result =
      HeatKernelRelax(sg.graph, sg.communities[0][0], options);
  std::int64_t support = 0;
  for (double v : result.rho) {
    if (v > 0.0) ++support;
  }
  EXPECT_LT(support, sg.graph.NumNodes() / 10);
}

TEST(HkRelaxTest, TermsScaleWithT) {
  const Graph g = CycleGraph(40);
  HkRelaxOptions small;
  small.t = 1.0;
  HkRelaxOptions large;
  large.t = 20.0;
  const HkRelaxResult a = HeatKernelRelax(g, 0, small);
  const HkRelaxResult b = HeatKernelRelax(g, 0, large);
  EXPECT_LT(a.terms, b.terms);
  EXPECT_GT(a.terms, 0);
}

TEST(HkRelaxTest, RefusesTWhoseExponentialOverflows) {
  // e^t is inf from t ≈ 709.78 on: the Poisson tail then gives no
  // stopping rule, so the run must be refused, never reported converged.
  const Graph g = CycleGraph(40);
  for (double t : {710.0, 745.0, 1000.0, 1e300}) {
    HkRelaxOptions options;
    options.t = t;
    const HkRelaxResult r = HeatKernelRelax(g, 0, options);
    EXPECT_EQ(r.diagnostics.status, SolveStatus::kInvalidInput) << t;
    EXPECT_FALSE(r.diagnostics.usable()) << t;
    EXPECT_EQ(r.terms, 0) << t;
    EXPECT_TRUE(r.set.empty()) << t;
    for (double v : r.rho) EXPECT_EQ(v, 0.0) << t;
  }
  HkRelaxOptions large_finite;
  large_finite.t = 700.0;
  EXPECT_EQ(HeatKernelRelax(g, 0, large_finite).diagnostics.status,
            SolveStatus::kConverged);
}

}  // namespace
}  // namespace impreg
