#include "regularization/estimators.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"

namespace impreg {
namespace {

TEST(SubsampleTest, KeepAllIsIdentity) {
  Rng rng(1);
  const Graph g = CompleteGraph(10);
  const Graph sample = SubsampleEdges(g, 1.0, rng);
  EXPECT_EQ(sample.NumEdges(), g.NumEdges());
  EXPECT_EQ(sample.NumNodes(), g.NumNodes());
}

TEST(SubsampleTest, KeepNoneIsEmpty) {
  Rng rng(2);
  const Graph g = CompleteGraph(8);
  const Graph sample = SubsampleEdges(g, 0.0, rng);
  EXPECT_EQ(sample.NumEdges(), 0);
  EXPECT_EQ(sample.NumNodes(), 8);
}

TEST(SubsampleTest, EdgeCountConcentrates) {
  Rng rng(3);
  const Graph g = CompleteGraph(80);  // 3160 edges.
  const Graph sample = SubsampleEdges(g, 0.25, rng);
  EXPECT_NEAR(sample.NumEdges(), 790.0, 5.0 * std::sqrt(790.0 * 0.75));
}

TEST(SubsampleTest, SampleEdgesAreSubset) {
  Rng rng(4);
  const Graph g = ErdosRenyi(50, 0.2, rng);
  const Graph sample = SubsampleEdges(g, 0.5, rng);
  for (NodeId u = 0; u < sample.NumNodes(); ++u) {
    const auto heads = sample.Heads(u);
    const auto weights = sample.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      EXPECT_TRUE(g.HasEdge(u, heads[i]));
      EXPECT_DOUBLE_EQ(weights[i], g.EdgeWeight(u, heads[i]));
    }
  }
}

class EstimationTest : public testing::Test {
 protected:
  static constexpr NodeId kBlock = 120;

  Graph Population() {
    Rng rng(5);
    return PlantedPartition(2, kBlock, 0.3, 0.02, rng);
  }

  std::vector<int> Labels(const Graph& g) {
    std::vector<int> labels(g.NumNodes());
    for (NodeId u = 0; u < g.NumNodes(); ++u) labels[u] = u < kBlock;
    return labels;
  }
};

TEST_F(EstimationTest, DensePathConvergesToPerfect) {
  const Graph population = Population();
  const std::vector<int> labels = Labels(population);
  const auto path =
      HeatKernelEstimationPath(population, labels, {1.0, 8.0, 64.0});
  ASSERT_EQ(path.size(), 3u);
  // Accuracy improves with t on the clean graph and reaches ~1.
  EXPECT_LE(path[0].accuracy, path[2].accuracy + 1e-12);
  EXPECT_GT(path[2].accuracy, 0.95);
  // Rayleigh decreases with t (less regularization).
  EXPECT_GE(path[0].rayleigh, path[1].rayleigh);
  EXPECT_GE(path[1].rayleigh, path[2].rayleigh);
}

TEST_F(EstimationTest, ExactEstimateOnCleanGraphIsPerfect) {
  const Graph population = Population();
  const EstimationPoint exact =
      ExactEigenvectorEstimate(population, Labels(population));
  EXPECT_GT(exact.accuracy, 0.97);
  EXPECT_GT(exact.rayleigh, 0.0);
}

TEST_F(EstimationTest, RegularizationBeatsExactOnSparseSample) {
  // The Perry–Mahoney phenomenon: at aggressive subsampling, a finite
  // diffusion time outperforms the exact eigenvector of the sample.
  const Graph population = Population();
  const std::vector<int> labels = Labels(population);
  Rng rng(99);
  const Graph sample = SubsampleEdges(population, 0.08, rng);
  EstimationOptions options;
  options.trials = 5;
  const auto path = HeatKernelEstimationPath(
      sample, labels, {4.0, 8.0, 16.0, 32.0}, options);
  const EstimationPoint exact =
      ExactEigenvectorEstimate(sample, labels, options);
  double best = 0.0;
  for (const auto& p : path) best = std::max(best, p.accuracy);
  EXPECT_GT(best, exact.accuracy + 0.02);
}

TEST_F(EstimationTest, IgnoresUnlabeledNodes) {
  const Graph population = Population();
  std::vector<int> labels = Labels(population);
  // Unlabel half the nodes; accuracy must still be computable and high.
  for (NodeId u = 0; u < population.NumNodes(); u += 2) labels[u] = -1;
  const EstimationPoint exact = ExactEigenvectorEstimate(population, labels);
  EXPECT_GT(exact.accuracy, 0.95);
}

TEST_F(EstimationTest, AccuracyIsAtLeastChance) {
  Rng rng(7);
  const Graph g = ErdosRenyi(60, 0.2, rng);  // No planted structure.
  std::vector<int> labels(g.NumNodes());
  for (NodeId u = 0; u < g.NumNodes(); ++u) labels[u] = u % 2;
  const auto path = HeatKernelEstimationPath(g, labels, {2.0});
  EXPECT_GE(path[0].accuracy, 0.5);
  EXPECT_LE(path[0].accuracy, 0.7);  // And not mysteriously high.
}

}  // namespace
}  // namespace impreg
