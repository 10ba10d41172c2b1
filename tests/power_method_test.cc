#include "linalg/power_method.h"

#include <cmath>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/dense_matrix.h"
#include "linalg/graph_operators.h"
#include "linalg/lanczos.h"
#include "util/rng.h"

namespace impreg {
namespace {

Vector RandomVector(int n, std::uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.NextGaussian();
  return v;
}

TEST(PowerMethodTest, FindsDominantEigenpairOfAdjacency) {
  const Graph g = CompleteGraph(10);  // A has dominant eigenvalue n−1.
  const AdjacencyOperator adj(g);
  const PowerMethodResult result =
      PowerMethod(adj, RandomVector(10, 1), {});
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_NEAR(result.eigenvalue, 9.0, 1e-8);
}

TEST(PowerMethodTest, SecondEigenpairMatchesLanczos) {
  Rng rng(2);
  const Graph g = ErdosRenyi(60, 0.1, rng);
  PowerMethodOptions options;
  options.max_iterations = 5000;
  options.tolerance = 1e-12;
  const PowerMethodResult pm =
      SecondEigenpairPowerMethod(g, RandomVector(60, 3), options);

  const NormalizedLaplacianOperator lap(g);
  LanczosOptions lanczos;
  lanczos.deflate.push_back(lap.TrivialEigenvector());
  const LanczosResult lz = LanczosSmallest(lap, 1, lanczos);

  EXPECT_NEAR(pm.eigenvalue, lz.eigenvalues[0], 1e-6);
  EXPECT_LT(DistanceUpToSign(pm.eigenvector, lz.eigenvectors[0]), 1e-4);
}

TEST(PowerMethodTest, IterationCallbackFires) {
  const Graph g = CycleGraph(16);
  int calls = 0;
  PowerMethodOptions options;
  options.max_iterations = 25;
  options.tolerance = 0.0;  // Never converge early.
  options.on_iterate = [&](int iter, const Vector& x) {
    ++calls;
    EXPECT_EQ(iter, calls);
    EXPECT_NEAR(Norm2(x), 1.0, 1e-12);
  };
  SecondEigenpairPowerMethod(g, RandomVector(16, 5), options);
  EXPECT_EQ(calls, 25);
}

TEST(PowerMethodTest, EarlyStoppingIterateIsSmootherThanExact) {
  // The paper's §3.1 story in miniature: on a noisy graph, the early
  // iterate has a *worse* Rayleigh quotient than the exact v₂ (it is an
  // approximation) but stays closer to the seed's span — i.e. it is a
  // biased, regularized version of the answer.
  Rng rng(7);
  const Graph g = ErdosRenyi(80, 0.08, rng);
  const Vector start = RandomVector(80, 11);

  PowerMethodOptions exact_opts;
  exact_opts.max_iterations = 20000;
  exact_opts.tolerance = 1e-13;
  const PowerMethodResult exact =
      SecondEigenpairPowerMethod(g, start, exact_opts);

  PowerMethodOptions early_opts;
  early_opts.max_iterations = 3;
  early_opts.tolerance = 0.0;
  const PowerMethodResult early =
      SecondEigenpairPowerMethod(g, start, early_opts);

  EXPECT_GE(early.eigenvalue, exact.eigenvalue - 1e-9);
  // The early iterate remembers the start vector more.
  Vector unit_start = start;
  const NormalizedLaplacianOperator lap(g);
  ProjectOut(lap.TrivialEigenvector(), unit_start);
  Normalize(unit_start);
  EXPECT_GT(std::abs(Dot(early.eigenvector, unit_start)),
            std::abs(Dot(exact.eigenvector, unit_start)));
}

TEST(PowerMethodTest, DeflationKeepsIterateOrthogonal) {
  const Graph g = CavemanGraph(3, 6);
  const NormalizedLaplacianOperator lap(g);
  PowerMethodOptions options;
  const PowerMethodResult result =
      SecondEigenpairPowerMethod(g, RandomVector(g.NumNodes(), 13), options);
  EXPECT_NEAR(Dot(result.eigenvector, lap.TrivialEigenvector()), 0.0, 1e-9);
}

TEST(PowerMethodTest, ConvergesToNegativeDominantEigenvalue) {
  // −A on K₆ has spectrum {−5, 1×5}: the dominant eigenvalue is
  // negative, so the iteration flips sign every step; the sign-aligned
  // difference test must still converge.
  const Graph g = CompleteGraph(6);
  const AdjacencyOperator adj(g);
  const ShiftedOperator neg(adj, -1.0, 0.0);
  PowerMethodOptions options;
  options.max_iterations = 10000;
  const PowerMethodResult result =
      PowerMethod(neg, RandomVector(6, 17), options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_NEAR(result.eigenvalue, -5.0, 1e-6);
}

TEST(PowerMethodTest, ExactEigenvectorStartConvergesImmediately) {
  const Graph g = CompleteGraph(6);
  const AdjacencyOperator adj(g);
  const PowerMethodResult result =
      PowerMethod(adj, Vector(6, 1.0), {});
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_LE(result.iterations, 2);
  EXPECT_NEAR(result.eigenvalue, 5.0, 1e-12);
}

}  // namespace
}  // namespace impreg
