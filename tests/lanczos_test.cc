#include "linalg/lanczos.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/random_graphs.h"
#include "linalg/dense_matrix.h"
#include "linalg/graph_operators.h"

namespace impreg {
namespace {

TEST(LanczosTest, SmallestEigenvalueOfNormalizedLaplacianIsZero) {
  Rng rng(1);
  const Graph g = ErdosRenyi(80, 0.1, rng);
  const NormalizedLaplacianOperator lap(g);
  const LanczosResult result = LanczosSmallest(lap, 1);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_NEAR(result.eigenvalues[0], 0.0, 1e-9);
}

TEST(LanczosTest, MatchesDenseEigenvaluesOnRandomGraph) {
  Rng rng(2);
  const Graph g = ErdosRenyi(50, 0.15, rng);
  const NormalizedLaplacianOperator lap(g);
  const SymmetricEigen dense =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  const LanczosResult result = LanczosSmallest(lap, 4);
  ASSERT_GE(result.eigenvalues.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], dense.eigenvalues[i], 1e-8);
  }
}

TEST(LanczosTest, LargestMatchesDense) {
  Rng rng(3);
  const Graph g = ErdosRenyi(40, 0.2, rng);
  const NormalizedLaplacianOperator lap(g);
  const SymmetricEigen dense =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  const LanczosResult result = LanczosLargest(lap, 2);
  EXPECT_NEAR(result.eigenvalues[0], dense.eigenvalues.back(), 1e-8);
  EXPECT_NEAR(result.eigenvalues[1],
              dense.eigenvalues[dense.eigenvalues.size() - 2], 1e-8);
}

TEST(LanczosTest, DeflationTargetsSecondEigenpair) {
  const Graph g = CavemanGraph(2, 8);  // Clear spectral gap.
  const NormalizedLaplacianOperator lap(g);
  LanczosOptions options;
  options.deflate.push_back(lap.TrivialEigenvector());
  const LanczosResult result = LanczosSmallest(lap, 1, options);
  const SymmetricEigen dense =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  EXPECT_NEAR(result.eigenvalues[0], dense.eigenvalues[1], 1e-9);
  // The Ritz vector is orthogonal to the deflated direction.
  EXPECT_NEAR(Dot(result.eigenvectors[0], lap.TrivialEigenvector()), 0.0,
              1e-9);
}

TEST(LanczosTest, EigenvectorSatisfiesDefinition) {
  Rng rng(4);
  const Graph g = ErdosRenyi(60, 0.12, rng);
  const NormalizedLaplacianOperator lap(g);
  const LanczosResult result = LanczosSmallest(lap, 2);
  for (int k = 0; k < 2; ++k) {
    Vector lx;
    lap.Apply(result.eigenvectors[k], lx);
    Vector expected = result.eigenvectors[k];
    Scale(result.eigenvalues[k], expected);
    EXPECT_LT(DistanceL2(lx, expected), 1e-7);
  }
}

TEST(LanczosTest, PathGraphLambda2Analytic) {
  // ℒ eigenvalues of the n-path: 1 − cos(kπ/(n−1)) scaled... use the
  // combinatorial Laplacian instead: 2 − 2cos(kπ/n) for the free chain.
  const int n = 20;
  const Graph g = PathGraph(n);
  const CombinatorialLaplacianOperator lap(g);
  LanczosOptions options;
  options.deflate.emplace_back(n, 1.0);  // Constant null vector.
  const LanczosResult result = LanczosSmallest(lap, 1, options);
  const double expected = 2.0 - 2.0 * std::cos(M_PI / n);
  EXPECT_NEAR(result.eigenvalues[0], expected, 1e-9);
}

TEST(LanczosTest, InvariantSubspaceTerminatesEarly) {
  // Complete graph: ℒ has only two distinct eigenvalues, so Lanczos
  // finds an invariant subspace after ~2 steps.
  const Graph g = CompleteGraph(30);
  const NormalizedLaplacianOperator lap(g);
  const LanczosResult result = LanczosSmallest(lap, 1);
  EXPECT_LE(result.iterations, 5);
  EXPECT_NEAR(result.eigenvalues[0], 0.0, 1e-10);
}


TEST(LanczosTest, ResolvesDegenerateEigenvalues) {
  // Ring of 4 cliques: the quotient C4 Laplacian has a doubly
  // degenerate eigenvalue, so the 4 smallest eigenvalues of ℒ include a
  // multiplicity-2 pair. Single-vector Krylov cannot see both copies;
  // the deflation-restart path must.
  const Graph g = CavemanGraph(4, 10);
  const NormalizedLaplacianOperator lap(g);
  const LanczosResult result = LanczosSmallest(lap, 4);
  const SymmetricEigen dense =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(result.eigenvalues[i], dense.eigenvalues[i], 1e-8);
  }
  // The middle pair is (near-)degenerate and BOTH copies are found.
  EXPECT_NEAR(result.eigenvalues[1], result.eigenvalues[2], 1e-6);
  // Ritz vectors mutually orthogonal.
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      EXPECT_NEAR(Dot(result.eigenvectors[a], result.eigenvectors[b]), 0.0,
                  1e-7);
    }
  }
}

TEST(KrylovExpTest, MatchesDenseExponentialAction) {
  Rng rng(5);
  const Graph g = ErdosRenyi(40, 0.2, rng);
  const NormalizedLaplacianOperator lap(g);
  const SymmetricEigen dense =
      SymmetricEigendecomposition(DenseNormalizedLaplacian(g));
  for (double t : {0.1, 1.0, 5.0, 20.0}) {
    Vector v(g.NumNodes());
    for (double& x : v) x = rng.NextGaussian();
    const Vector krylov = KrylovExpMultiply(lap, -t, v);
    const DenseMatrix expm = ApplySpectralFunction(
        dense, [&](double lambda) { return std::exp(-t * lambda); });
    const Vector exact = expm.Apply(v);
    EXPECT_LT(DistanceL2(krylov, exact), 1e-8 * (1.0 + Norm2(exact)))
        << "t = " << t;
  }
}

TEST(KrylovExpTest, ZeroScaleIsIdentity) {
  const Graph g = CycleGraph(10);
  const NormalizedLaplacianOperator lap(g);
  Vector v(10, 0.0);
  v[3] = 2.0;
  const Vector out = KrylovExpMultiply(lap, 0.0, v);
  EXPECT_LT(DistanceL2(out, v), 1e-12);
}

TEST(KrylovExpTest, ZeroVectorStaysZero) {
  const Graph g = CycleGraph(8);
  const NormalizedLaplacianOperator lap(g);
  const Vector out = KrylovExpMultiply(lap, -1.0, Vector(8, 0.0));
  EXPECT_DOUBLE_EQ(Norm2(out), 0.0);
}

// An operator whose Apply returns poison after a configurable number of
// healthy applications — exercises the mid-iteration containment paths.
class PoisonAfterOperator : public LinearOperator {
 public:
  PoisonAfterOperator(const LinearOperator& inner, int healthy_applies)
      : inner_(inner), remaining_(healthy_applies) {}
  int Dimension() const override { return inner_.Dimension(); }
  void Apply(const Vector& x, Vector& y) const override {
    inner_.Apply(x, y);
    if (remaining_ > 0) {
      --remaining_;
      return;
    }
    y[0] = std::numeric_limits<double>::quiet_NaN();
  }

 private:
  const LinearOperator& inner_;
  mutable int remaining_;
};

TEST(LanczosTest, ReportsConvergedAndCappedStatus) {
  Rng rng(11);
  const Graph g = ErdosRenyi(60, 0.12, rng);
  const NormalizedLaplacianOperator lap(g);
  const LanczosResult ok = LanczosSmallest(lap, 2);
  EXPECT_EQ(ok.diagnostics.status, SolveStatus::kConverged);

  LanczosOptions capped;
  capped.max_iterations = 2;
  capped.tolerance = 1e-14;
  const LanczosResult stopped = LanczosSmallest(lap, 2, capped);
  EXPECT_EQ(stopped.diagnostics.status, SolveStatus::kMaxIterations);
  EXPECT_TRUE(stopped.diagnostics.usable());
}

TEST(LanczosTest, PoisonedOperatorIsContained) {
  Rng rng(12);
  const Graph g = ErdosRenyi(40, 0.15, rng);
  const NormalizedLaplacianOperator lap(g);
  const PoisonAfterOperator poison(lap, 5);
  const LanczosResult result = LanczosSmallest(poison, 2);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kNonFinite);
  for (const Vector& v : result.eigenvectors) {
    EXPECT_TRUE(AllFinite(v));
  }
  EXPECT_TRUE(AllFinite(result.eigenvalues));
}

TEST(KrylovExpTest, DiagnosticsReportContainment) {
  const Graph g = CycleGraph(12);
  const NormalizedLaplacianOperator lap(g);
  Vector v(12, 0.0);
  v[4] = 1.0;

  SolverDiagnostics healthy;
  const Vector out = KrylovExpMultiply(lap, -1.0, v, 60, &healthy);
  EXPECT_EQ(healthy.status, SolveStatus::kConverged);
  EXPECT_TRUE(AllFinite(out));

  const PoisonAfterOperator poison(lap, 2);
  SolverDiagnostics contained;
  const Vector degraded = KrylovExpMultiply(poison, -1.0, v, 60, &contained);
  EXPECT_NE(contained.status, SolveStatus::kConverged);
  EXPECT_TRUE(AllFinite(degraded));
}

}  // namespace
}  // namespace impreg
