#include "streaming/dynamic_graph.h"
#include "streaming/incremental_ppr.h"
#include "streaming/montecarlo.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "core/solve_status.h"
#include "core/work_budget.h"
#include "diffusion/pagerank.h"
#include "diffusion/seed.h"
#include "graph/generators.h"
#include "graph/random_graphs.h"

namespace impreg {
namespace {

std::uint64_t Bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Bitwise equality of two serialized graphs: adjacency heads and
/// weight bits in order, degree bits, edge count, volume bits.
void ExpectPartsBitIdentical(const DynamicGraph::Parts& got,
                             const DynamicGraph::Parts& want) {
  ASSERT_EQ(got.adjacency.size(), want.adjacency.size());
  for (std::size_t u = 0; u < want.adjacency.size(); ++u) {
    SCOPED_TRACE("node " + std::to_string(u));
    ASSERT_EQ(got.adjacency[u].size(), want.adjacency[u].size());
    for (std::size_t i = 0; i < want.adjacency[u].size(); ++i) {
      EXPECT_EQ(got.adjacency[u][i].head, want.adjacency[u][i].head);
      EXPECT_EQ(Bits(got.adjacency[u][i].weight),
                Bits(want.adjacency[u][i].weight));
    }
    EXPECT_EQ(Bits(got.degrees[u]), Bits(want.degrees[u]));
  }
  EXPECT_EQ(got.num_edges, want.num_edges);
  EXPECT_EQ(Bits(got.total_volume), Bits(want.total_volume));
}

TEST(DynamicGraphTest, AddEdgeAccumulatesAndCounts) {
  DynamicGraph g(4);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 0, 1.0);
  g.AddEdge(2, 3);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_DOUBLE_EQ(g.Degree(0), 3.0);
  EXPECT_DOUBLE_EQ(g.Degree(1), 3.0);
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 8.0);
}

TEST(DynamicGraphTest, SelfLoopOnce) {
  DynamicGraph g(2);
  g.AddEdge(0, 0, 5.0);
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_DOUBLE_EQ(g.Degree(0), 5.0);
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 5.0);
  EXPECT_EQ(g.Neighbors(0).size(), 1u);
}

TEST(DynamicGraphTest, RoundTripWithImmutableGraph) {
  Rng rng(1);
  const Graph original = ErdosRenyi(40, 0.2, rng);
  const DynamicGraph dynamic = DynamicGraph::FromGraph(original);
  const Graph back = dynamic.ToGraph();
  ASSERT_EQ(back.NumEdges(), original.NumEdges());
  for (NodeId u = 0; u < original.NumNodes(); ++u) {
    EXPECT_DOUBLE_EQ(back.Degree(u), original.Degree(u));
  }
}

TEST(DynamicGraphTest, RemoveEdgeDecrementsThenErases) {
  DynamicGraph g(3);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2);
  g.AddEdge(2, 2, 3.0);  // Self-loop.

  // Partial removal decrements both mirrored arcs, keeps the edge.
  g.RemoveEdge(0, 1, 0.5);
  EXPECT_EQ(g.NumEdges(), 3);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(1, 0), 1.5);
  EXPECT_DOUBLE_EQ(g.Degree(0), 1.5);
  EXPECT_DOUBLE_EQ(g.Degree(1), 2.5);

  // Removing exactly the stored weight erases the edge.
  g.RemoveEdge(0, 1, 1.5);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(g.Degree(0), 0.0);
  EXPECT_TRUE(g.Neighbors(0).empty());

  // Self-loops decrement once (single arc) and erase like any edge.
  g.RemoveEdge(2, 2, 1.0);
  EXPECT_DOUBLE_EQ(g.Degree(2), 3.0);  // 1.0 cross + 2.0 loop.
  EXPECT_DOUBLE_EQ(g.TotalVolume(), 4.0);
  g.RemoveEdge(2, 2);  // Default weight 0.0 = remove entirely.
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_DOUBLE_EQ(g.Degree(2), 1.0);

  // The abort contract: missing edges, over-removal, and bad weights
  // are programming errors, not soft failures.
  EXPECT_DEATH(g.RemoveEdge(0, 1), "no such edge");
  EXPECT_DEATH(g.RemoveEdge(1, 2, 5.0), "exceeds the stored weight");
  EXPECT_DEATH(g.RemoveEdge(1, 2, -1.0), "non-negative");
}

TEST(DynamicGraphTest, FullRemovalErasesInPlacePreservingSurvivorOrder) {
  DynamicGraph g(5);
  g.AddEdge(0, 3);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(0, 4, 0.5);
  g.AddEdge(0, 2);
  g.RemoveEdge(0, 1);
  // Survivors keep their insertion positions — no swap-with-last.
  ASSERT_EQ(g.Neighbors(0).size(), 3u);
  EXPECT_EQ(g.Neighbors(0)[0].head, 3);
  EXPECT_EQ(g.Neighbors(0)[1].head, 4);
  EXPECT_EQ(g.Neighbors(0)[2].head, 2);
  EXPECT_TRUE(g.Neighbors(1).empty());
  // Degree re-folds over the surviving row.
  EXPECT_DOUBLE_EQ(g.Degree(0), 2.5);
}

TEST(DynamicGraphTest, AddThenRemoveRestoresPriorBitsExactly) {
  Rng rng(20);
  DynamicGraph g = DynamicGraph::FromGraph(ErdosRenyi(30, 0.15, rng));
  const DynamicGraph::Parts before = g.ExportParts();

  // A non-edge to exercise the insert-then-full-remove round-trip.
  NodeId a = -1, b = -1;
  for (NodeId u = 0; u < g.NumNodes() && a < 0; ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      if (g.EdgeWeight(u, v) == 0.0) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_GE(a, 0);

  g.AddEdge(a, b, 0.7);
  g.AddEdge(a, b, 0.05);   // Accumulate — full removal erases regardless.
  g.AddEdge(a, a, 2.5);    // Self-loop round-trips too.
  g.RemoveEdge(a, a);
  g.RemoveEdge(a, b);
  ExpectPartsBitIdentical(g.ExportParts(), before);
}

TEST(DynamicGraphTest, DeleteThenReAddIsBitIdenticalToNeverTouched) {
  Rng rng(21);
  DynamicGraph g = DynamicGraph::FromGraph(ErdosRenyi(30, 0.15, rng));
  NodeId a = -1, b = -1;
  for (NodeId u = 0; u < g.NumNodes() && a < 0; ++u) {
    for (NodeId v = u + 1; v < g.NumNodes(); ++v) {
      if (g.EdgeWeight(u, v) == 0.0) {
        a = u;
        b = v;
        break;
      }
    }
  }
  ASSERT_GE(a, 0);
  g.AddEdge(a, b, 1.25);
  const DynamicGraph::Parts untouched = g.ExportParts();

  // Full delete + re-add lands the entry back in the same (terminal)
  // row positions, so every bit returns.
  g.RemoveEdge(a, b);
  g.AddEdge(a, b, 1.25);
  ExpectPartsBitIdentical(g.ExportParts(), untouched);

  // Partial decrement + matching re-accumulate also round-trips here
  // (both mirrored arcs take the identical subtraction and addition).
  g.RemoveEdge(a, b, 0.25);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(b, a), 1.0);
  g.AddEdge(a, b, 0.25);
  ExpectPartsBitIdentical(g.ExportParts(), untouched);
}

TEST(DynamicGraphTest, FromPartsValidatesPairwiseSymmetry) {
  DynamicGraph g(3);
  g.AddEdge(0, 1, 2.0);
  g.AddEdge(1, 2);
  const DynamicGraph::Parts parts = g.ExportParts();

  // The honest round-trip is bit-exact.
  ExpectPartsBitIdentical(
      DynamicGraph::FromParts(parts.adjacency, parts.degrees,
                              parts.num_edges, parts.total_volume)
          .ExportParts(),
      parts);

  // Arc (0→1) without its mirror (1→0).
  DynamicGraph::Parts missing = parts;
  ASSERT_EQ(missing.adjacency[1][0].head, 0);
  missing.adjacency[1].erase(missing.adjacency[1].begin());
  EXPECT_DEATH(DynamicGraph::FromParts(missing.adjacency, missing.degrees,
                                       missing.num_edges,
                                       missing.total_volume),
               "mirror");

  // Mirrored arcs with different weight bits.
  DynamicGraph::Parts skewed = parts;
  ASSERT_EQ(skewed.adjacency[0][0].head, 1);
  skewed.adjacency[0][0].weight = 2.5;
  EXPECT_DEATH(DynamicGraph::FromParts(skewed.adjacency, skewed.degrees,
                                       skewed.num_edges,
                                       skewed.total_volume),
               "different weights");

  // A row listing the same head twice.
  DynamicGraph::Parts dup = parts;
  dup.adjacency[0].push_back({1, 2.0});
  EXPECT_DEATH(DynamicGraph::FromParts(dup.adjacency, dup.degrees,
                                       dup.num_edges, dup.total_volume),
               "duplicate");

  // A declared edge count that disagrees with the arcs present.
  EXPECT_DEATH(DynamicGraph::FromParts(parts.adjacency, parts.degrees,
                                       parts.num_edges + 1,
                                       parts.total_volume),
               "declared edge count");
}

class IncrementalPprTest : public testing::Test {
 protected:
  // Reference: exact PPR on the frozen graph.
  Vector ExactPpr(const DynamicGraph& g, const Vector& seed, double gamma) {
    const Graph frozen = g.ToGraph();
    PageRankOptions options;
    options.gamma = gamma;
    options.tolerance = 1e-14;
    options.max_iterations = 100000;
    return PersonalizedPageRank(frozen, seed, options).scores;
  }
};

TEST_F(IncrementalPprTest, StaticCaseMatchesExact) {
  Rng rng(2);
  const Graph g = ErdosRenyi(60, 0.1, rng);
  const DynamicGraph dynamic = DynamicGraph::FromGraph(g);
  Vector seed(60, 0.0);
  seed[5] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-9;
  const IncrementalPersonalizedPageRank inc(dynamic, seed, options);
  const Vector exact = ExactPpr(dynamic, seed, options.gamma);
  EXPECT_LT(DistanceL1(inc.Scores(), exact),
            options.epsilon * dynamic.TotalVolume() + 1e-9);
}

TEST_F(IncrementalPprTest, TracksInsertionsToTheEnd) {
  // Stream the edges of a graph one by one; the final estimate must
  // match the exact PPR of the final graph within the residual bound.
  Rng rng(3);
  const Graph final_graph = ErdosRenyi(50, 0.15, rng);
  DynamicGraph empty(50);
  Vector seed(50, 0.0);
  seed[0] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-8;
  IncrementalPersonalizedPageRank inc(empty, seed, options);
  for (NodeId u = 0; u < final_graph.NumNodes(); ++u) {
    const auto heads = final_graph.Heads(u);
    const auto weights = final_graph.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] >= u) inc.AddEdge(u, heads[i], weights[i]);
    }
  }
  const Vector exact = ExactPpr(inc.graph(), seed, options.gamma);
  EXPECT_LT(DistanceL1(inc.Scores(), exact),
            options.epsilon * inc.graph().TotalVolume() + 1e-9);
  EXPECT_EQ(inc.graph().NumEdges(), final_graph.NumEdges());
}

TEST_F(IncrementalPprTest, MatchesFreshRebuildAfterEveryInsertion) {
  // Property check at every step of a short stream.
  DynamicGraph g(8);
  Vector seed(8, 0.0);
  seed[0] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-10;
  IncrementalPersonalizedPageRank inc(g, seed, options);
  const std::vector<std::pair<NodeId, NodeId>> stream = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {4, 5},
      {5, 6}, {6, 7}, {7, 4}, {3, 4}, {0, 0}, {1, 2}};
  for (const auto& [u, v] : stream) {
    inc.AddEdge(u, v);
    const Vector exact = ExactPpr(inc.graph(), seed, options.gamma);
    ASSERT_LT(DistanceL1(inc.Scores(), exact), 1e-7)
        << "after inserting {" << u << "," << v << "}";
  }
}

TEST_F(IncrementalPprTest, UpdatesAreCheapRelativeToRebuild) {
  // The point of the data structure: per-insertion pushes are far
  // fewer than a from-scratch recomputation.
  Rng rng(4);
  const Graph base = ErdosRenyi(500, 0.02, rng);
  DynamicGraph dynamic = DynamicGraph::FromGraph(base);
  Vector seed(500, 0.0);
  seed[0] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-7;
  IncrementalPersonalizedPageRank inc(dynamic, seed, options);
  const std::int64_t initial_pushes = inc.TotalPushes();
  std::int64_t update_pushes = 0;
  Rng pick(5);
  const int kInsertions = 50;
  for (int i = 0; i < kInsertions; ++i) {
    const NodeId u = static_cast<NodeId>(pick.NextBounded(500));
    const NodeId v = static_cast<NodeId>(pick.NextBounded(500));
    if (u == v) continue;
    inc.AddEdge(u, v);
    update_pushes += inc.LastEdgePushes();
  }
  EXPECT_LT(update_pushes / kInsertions, initial_pushes / 4);
}

TEST_F(IncrementalPprTest, AddSelfLoopMatchesFromScratchPush) {
  // A self-loop (u == v) exercises the repair path's single-column
  // scatter where the column endpoint is its own neighbor.
  Rng rng(10);
  const Graph base = ErdosRenyi(40, 0.15, rng);
  const DynamicGraph dynamic = DynamicGraph::FromGraph(base);
  Vector seed(40, 0.0);
  seed[7] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-8;
  IncrementalPersonalizedPageRank inc(dynamic, seed, options);
  inc.AddEdge(3, 3, 2.0);
  const double bound =
      2.0 * options.epsilon * inc.graph().TotalVolume() + 1e-9;
  const IncrementalPersonalizedPageRank fresh(inc.graph(), seed, options);
  EXPECT_LT(DistanceL1(inc.Scores(), fresh.Scores()), bound);
  EXPECT_LT(DistanceL1(inc.Scores(), ExactPpr(inc.graph(), seed,
                                              options.gamma)),
            options.epsilon * inc.graph().TotalVolume() + 1e-9);
}

TEST_F(IncrementalPprTest, AddEdgeIncidentToSeedMatchesFromScratchPush) {
  // Inserting at the seed perturbs the largest residual mass — the
  // stress case for the invariant-restoring repair.
  Rng rng(11);
  const Graph base = ErdosRenyi(40, 0.15, rng);
  const DynamicGraph dynamic = DynamicGraph::FromGraph(base);
  Vector seed(40, 0.0);
  seed[7] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-8;
  IncrementalPersonalizedPageRank inc(dynamic, seed, options);
  inc.AddEdge(7, 19, 3.0);
  const double bound =
      2.0 * options.epsilon * inc.graph().TotalVolume() + 1e-9;
  const IncrementalPersonalizedPageRank fresh(inc.graph(), seed, options);
  EXPECT_LT(DistanceL1(inc.Scores(), fresh.Scores()), bound);
  EXPECT_LT(DistanceL1(inc.Scores(), ExactPpr(inc.graph(), seed,
                                              options.gamma)),
            options.epsilon * inc.graph().TotalVolume() + 1e-9);
}

TEST_F(IncrementalPprTest, RemoveEdgeMatchesFromScratchPush) {
  // Deleting at the seed is the removal stress case — the mirror of
  // AddEdgeIncidentToSeedMatchesFromScratchPush: the negative column
  // scatter perturbs the largest residual mass.
  Rng rng(14);
  const Graph base = ErdosRenyi(40, 0.15, rng);
  const DynamicGraph dynamic = DynamicGraph::FromGraph(base);
  Vector seed(40, 0.0);
  seed[7] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-8;
  IncrementalPersonalizedPageRank inc(dynamic, seed, options);

  ASSERT_FALSE(inc.graph().Neighbors(7).empty());
  const NodeId gone = inc.graph().Neighbors(7)[0].head;
  inc.RemoveEdge(7, gone);
  EXPECT_DOUBLE_EQ(inc.graph().EdgeWeight(7, gone), 0.0);

  // A partial decrement elsewhere exercises the weight-delta path.
  ASSERT_FALSE(inc.graph().Neighbors(12).empty());
  const NodeId thinned = inc.graph().Neighbors(12)[0].head;
  inc.RemoveEdge(12, thinned, 0.25);

  const double volume = inc.graph().TotalVolume();
  const IncrementalPersonalizedPageRank fresh(inc.graph(), seed, options);
  EXPECT_LT(DistanceL1(inc.Scores(), fresh.Scores()),
            2.0 * options.epsilon * volume + 1e-9);
  EXPECT_LT(DistanceL1(inc.Scores(),
                       ExactPpr(inc.graph(), seed, options.gamma)),
            options.epsilon * volume + 1e-9);
  EXPECT_EQ(inc.diagnostics().status, SolveStatus::kConverged);
}

TEST_F(IncrementalPprTest, MixedEditsMatchFreshRebuildAfterEveryStep) {
  // Property check over an interleaved add/remove stream, including
  // full removals, a partial decrement, a self-loop's whole lifecycle,
  // and a delete + re-add of the same endpoints.
  DynamicGraph g(8);
  Vector seed(8, 0.0);
  seed[0] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-10;
  IncrementalPersonalizedPageRank inc(g, seed, options);
  struct Edit {
    NodeId u, v;
    double weight;
    bool remove;
  };
  const std::vector<Edit> stream = {
      {0, 1, 1.0, false}, {1, 2, 1.0, false},  {2, 3, 2.0, false},
      {3, 0, 1.0, false}, {0, 2, 1.0, false},  {1, 2, 0.0, true},
      {4, 5, 1.0, false}, {5, 6, 1.0, false},  {6, 7, 1.0, false},
      {7, 4, 1.0, false}, {3, 4, 1.0, false},  {2, 3, 0.5, true},
      {0, 0, 1.0, false}, {0, 0, 0.0, true},   {3, 0, 0.0, true},
      {1, 2, 0.5, false}};
  for (const Edit& e : stream) {
    if (e.remove) {
      inc.RemoveEdge(e.u, e.v, e.weight);
    } else {
      inc.AddEdge(e.u, e.v, e.weight);
    }
    const Vector exact = ExactPpr(inc.graph(), seed, options.gamma);
    ASSERT_LT(DistanceL1(inc.Scores(), exact), 1e-7)
        << (e.remove ? "after removing {" : "after inserting {") << e.u
        << "," << e.v << "}";
  }
  EXPECT_EQ(inc.graph().NumEdges(), 9);
  EXPECT_DOUBLE_EQ(inc.graph().EdgeWeight(2, 3), 1.5);
  EXPECT_DOUBLE_EQ(inc.graph().EdgeWeight(1, 2), 0.5);
}

TEST_F(IncrementalPprTest, HealthyRunReportsConverged) {
  Rng rng(12);
  const Graph g = ErdosRenyi(30, 0.2, rng);
  Vector seed(30, 0.0);
  seed[0] = 1.0;
  const IncrementalPersonalizedPageRank inc(DynamicGraph::FromGraph(g),
                                            seed, {});
  EXPECT_EQ(inc.diagnostics().status, SolveStatus::kConverged);
}

TEST_F(IncrementalPprTest, BudgetExhaustedReturnsBestSoFarWithStatus) {
  Rng rng(13);
  const Graph g = ErdosRenyi(300, 0.05, rng);
  Vector seed(300, 0.0);
  seed[0] = 1.0;
  IncrementalPprOptions options;
  options.epsilon = 1e-12;
  WorkBudget budget(16);  // Far too small for this epsilon.
  options.budget = &budget;
  const IncrementalPersonalizedPageRank inc(DynamicGraph::FromGraph(g),
                                            seed, options);
  EXPECT_EQ(inc.diagnostics().status, SolveStatus::kBudgetExhausted);
  EXPECT_TRUE(budget.Exhausted());
  // Best-so-far, not poison: the partial estimate is finite and
  // bounded by the total seed mass.
  double total = 0.0;
  for (double v : inc.Scores()) {
    ASSERT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_LE(total, 1.0 + 1e-12);
}

TEST(MonteCarloTest, ConvergesToExactPpr) {
  Rng rng(6);
  const Graph g = ErdosRenyi(40, 0.2, rng);
  PageRankOptions exact_options;
  exact_options.gamma = 0.2;
  exact_options.tolerance = 1e-13;
  const Vector exact =
      PersonalizedPageRank(g, SingleNodeSeed(g, 3), exact_options).scores;
  double previous = 2.0;
  for (int walks : {100, 10000, 1000000}) {
    MonteCarloOptions options;
    options.gamma = 0.2;
    options.walks_per_node = walks;
    const Vector estimate = MonteCarloPersonalizedPageRank(g, 3, options);
    const double error = DistanceL1(estimate, exact);
    EXPECT_LT(error, previous);
    previous = error;
  }
  EXPECT_LT(previous, 0.01);
}

TEST(MonteCarloTest, EstimateIsADistribution) {
  Rng rng(7);
  const Graph g = ErdosRenyi(30, 0.2, rng);
  MonteCarloOptions options;
  options.walks_per_node = 500;
  const Vector estimate = MonteCarloPersonalizedPageRank(g, 0, options);
  EXPECT_NEAR(Sum(estimate), 1.0, 1e-12);
  for (double v : estimate) EXPECT_GE(v, 0.0);
}

TEST(MonteCarloTest, GlobalEstimateTracksExactGlobalPageRank) {
  Rng rng(8);
  const Graph g = BarabasiAlbert(200, 3, rng);
  MonteCarloOptions options;
  options.gamma = 0.15;
  options.walks_per_node = 200;
  const Vector estimate = MonteCarloPageRank(g, options);
  PageRankOptions exact_options;
  exact_options.gamma = 0.15;
  const Vector exact = GlobalPageRank(g, exact_options).scores;
  EXPECT_LT(DistanceL1(estimate, exact), 0.08);
}

TEST(MonteCarloTest, DeterministicGivenSeed) {
  const Graph g = CycleGraph(12);
  MonteCarloOptions options;
  options.seed = 99;
  const Vector a = MonteCarloPersonalizedPageRank(g, 0, options);
  const Vector b = MonteCarloPersonalizedPageRank(g, 0, options);
  EXPECT_EQ(a, b);
}

TEST(MonteCarloTest, WrapperMatchesSolveBitwise) {
  const Graph g = CycleGraph(12);
  MonteCarloOptions options;
  options.seed = 5;
  options.walks_per_node = 200;
  EXPECT_EQ(MonteCarloPersonalizedPageRank(g, 0, options),
            MonteCarloPersonalizedPageRankSolve(g, 0, options).scores);
  EXPECT_EQ(MonteCarloPageRank(g, options),
            MonteCarloPageRankSolve(g, options).scores);
}

TEST(MonteCarloTest, HealthyRunReportsConvergedAndCountsWalks) {
  const Graph g = CycleGraph(10);
  MonteCarloOptions options;
  options.walks_per_node = 123;
  const MonteCarloResult result =
      MonteCarloPersonalizedPageRankSolve(g, 0, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kConverged);
  EXPECT_EQ(result.walks, 123);
  EXPECT_EQ(result.requested_walks, 123);
  EXPECT_GT(result.steps, 0);
}

TEST(MonteCarloTest, BudgetExhaustedNormalizesOverCompletedWalks) {
  const Graph g = CycleGraph(20);
  MonteCarloOptions options;
  options.walks_per_node = 5000;
  WorkBudget budget(50);  // A handful of walks' worth of steps.
  options.budget = &budget;
  const MonteCarloResult result =
      MonteCarloPersonalizedPageRankSolve(g, 0, options);
  EXPECT_EQ(result.diagnostics.status, SolveStatus::kBudgetExhausted);
  EXPECT_GT(result.walks, 0);
  EXPECT_LT(result.walks, result.requested_walks);
  // Best-so-far is still a distribution over the completed walks.
  EXPECT_NEAR(Sum(result.scores), 1.0, 1e-12);
  for (double v : result.scores) EXPECT_GE(v, 0.0);
}

TEST(MonteCarloTest, IsolatedSeedStaysPut) {
  GraphBuilder builder(3);
  builder.AddEdge(0, 1);
  const Graph g = builder.Build();
  MonteCarloOptions options;
  options.walks_per_node = 50;
  const Vector estimate = MonteCarloPersonalizedPageRank(g, 2, options);
  EXPECT_DOUBLE_EQ(estimate[2], 1.0);
}

}  // namespace
}  // namespace impreg
