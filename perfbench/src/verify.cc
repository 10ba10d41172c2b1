#include "verify.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "diffusion/pagerank.h"
#include "partition/hkrelax.h"
#include "partition/nibble.h"

namespace impreg::perfbench {
namespace {

// Far below the push guarantee ε·d(u) ≥ 1e-4 the checks compare against.
constexpr double kReferenceTolerance = 1e-10;

bool SameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The engine's seed vector: uniform mass over the distinct seeds.
Vector SeedVector(const Query& query, NodeId n) {
  std::vector<NodeId> seeds = query.seeds;
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  Vector seed(n, 0.0);
  for (NodeId s : seeds) seed[s] = 1.0 / static_cast<double>(seeds.size());
  return seed;
}

std::string CheckCommunity(const char* what, const QueryResponse& response,
                           const Vector& scores,
                           const std::vector<NodeId>& set,
                           double conductance) {
  if (!SameBits(response.scores, scores)) {
    return std::string(what) + " scores differ from the reference";
  }
  if (response.set != set) {
    return std::string(what) + " set differs from the reference";
  }
  if (!SameBits(response.conductance, conductance)) {
    return std::string(what) + " conductance differs from the reference";
  }
  return "";
}

std::string CheckPush(const Query& query, const QueryResponse& response,
                      const Graph& g) {
  const NodeId n = g.NumNodes();
  if (static_cast<NodeId>(response.scores.size()) != n) {
    return "push answer has the wrong length";
  }
  PageRankOptions options;
  options.gamma = query.gamma;
  options.tolerance = kReferenceTolerance;
  const PageRankResult exact =
      PersonalizedPageRank(g, SeedVector(query, n), options);
  // Richardson's stopping rule leaves ‖p* − p_t‖₁ ≤ tol·(1−γ)/γ.
  const double slack = kReferenceTolerance / query.gamma;
  const double c = response.source == QuerySource::kCold ? 1.0 : 2.0;
  double l1 = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    const double err = std::abs(exact.scores[u] - response.scores[u]);
    if (!std::isfinite(err)) return "push answer is not finite";
    l1 += err;
    if (err > c * query.epsilon * g.Degree(u) + slack) {
      return "push answer at node " + std::to_string(u) +
             " is off the dense PPR by more than c*eps*d(u)";
    }
  }
  if (l1 > c * query.epsilon * g.TotalVolume() + slack) {
    return "push answer is off the dense PPR by more than c*eps*vol in L1";
  }
  return "";
}

}  // namespace

std::string CheckAnswer(const Query& query, const QueryResponse& response,
                        const Graph& frozen) {
  if (!StatusIsUsable(response.status)) return "";
  const NodeId n = frozen.NumNodes();
  switch (query.method) {
    case QueryMethod::kPprPush:
      return CheckPush(query, response, frozen);
    case QueryMethod::kPprDense: {
      PageRankOptions options;
      options.gamma = query.gamma;
      options.tolerance = query.tolerance;
      options.max_iterations = query.max_iterations;
      const PageRankResult ref =
          PersonalizedPageRank(frozen, SeedVector(query, n), options);
      return SameBits(response.scores, ref.scores)
                 ? ""
                 : "ppr-dense scores differ from PersonalizedPageRank";
    }
    case QueryMethod::kHeatKernel: {
      HkRelaxOptions options;
      options.t = query.t;
      options.delta = query.delta;
      options.tail_tolerance = query.epsilon;
      const HkRelaxResult ref = HeatKernelRelaxFromDistribution(
          frozen, SeedVector(query, n), options);
      return CheckCommunity("heat-kernel", response, ref.rho, ref.set,
                            ref.stats.conductance);
    }
    case QueryMethod::kNibble: {
      NibbleOptions options;
      options.steps = query.steps;
      options.epsilon = query.epsilon;
      const NibbleResult ref =
          NibbleFromDistribution(frozen, SeedVector(query, n), options);
      return CheckCommunity("nibble", response, ref.distribution, ref.set,
                            ref.stats.conductance);
    }
  }
  return "unknown method";
}

const Graph& FrozenGraphs::At(const DynamicGraph::SnapshotView& snap) {
  if (graph_ == nullptr || epoch_ != snap.epoch()) {
    graph_ = std::make_unique<Graph>(snap.graph().ToGraph());
    epoch_ = snap.epoch();
  }
  return *graph_;
}

}  // namespace impreg::perfbench
