// Table T2 (§2.3/§3.1): early stopping of the Power Method as implicit
// regularization — with a measurable *inference benefit*.
//
// Workload: a planted bipartition (the signal) with a long whisker path
// glued on (the noise — the "long stringy piece" of §3.2). The exact
// leading nontrivial eigenvector localizes on the whisker, because the
// whisker cut has the smaller conductance; classifying the communities
// with it fails. Early-stopped power iterates have not yet converged to
// the whisker mode and still carry the community signal: approximate
// computation is both FASTER and BETTER for the downstream task.
//
// Rows: iteration budget k → Rayleigh quotient (forward error) and
// community-recovery accuracy (inference quality). The paper's shape:
// accuracy peaks at intermediate k and *degrades* as the computation
// becomes exact.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/impreg.h"

using namespace impreg;

namespace {

struct Workload {
  Graph graph;
  NodeId community_nodes;  // Nodes [0, community_nodes) carry labels.
  NodeId block_size;
};

Workload MakeWorkload(Rng& rng) {
  const NodeId block = 150;
  const Graph planted = PlantedPartition(2, block, 0.25, 0.01, rng);
  const NodeId whisker_len = 40;
  GraphBuilder builder(planted.NumNodes() + whisker_len);
  for (NodeId u = 0; u < planted.NumNodes(); ++u) {
    const auto heads = planted.Heads(u);
    const auto weights = planted.Weights(u);
    for (std::size_t i = 0; i < heads.size(); ++i) {
      if (heads[i] > u) builder.AddEdge(u, heads[i], weights[i]);
    }
  }
  builder.AddEdge(0, planted.NumNodes());
  for (NodeId i = 0; i + 1 < whisker_len; ++i) {
    builder.AddEdge(planted.NumNodes() + i, planted.NumNodes() + i + 1);
  }
  return {builder.Build(), planted.NumNodes(), block};
}

// Sign-classification accuracy against the planted labels, restricted
// to the community nodes, best over label swap.
double Accuracy(const Workload& w, const Vector& hat_vector) {
  int agree = 0;
  for (NodeId u = 0; u < w.community_nodes; ++u) {
    const bool predicted = hat_vector[u] >= 0.0;
    const bool truth = u < w.block_size;
    if (predicted == truth) ++agree;
  }
  const double frac = static_cast<double>(agree) / w.community_nodes;
  return std::max(frac, 1.0 - frac);
}

}  // namespace

int main() {
  Rng rng(11);
  const Workload w = MakeWorkload(rng);
  std::printf("== T2: early stopping vs inference quality ==\n");
  std::printf("# planted 2x%d bipartition + %d-node whisker; n=%d m=%lld\n",
              w.block_size, w.graph.NumNodes() - w.community_nodes,
              w.graph.NumNodes(),
              static_cast<long long>(w.graph.NumEdges()));

  // Average over several random starts for stability.
  const int kTrials = 7;
  Table table({"iterations", "rayleigh", "accuracy", "phi_sweep"});
  std::vector<int> budgets = {1, 2, 4, 8, 16, 32, 64, 128, 512, 4096};
  for (int budget : budgets) {
    double rayleigh = 0.0, accuracy = 0.0, phi = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      Rng start_rng(1000 + trial);
      PowerMethodOptions options;
      options.max_iterations = budget;
      options.tolerance = 0.0;
      const PowerMethodResult run = SecondEigenpairPowerMethod(
          w.graph, RandomSignSeed(w.graph, start_rng), options);
      rayleigh += run.eigenvalue;
      accuracy += Accuracy(w, run.eigenvector);
      const SpectralPartitionResult sweep =
          SweepHatVector(w.graph, run.eigenvector);
      phi += sweep.stats.conductance;
    }
    table.AddRow({std::to_string(budget), FormatG(rayleigh / kTrials, 5),
                  FormatG(accuracy / kTrials, 4),
                  FormatG(phi / kTrials, 4)});
  }
  table.Print();
  std::printf("\npaper's shape: accuracy peaks at intermediate budgets and "
              "degrades as the\niteration converges to the exact "
              "(whisker-localized) eigenvector.\n");
  return 0;
}
