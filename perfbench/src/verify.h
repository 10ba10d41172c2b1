#ifndef PERFBENCH_VERIFY_H_
#define PERFBENCH_VERIFY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "graph/graph.h"
#include "service/query_engine.h"
#include "streaming/dynamic_graph.h"

/// \file
/// Independent re-derivation of served answers.
///
/// Each checked answer is recomputed by a library reference on a frozen
/// CSR copy of the graph at the epoch the answer was served at:
///  - ppr-dense must equal PersonalizedPageRank bit for bit;
///  - heat-kernel must equal HeatKernelRelaxFromDistribution bit for bit
///    (scores, set and conductance);
///  - nibble must equal NibbleFromDistribution bit for bit;
///  - push must be within ‖PPR − p‖₁ ≤ c·ε·vol of a tightly converged
///    dense PPR, and within c·ε·d(u) at every node u (the push
///    termination guarantee |r(u)| < ε·d(u) bounds the error of every
///    entry the same way), with c = 1 for cold answers and c = 2 for
///    warm-restarted or cached ones.

namespace impreg::perfbench {

/// Re-derives `response` for `query` on `frozen` (the graph at the
/// answer's epoch). Returns "" when the answer checks out, else what
/// differs.
std::string CheckAnswer(const Query& query, const QueryResponse& response,
                        const Graph& frozen);

/// Caches the frozen CSR copy of the most recent snapshot epoch, so a
/// read-only run freezes its graph once.
class FrozenGraphs {
 public:
  const Graph& At(const DynamicGraph::SnapshotView& snap);

 private:
  std::unique_ptr<Graph> graph_;
  std::int64_t epoch_ = -1;
};

}  // namespace impreg::perfbench

#endif  // PERFBENCH_VERIFY_H_
