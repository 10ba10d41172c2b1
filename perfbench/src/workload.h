#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/social.h"
#include "service/load/workload.h"
#include "service/query_engine.h"
#include "util/rng.h"

/// \file
/// The benchmark's named workloads and their request streams.
///
/// Every workload serves JSONL request lines generated from one
/// workload seed over a fixed MakeWhiskeredSocialGraph network: the
/// stream is a pure function of (spec, seed), so a seed replays
/// byte-identical inputs. Query seeds follow Zipf(s) over a seeded permutation of the
/// node ids, so the hot seeds are random nodes rather than the
/// lowest-numbered (highest-degree) core hubs.

namespace impreg::perfbench {

/// Everything that shapes one workload.
struct WorkloadSpec {
  std::string name;
  SocialGraphParams graph;
  /// Query methods, cycled per query ("alternating" mixes).
  std::vector<QueryMethod> methods;
  /// Push ε / nibble truncation / heat-kernel tail tolerance.
  double epsilon = 1e-4;
  /// ppr-dense L1 stopping tolerance.
  double tolerance = 1e-6;
  double hk_t = 10.0;
  double hk_delta = 1e-5;
  int nibble_steps = 40;
  /// Seed popularity skew (0 = uniform).
  double zipf_s = 1.1;
  /// Request lines per closed-loop batch (queries and edits).
  int batch_size = 16;
  /// Every edit_every-th event is an edge edit (0 = read-only), and
  /// this share of the edits are removals. A fixed cadence rather than
  /// a coin per event: how many answers pile up in the cache between
  /// two edits, and so peak memory, does not then hinge on the longest
  /// edit-free run a seed happens to draw.
  int edit_every = 0;
  double remove_fraction = 0.0;
  /// Tenant names are "t0".."t<n-1>"; with tenants, admission control
  /// runs with a per-tenant pool that never sheds. 0 = the anonymous
  /// tenant, admission off.
  int tenants = 0;
  /// > 0: WAL every edit (sync_every = 1) and publish a snapshot every
  /// this many edits. 0: no durability.
  int snapshot_every = 0;
  /// Batches the verification pass samples answers from (evenly
  /// spaced), and answers re-derived per sampled batch.
  int verify_batches = 8;
  int verify_per_batch = 1;
  /// Batches served before the clock starts, so the timed phase sees a
  /// filled cache and a warmed heap.
  int warmup_batches = 16;
  /// Fixed batch count over which deterministic counters are reported,
  /// so they repeat exactly whatever the timed phase managed.
  int counter_batches = 64;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The workload called `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// The engine configuration the workload serves with.
QueryEngine::Options EngineOptions(const WorkloadSpec& spec);

/// Builds the workload's graph. The graph is the workload's fixed
/// dataset — it does not depend on the workload seed, which drives the
/// request stream — so runs on different seeds serve the same network.
Graph BuildGraph(const WorkloadSpec& spec);

/// Generates the request stream batch by batch. The k-th batch is a
/// pure function of (spec, seed, num_nodes, k): callers may stop at any
/// batch and a replay from a fresh stream reproduces the same prefix.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                NodeId num_nodes);

  /// Replaces `lines` with the next batch's request lines.
  void NextBatch(std::vector<std::string>* lines);

  /// Batches generated so far.
  std::int64_t batches() const { return batches_; }

 private:
  NodeId HotNode();
  std::string QueryLine();
  std::string EditLine();

  const WorkloadSpec& spec_;
  NodeId num_nodes_;
  Rng rng_;
  std::vector<int> permutation_;
  ZipfSampler zipf_;
  std::int64_t batches_ = 0;
  std::int64_t events_ = 0;
  std::int64_t queries_ = 0;
  /// Edges this stream added and has not removed yet (removal targets;
  /// insertion order kept, removal by swap-with-last).
  std::vector<std::pair<NodeId, NodeId>> added_;
};

}  // namespace impreg::perfbench

#endif  // PERFBENCH_WORKLOAD_H_
