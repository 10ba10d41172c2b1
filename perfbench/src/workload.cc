#include "workload.h"

#include <algorithm>
#include <cstdio>

namespace impreg::perfbench {
namespace {

// The request stream's generator is derived from the workload seed;
// the graph's is fixed.
constexpr std::uint64_t kStreamSalt = 0x5eedba7c4e57ULL;
constexpr std::uint64_t kGraphSeed = 2012;
constexpr double kGamma = 0.15;

std::string Num(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

SocialGraphParams Social(NodeId core, int communities, NodeId max_community,
                         int whiskers) {
  SocialGraphParams p;
  p.core_nodes = core;
  p.num_communities = communities;
  p.max_community_size = max_community;
  p.num_whiskers = whiskers;
  return p;
}

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec large;
  large.name = "local-push-large";
  large.graph = Social(190000, 64, 256, 1000);
  large.methods = {QueryMethod::kPprPush};
  large.epsilon = 1e-4;
  large.zipf_s = 1.1;
  large.batch_size = 16;
  large.verify_batches = 3;
  large.counter_batches = 32;
  all.push_back(large);

  WorkloadSpec small = large;
  small.name = "hot-push-small";
  small.graph = Social(3000, 12, 128, 150);
  small.epsilon = 1e-3;
  small.tenants = 4;
  small.verify_batches = 8;
  small.verify_per_batch = 3;
  small.counter_batches = 256;
  small.warmup_batches = 1024;
  all.push_back(small);

  WorkloadSpec writes;
  writes.name = "community-writes";
  writes.graph = Social(50000, 24, 256, 300);
  writes.methods = {QueryMethod::kHeatKernel, QueryMethod::kNibble};
  writes.epsilon = 1e-4;
  writes.hk_t = 5.0;
  writes.hk_delta = 1e-4;
  writes.nibble_steps = 20;
  writes.zipf_s = 1.1;
  writes.batch_size = 16;
  writes.edit_every = 20;  // 5% of events.
  writes.remove_fraction = 0.3;
  writes.snapshot_every = 16;
  writes.verify_batches = 8;
  writes.verify_per_batch = 2;
  writes.counter_batches = 64;
  all.push_back(writes);

  WorkloadSpec dense;
  dense.name = "dense-ppr";
  dense.graph = Social(7000, 24, 256, 150);
  dense.methods = {QueryMethod::kPprDense};
  dense.tolerance = 1e-6;
  dense.zipf_s = 0.0;
  dense.batch_size = 8;
  dense.verify_batches = 8;
  dense.verify_per_batch = 2;
  dense.counter_batches = 64;
  dense.warmup_batches = 8;
  all.push_back(dense);
  return all;
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

QueryEngine::Options EngineOptions(const WorkloadSpec& spec) {
  QueryEngine::Options options;
  if (spec.tenants > 0) {
    options.admission.enabled = true;
    // Billed at default_cost per query, a run never spends the
    // degrade fraction of this pool: admission runs, nothing sheds.
    options.admission.policy.capacity = std::int64_t{1} << 60;
  }
  return options;
}

Graph BuildGraph(const WorkloadSpec& spec) {
  Rng rng(kGraphSeed);
  return MakeWhiskeredSocialGraph(spec.graph, rng).graph;
}

RequestStream::RequestStream(const WorkloadSpec& spec, std::uint64_t seed,
                             NodeId num_nodes)
    : spec_(spec),
      num_nodes_(num_nodes),
      rng_(seed ^ kStreamSalt),
      zipf_(num_nodes, spec.zipf_s) {
  permutation_ = rng_.Permutation(num_nodes);
}

NodeId RequestStream::HotNode() {
  return permutation_[zipf_.Sample(rng_)];
}

std::string RequestStream::QueryLine() {
  const QueryMethod method =
      spec_.methods[static_cast<std::size_t>(queries_) % spec_.methods.size()];
  std::string line = "{\"id\":\"q" + std::to_string(queries_++) +
                     "\",\"method\":\"" + QueryMethodName(method) +
                     "\",\"seeds\":[" + std::to_string(HotNode()) + "]";
  switch (method) {
    case QueryMethod::kPprPush:
      line += ",\"gamma\":" + Num(kGamma) +
              ",\"epsilon\":" + Num(spec_.epsilon);
      break;
    case QueryMethod::kPprDense:
      line += ",\"gamma\":" + Num(kGamma) +
              ",\"tolerance\":" + Num(spec_.tolerance);
      break;
    case QueryMethod::kHeatKernel:
      line += ",\"t\":" + Num(spec_.hk_t) + ",\"delta\":" +
              Num(spec_.hk_delta) + ",\"epsilon\":" + Num(spec_.epsilon);
      break;
    case QueryMethod::kNibble:
      line += ",\"steps\":" + std::to_string(spec_.nibble_steps) +
              ",\"epsilon\":" + Num(spec_.epsilon);
      break;
  }
  if (spec_.tenants > 0) {
    line += ",\"tenant\":\"t" +
            std::to_string(rng_.NextBounded(spec_.tenants)) + "\"";
  }
  return line + ",\"top\":10}";
}

std::string RequestStream::EditLine() {
  const bool remove = rng_.NextBernoulli(spec_.remove_fraction);
  if (remove && !added_.empty()) {
    const std::size_t pick = rng_.NextBounded(added_.size());
    const auto [u, v] = added_[pick];
    added_[pick] = added_.back();
    added_.pop_back();
    return "{\"op\":\"remove-edge\",\"u\":" + std::to_string(u) +
           ",\"v\":" + std::to_string(v) + "}";
  }
  const NodeId u = HotNode();
  NodeId v = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
  if (v == u) v = (u + 1) % num_nodes_;
  const std::pair<NodeId, NodeId> edge(std::min(u, v), std::max(u, v));
  // A removal takes the whole edge, so each pair is listed once: a
  // second add only raises the weight of an edge already listed.
  if (std::find(added_.begin(), added_.end(), edge) == added_.end()) {
    added_.push_back(edge);
  }
  return "{\"op\":\"add-edge\",\"u\":" + std::to_string(u) +
         ",\"v\":" + std::to_string(v) + ",\"weight\":1}";
}

void RequestStream::NextBatch(std::vector<std::string>* lines) {
  lines->clear();
  for (int i = 0; i < spec_.batch_size; ++i) {
    const bool edit =
        spec_.edit_every > 0 && ++events_ % spec_.edit_every == 0;
    lines->push_back(edit ? EditLine() : QueryLine());
  }
  ++batches_;
}

}  // namespace impreg::perfbench
