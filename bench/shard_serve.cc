// BM_ShardServe — the sharded serving benchmark family.
//
// The quantity sharding exists to buy: a strongly-local query seeded
// deep inside one shard should touch (almost) nothing outside it,
// while a query seeded on a shard boundary pays escalations and halo
// crossings. This driver measures both shapes on a ring-of-cliques
// graph (the partitioner's best case: cuts fall on the ring edges)
// served at 8 shards, cache off so every query recomputes:
//
//   BM_ShardServe/deep       push seeded at clique-interior nodes
//   BM_ShardServe/boundary   push seeded at cross-shard edge endpoints
//
// The report's `metrics` member carries the reproducible half — the
// shard work counters (local rows, escalations, halo crossings) for
// one batch of each shape, and the deep-vs-boundary local-work ratio
// in parts per thousand. These are pure functions of the graph and
// the deterministic partition, identical on every machine; drift
// means the locality story changed, not the clock. The ns_per_iter
// fields are wall-clock and are gated by trajectory via
// `impreg_bench_diff` with generous thresholds (see the
// shard_serve_report_gate ctest and bench/shard_serve_gate.cmake). A
// copy of this report is checked in at
// bench/out/BENCH_shard_serve.json as the baseline.
//
// Usage: shard_serve [--out=PATH]
//                    (default: bench/out/BENCH_shard_serve.json)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.h"
#include "core/parallel.h"
#include "graph/graph.h"
#include "service/query_engine.h"
#include "service/sharding/shard_set.h"
#include "util/check.h"

#ifndef IMPREG_BENCH_REPORT_DIR
#define IMPREG_BENCH_REPORT_DIR "bench/out"
#endif

namespace impreg {
namespace {

constexpr int kCliques = 32;
constexpr int kCliqueSize = 48;
constexpr int kShards = 8;
constexpr int kSeedsPerShape = 64;
constexpr int kReps = 6;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Graph RingOfCliques(int cliques, int clique_size) {
  GraphBuilder builder(cliques * clique_size);
  for (int c = 0; c < cliques; ++c) {
    const NodeId base = c * clique_size;
    for (int i = 0; i < clique_size; ++i) {
      for (int j = i + 1; j < clique_size; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
    const NodeId next = ((c + 1) % cliques) * clique_size;
    builder.AddEdge(base, next + 1);
  }
  return builder.Build();
}

std::vector<Query> BatchFor(const std::vector<NodeId>& seeds) {
  std::vector<Query> batch;
  batch.reserve(seeds.size());
  for (const NodeId s : seeds) {
    Query q;
    q.method = QueryMethod::kPprPush;
    q.seeds = {s};
    q.epsilon = 1e-4;
    batch.push_back(std::move(q));
  }
  return batch;
}

int Run(int argc, char** argv) {
  std::string out_path =
      std::string(IMPREG_BENCH_REPORT_DIR) + "/BENCH_shard_serve.json";
  if (const char* env = std::getenv("IMPREG_BENCH_REPORT")) out_path = env;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }

  const Graph graph = RingOfCliques(kCliques, kCliqueSize);
  QueryEngine::Options options;
  options.enable_cache = false;  // Every rep recomputes the same work.
  options.sharding.shards = kShards;
  QueryEngine engine(graph, options);
  IMPREG_CHECK(engine.shards() != nullptr);
  const std::vector<int>& owner = engine.shards()->plan().owner;

  // Deep seeds: whole one-hop neighborhood co-owned. Boundary seeds:
  // tails of cross-shard arcs. Both deterministic in node order.
  std::vector<NodeId> deep, boundary;
  for (NodeId u = 0;
       u < graph.NumNodes() && (static_cast<int>(deep.size()) < kSeedsPerShape ||
                                static_cast<int>(boundary.size()) < kSeedsPerShape);
       ++u) {
    bool interior = graph.OutDegree(u) > 0;
    for (const NodeId v : graph.Heads(u)) {
      interior = interior && owner[v] == owner[u];
    }
    if (interior && static_cast<int>(deep.size()) < kSeedsPerShape) {
      deep.push_back(u);
    } else if (!interior &&
               static_cast<int>(boundary.size()) < kSeedsPerShape) {
      boundary.push_back(u);
    }
  }
  IMPREG_CHECK(!deep.empty());
  IMPREG_CHECK(!boundary.empty());

  std::vector<BenchRecord> records;
  auto emit = [&](const std::string& name, double ns_per_iter) {
    BenchRecord r;
    r.bench = name;
    r.n = graph.NumNodes();
    r.m = graph.NumEdges();
    r.threads = ImpregNumThreads();
    r.ns_per_iter = ns_per_iter;
    records.push_back(r);
    std::printf("%-24s %12.0f ns/iter\n", name.c_str(), ns_per_iter);
  };

  // One counted pass per shape (counters are a pure function of the
  // batch, so one pass is exact), then timed reps.
  ShardSet::CounterTotals deep_work, boundary_work;
  auto measure = [&](const char* name, const std::vector<NodeId>& seeds,
                     ShardSet::CounterTotals* work) {
    const std::vector<Query> batch = BatchFor(seeds);
    engine.mutable_shards()->ResetCounters();
    (void)engine.RunBatch(batch);
    *work = engine.shards()->Totals();
    const double start = NowNs();
    for (int rep = 0; rep < kReps; ++rep) (void)engine.RunBatch(batch);
    emit(name, (NowNs() - start) /
                   (static_cast<double>(kReps) * seeds.size()));
  };
  measure("BM_ShardServe/deep", deep, &deep_work);
  measure("BM_ShardServe/boundary", boundary, &boundary_work);

  // Local-work ratio in parts per thousand: rows served by the home
  // shard over all rows, per shape. Integer so the metrics diff is
  // byte-stable across machines.
  auto local_ppt = [](const ShardSet::CounterTotals& t) -> std::int64_t {
    const std::int64_t rows = t.local_rows + t.escalations;
    return rows == 0 ? 0 : (1000 * t.local_rows) / rows;
  };

  std::ostringstream metrics;
  metrics << "{\"shard.shards\": " << kShards
          << ", \"shard.deep_seeds\": " << deep.size()
          << ", \"shard.boundary_seeds\": " << boundary.size()
          << ", \"shard.deep_local_rows\": " << deep_work.local_rows
          << ", \"shard.deep_escalations\": " << deep_work.escalations
          << ", \"shard.deep_halo_crossings\": " << deep_work.halo_crossings
          << ", \"shard.deep_local_ppt\": " << local_ppt(deep_work)
          << ", \"shard.boundary_local_rows\": " << boundary_work.local_rows
          << ", \"shard.boundary_escalations\": "
          << boundary_work.escalations
          << ", \"shard.boundary_halo_crossings\": "
          << boundary_work.halo_crossings
          << ", \"shard.boundary_local_ppt\": " << local_ppt(boundary_work)
          << "}";
  std::printf("deep local %lld/%lld rows (%lld ppt), boundary local "
              "%lld/%lld rows (%lld ppt)\n",
              static_cast<long long>(deep_work.local_rows),
              static_cast<long long>(deep_work.local_rows +
                                     deep_work.escalations),
              static_cast<long long>(local_ppt(deep_work)),
              static_cast<long long>(boundary_work.local_rows),
              static_cast<long long>(boundary_work.local_rows +
                                     boundary_work.escalations),
              static_cast<long long>(local_ppt(boundary_work)));

  if (!WriteBenchReport(out_path, records, metrics.str())) {
    std::fprintf(stderr, "shard_serve: cannot write '%s'\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("report: %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
