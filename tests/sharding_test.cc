// Acceptance suite for sharded graph serving (service/sharding/): the
// shard-count-invariance matrix (every strongly-local method, every
// shard count, every thread count, cache on and off, bitwise equal to
// the unsharded engine), degenerate-topology construction fuzz, the
// routing-epoch cache-key regression, shard-locality accounting, and
// the shard manifest round-trip. The ShardingWillFail probe corrupts
// one halo degree replica and re-runs the invariance assertion — it
// must FAIL (the ctest entry is WILL_FAIL), proving the matrix is
// sharp enough to catch a single wrong halo weight.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/parallel.h"
#include "graph/graph.h"
#include "graph/random_graphs.h"
#include "service/query_engine.h"
#include "service/sharding/shard_manifest.h"
#include "service/sharding/shard_plan.h"
#include "service/sharding/shard_set.h"
#include "streaming/dynamic_graph.h"
#include "util/rng.h"

namespace impreg {
namespace {

namespace fs = std::filesystem;

// —— Graph families ———————————————————————————————————————————————

Graph RingOfCliques(int cliques, int clique_size) {
  GraphBuilder builder(cliques * clique_size);
  for (int c = 0; c < cliques; ++c) {
    const NodeId base = c * clique_size;
    for (int i = 0; i < clique_size; ++i) {
      for (int j = i + 1; j < clique_size; ++j) {
        builder.AddEdge(base + i, base + j);
      }
    }
    // One ring edge per adjacent clique pair: the only cross-community
    // structure, so a min-cut partition severs exactly these.
    const NodeId next = ((c + 1) % cliques) * clique_size;
    builder.AddEdge(base, next + 1);
  }
  return builder.Build();
}

Graph ErGraph() {
  Rng rng(0xE12u);
  return ErdosRenyi(120, 8.0 / 119.0, rng);
}

Graph BaGraph() {
  Rng rng(0xBA5u);
  return BarabasiAlbert(120, 4, rng);
}

// —— Bitwise response comparison ——————————————————————————————————

void ExpectResponseBitwise(const QueryResponse& want,
                           const QueryResponse& got, const char* context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(want.status, got.status);
  EXPECT_EQ(want.degraded, got.degraded);
  EXPECT_EQ(want.source, got.source);
  EXPECT_EQ(want.work, got.work);
  EXPECT_EQ(want.conductance, got.conductance);
  EXPECT_EQ(want.set, got.set);
  ASSERT_EQ(want.scores.size(), got.scores.size());
  for (std::size_t i = 0; i < want.scores.size(); ++i) {
    // Exact == : the contract is identical *bits*, not tolerance.
    ASSERT_EQ(want.scores[i], got.scores[i])
        << "scores diverge at node " << i;
  }
}

void ExpectBatchBitwise(const std::vector<QueryResponse>& want,
                        const std::vector<QueryResponse>& got,
                        const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ExpectResponseBitwise(want[i], got[i],
                          ("query #" + std::to_string(i)).c_str());
  }
}

// One batch touching every method: three single-seed queries spread
// across the id range per method, plus one multi-seed query.
std::vector<Query> MatrixBatch(NodeId n) {
  std::vector<Query> batch;
  const std::vector<NodeId> picks = {1 % n, n / 2, n - 1};
  for (QueryMethod method :
       {QueryMethod::kPprPush, QueryMethod::kPprDense,
        QueryMethod::kHeatKernel, QueryMethod::kNibble}) {
    for (NodeId s : picks) {
      Query q;
      q.method = method;
      q.seeds = {s};
      q.epsilon = 1e-4;
      q.tolerance = 1e-8;
      q.max_iterations = 500;
      q.t = 5.0;
      q.delta = 1e-4;
      q.steps = 15;
      batch.push_back(std::move(q));
    }
  }
  Query multi;
  multi.method = QueryMethod::kPprPush;
  multi.seeds = {0, n / 2, n / 3};
  multi.epsilon = 1e-4;
  batch.push_back(std::move(multi));
  return batch;
}

// The tentpole matrix: shard counts {1, 2, 4, 8} × threads {1, 8} ×
// cache {on, off} × all four methods — before a burst of routed
// AddEdges, after it, and after routed RemoveEdges take the burst
// back out (mixed partial and full removals) — every response bitwise
// equal to the unsharded engine in the same configuration.
void RunInvarianceMatrix(const Graph& g, const char* family) {
  SCOPED_TRACE(family);
  const NodeId n = g.NumNodes();
  const std::vector<Query> batch = MatrixBatch(n);
  const std::vector<std::pair<NodeId, NodeId>> edits = {
      {0, n / 2}, {1, n - 1}, {n / 3, n / 4}, {2, 2}};

  for (const bool cache : {true, false}) {
    for (const int threads : {1, 8}) {
      ScopedNumThreads scoped(threads);
      QueryEngine::Options base;
      base.enable_cache = cache;
      QueryEngine reference(g, base);
      const std::vector<QueryResponse> ref_before =
          reference.RunBatch(batch);
      for (const auto& [u, v] : edits) reference.AddEdge(u, v, 1.0);
      const std::vector<QueryResponse> ref_after = reference.RunBatch(batch);
      // Take the burst back out: a full removal where the burst created
      // the edge, a partial decrement where it stacked onto an existing
      // one — either way both engines route the same deletes.
      for (const auto& [u, v] : edits) reference.RemoveEdge(u, v, 1.0);
      const std::vector<QueryResponse> ref_removed =
          reference.RunBatch(batch);

      for (const int k : {1, 2, 4, 8}) {
        const std::string context = std::string("cache=") +
                                    (cache ? "on" : "off") +
                                    " threads=" + std::to_string(threads) +
                                    " shards=" + std::to_string(k);
        QueryEngine::Options options = base;
        options.sharding.shards = k;
        QueryEngine engine(g, options);
        if (k > 1) {
          ASSERT_NE(engine.shards(), nullptr) << context;
          EXPECT_EQ(engine.shards()->shards(), k) << context;
        } else {
          EXPECT_EQ(engine.shards(), nullptr) << context;
        }
        ExpectBatchBitwise(ref_before, engine.RunBatch(batch),
                           context + " pre-edit");
        for (const auto& [u, v] : edits) engine.AddEdge(u, v, 1.0);
        ExpectBatchBitwise(ref_after, engine.RunBatch(batch),
                           context + " post-edit");
        for (const auto& [u, v] : edits) engine.RemoveEdge(u, v, 1.0);
        ExpectBatchBitwise(ref_removed, engine.RunBatch(batch),
                           context + " post-remove");
        if (k > 1) {
          // The sharded path really ran: rows were billed to shards.
          EXPECT_GT(engine.shards()->Totals().local_rows, 0) << context;
        }
      }
    }
  }
}

TEST(ShardingInvarianceTest, ErdosRenyiMatrix) {
  RunInvarianceMatrix(ErGraph(), "erdos-renyi");
}

TEST(ShardingInvarianceTest, BarabasiAlbertMatrix) {
  RunInvarianceMatrix(BaGraph(), "barabasi-albert");
}

TEST(ShardingInvarianceTest, RingOfCliquesMatrix) {
  RunInvarianceMatrix(RingOfCliques(6, 15), "ring-of-cliques");
}

// —— The WILL_FAIL probe ——————————————————————————————————————————
//
// Corrupting a single halo degree replica must break the bitwise
// invariance assertion — the ctest entry for this suite is WILL_FAIL,
// so the *failure* below is what CI certifies. If this test ever
// passes, the halo replicas have stopped being load-bearing and the
// whole matrix is vacuous.

TEST(ShardingWillFail, HaloCorruptionChangesServedBits) {
  const Graph g = RingOfCliques(6, 15);
  QueryEngine reference(g);
  QueryEngine::Options options;
  options.sharding.shards = 4;
  options.enable_cache = false;
  QueryEngine engine(g, options);
  ASSERT_NE(engine.shards(), nullptr);

  // Find a cross-shard edge {u, v}: v's degree replica lives in
  // owner(u)'s halo and serves u's push enqueue threshold for v.
  const std::vector<int>& owner = engine.shards()->plan().owner;
  NodeId cu = -1, cv = -1;
  for (NodeId u = 0; u < g.NumNodes() && cu < 0; ++u) {
    for (const NodeId nb : g.Heads(u)) {
      if (owner[u] != owner[nb]) {
        cu = u;
        cv = nb;
        break;
      }
    }
  }
  ASSERT_GE(cu, 0) << "partition produced no cross-shard edge";
  ASSERT_TRUE(engine.mutable_shards()->CorruptHaloReplica(owner[cu], cv,
                                                          1.0e9));

  Query q;
  q.method = QueryMethod::kPprPush;
  q.seeds = {cu};
  q.epsilon = 1e-5;
  ExpectResponseBitwise(reference.Run(q), engine.Run(q),
                        "push across corrupted halo");
}

// —— Degenerate-topology construction fuzz ————————————————————————

struct DegenerateCase {
  const char* name;
  Graph graph;
  int shards;
};

std::vector<DegenerateCase> DegenerateCases() {
  std::vector<DegenerateCase> cases;
  cases.push_back({"empty", GraphBuilder(0).Build(), 4});
  cases.push_back({"single-node", GraphBuilder(1).Build(), 4});
  cases.push_back({"isolated-nodes", GraphBuilder(8).Build(), 4});
  {
    GraphBuilder b(6);
    for (NodeId u = 0; u < 6; ++u) b.AddEdge(u, u);
    b.AddEdge(0, 1);
    cases.push_back({"self-loops", b.Build(), 3});
  }
  {
    GraphBuilder b(10);
    for (NodeId i = 0; i < 5; ++i) {
      for (NodeId j = i + 1; j < 5; ++j) {
        b.AddEdge(i, j);
        b.AddEdge(5 + i, 5 + j);
      }
    }
    cases.push_back({"disconnected", b.Build(), 2});
  }
  {
    GraphBuilder b(4);
    b.AddEdge(0, 1);
    b.AddEdge(1, 2);
    b.AddEdge(2, 3);
    cases.push_back({"k-gt-n", b.Build(), 8});
  }
  return cases;
}

TEST(ShardingDegenerateTest, ExportPartsRoundTripsBitExactly) {
  for (const DegenerateCase& c : DegenerateCases()) {
    SCOPED_TRACE(c.name);
    const DynamicGraph dyn = DynamicGraph::FromGraph(c.graph);
    DynamicGraph::Parts parts = dyn.ExportParts();
    const DynamicGraph round = DynamicGraph::FromParts(
        std::move(parts.adjacency), std::move(parts.degrees),
        parts.num_edges, parts.total_volume);
    ASSERT_EQ(dyn.NumNodes(), round.NumNodes());
    EXPECT_EQ(dyn.NumEdges(), round.NumEdges());
    EXPECT_EQ(dyn.TotalVolume(), round.TotalVolume());
    for (NodeId u = 0; u < dyn.NumNodes(); ++u) {
      EXPECT_EQ(dyn.Degree(u), round.Degree(u)) << "node " << u;
    }
    const Graph a = dyn.ToGraph();
    const Graph b = round.ToGraph();
    ASSERT_EQ(a.NumNodes(), b.NumNodes());
    for (NodeId u = 0; u < a.NumNodes(); ++u) {
      ASSERT_EQ(a.OutDegree(u), b.OutDegree(u)) << "node " << u;
      for (ArcIndex i = 0; i < a.OutDegree(u); ++i) {
        EXPECT_EQ(a.Heads(u)[i], b.Heads(u)[i]);
        EXPECT_EQ(a.Weights(u)[i], b.Weights(u)[i]);
      }
    }
  }
}

TEST(ShardingDegenerateTest, EveryTopologyRoutesAndMatchesUnsharded) {
  for (const DegenerateCase& c : DegenerateCases()) {
    SCOPED_TRACE(c.name);
    QueryEngine reference(c.graph);
    QueryEngine::Options options;
    options.sharding.shards = c.shards;
    QueryEngine engine(c.graph, options);  // Must never crash.
    const NodeId n = c.graph.NumNodes();
    if (n == 0) continue;  // No valid seeds to route.
    std::vector<Query> batch;
    for (QueryMethod method :
         {QueryMethod::kPprPush, QueryMethod::kPprDense,
          QueryMethod::kHeatKernel, QueryMethod::kNibble}) {
      for (NodeId s : {NodeId{0}, NodeId(n / 2), NodeId(n - 1)}) {
        Query q;
        q.method = method;
        q.seeds = {s};
        q.epsilon = 1e-4;
        q.steps = 8;
        q.t = 3.0;
        batch.push_back(std::move(q));
      }
    }
    ExpectBatchBitwise(reference.RunBatch(batch), engine.RunBatch(batch),
                       std::string(c.name) + " batch");
    // Mutation must route too (including the self-loop).
    reference.AddEdge(0, n - 1, 2.0);
    reference.AddEdge(0, 0, 1.0);
    engine.AddEdge(0, n - 1, 2.0);
    engine.AddEdge(0, 0, 1.0);
    ExpectBatchBitwise(reference.RunBatch(batch), engine.RunBatch(batch),
                       std::string(c.name) + " post-edit batch");
  }
}

TEST(ShardingDegenerateTest, PlanClampsAndFallsBackValidly) {
  for (const DegenerateCase& c : DegenerateCases()) {
    SCOPED_TRACE(c.name);
    const ShardPlan plan = BuildShardPlan(c.graph, c.shards);
    EXPECT_TRUE(ValidShardOwners(plan.owner, c.graph.NumNodes(),
                                 plan.shards));
    EXPECT_LE(plan.shards,
              std::max<NodeId>(c.graph.NumNodes(), 1));
    // Deterministic: the same inputs reproduce the identical plan.
    const ShardPlan again = BuildShardPlan(c.graph, c.shards);
    EXPECT_EQ(plan.owner, again.owner);
    EXPECT_EQ(plan.shards, again.shards);
  }
}

// —— Cache-key contract ———————————————————————————————————————————
//
// History: the key once carried the graph epoch (invalidate-the-world)
// and, after a recovery collision, the routing epoch too. Both are
// gone — entry validity lives on the entry (insert-epoch stamp +
// region fingerprint), and shard-count invariance means routing state
// never changes answer bits, so neither belongs in the key. This pins
// the key as a pure function of (method, parameters, seeds): identical
// across epochs, routing states, and shard counts, which is exactly
// what lets an entry survive an edit that misses its region.

TEST(ShardingTest, CanonicalKeyIsEpochAndRoutingFree) {
  Query q;
  q.seeds = {3, 1};
  const std::string key = QueryEngine::CanonicalKey(q);
  EXPECT_EQ(key, QueryEngine::CanonicalKey(q));
  EXPECT_EQ(key.find("epoch="), std::string::npos);
  EXPECT_EQ(key.find("route="), std::string::npos);

  // A sharded engine's cached pre-edit entry keeps serving after a
  // routing-epoch bump when the edit misses its region — impossible
  // under either of the removed key schemes, where any bump re-keyed
  // the whole cache.
  const Graph g = RingOfCliques(6, 15);
  QueryEngine::Options options;
  options.sharding.shards = 4;
  QueryEngine engine(g, options);
  ASSERT_NE(engine.shards(), nullptr);
  Query probe;
  // Clique-interior seed at a coarse ε: the push stays inside clique 0,
  // so the read region is that clique plus its one-hop ring neighbors —
  // leaving the rest of the ring genuinely untouched.
  probe.seeds = {2};
  probe.epsilon = 5e-2;
  const QueryResponse cold = engine.Run(probe);
  ASSERT_EQ(cold.source, QuerySource::kCold);

  // Brand-new cross-shard pairs far from clique 0 bump routing. The
  // region fingerprint is lossy (a far node can hash into the probe's
  // buckets and over-evict — safe, but it would demote this entry), so
  // try a handful of structurally-distant pairs: at least one must
  // leave the pre-bump entry served as an exact cache hit, bitwise.
  const std::vector<int>& owner = engine.shards()->plan().owner;
  const std::int64_t routing_before = engine.RoutingEpoch();
  bool retained = false;
  int attempts = 0;
  for (NodeId a = 50; a < g.NumNodes() && !retained && attempts < 6; ++a) {
    for (NodeId b = a + 1; b < g.NumNodes(); ++b) {
      if (owner[a] == owner[b] ||
          engine.graph().EdgeWeight(a, b) != 0.0) {
        continue;
      }
      ++attempts;
      engine.AddEdge(a, b, 1.0);
      const QueryResponse again = engine.Run(probe);
      if (again.source == QuerySource::kCached) {
        EXPECT_EQ(again.scores, cold.scores);
        retained = true;
      }
      break;  // One pair per left endpoint.
    }
  }
  ASSERT_GT(attempts, 0);
  ASSERT_GT(engine.RoutingEpoch(), routing_before);
  EXPECT_TRUE(retained)
      << "no distant edit left the pre-bump entry exactly servable";
}

TEST(ShardingTest, RoutingEpochBumpsOnNewHaloMembershipOnly) {
  const Graph g = RingOfCliques(4, 10);
  QueryEngine::Options options;
  options.sharding.shards = 2;
  QueryEngine engine(g, options);
  ASSERT_NE(engine.shards(), nullptr);
  const std::vector<int>& owner = engine.shards()->plan().owner;

  // A new cross-shard pair that is not yet adjacent — both endpoints
  // shard-interior, so this edge will be each node's ONLY arc into the
  // other shard (that makes the eventual full removal a guaranteed
  // halo shrink).
  const auto interior = [&](NodeId x) {
    for (const NodeId v : g.Heads(x)) {
      if (owner[v] != owner[x]) return false;
    }
    return true;
  };
  NodeId u = -1, v = -1;
  for (NodeId a = 0; a < g.NumNodes() && u < 0; ++a) {
    if (!interior(a)) continue;
    for (NodeId b = 0; b < g.NumNodes(); ++b) {
      if (owner[a] != owner[b] && !g.HasEdge(a, b) && interior(b)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_GE(u, 0);
  const std::int64_t before = engine.RoutingEpoch();
  engine.AddEdge(u, v, 1.0);
  const std::int64_t after = engine.RoutingEpoch();
  EXPECT_GT(after, before);
  // Re-adding the same edge changes weights, not membership.
  engine.AddEdge(u, v, 1.0);
  EXPECT_EQ(engine.RoutingEpoch(), after);
  // An intra-shard edge never touches routing.
  NodeId a = -1, b = -1;
  for (NodeId x = 1; x < g.NumNodes() && a < 0; ++x) {
    if (owner[x] == owner[0]) {
      a = 0;
      b = x;
    }
  }
  ASSERT_GE(a, 0);
  engine.AddEdge(a, b, 1.0);
  EXPECT_EQ(engine.RoutingEpoch(), after);

  // The delete side mirrors the insert side exactly. A partial
  // decrement (2.0 → 1.0) leaves membership alone...
  engine.RemoveEdge(u, v, 1.0);
  EXPECT_EQ(engine.RoutingEpoch(), after);
  // ...and the full removal empties both mirrored halo rows — the
  // replicas are dropped and routing bumps again (halo shrink).
  engine.RemoveEdge(u, v);
  EXPECT_GT(engine.RoutingEpoch(), after);
}

// —— Shard locality ———————————————————————————————————————————————
//
// The reason to shard at all: a strongly-local query seeded deep
// inside one shard must complete without ever escalating. (The
// bench/shard_serve driver measures the deep-vs-boundary local-work
// ratio on bigger graphs; this pins the qualitative contract.)

TEST(ShardingTest, DeepSeedNeverEscalates) {
  const Graph g = RingOfCliques(6, 15);
  QueryEngine::Options options;
  options.sharding.shards = 4;
  options.enable_cache = false;
  QueryEngine engine(g, options);
  ASSERT_NE(engine.shards(), nullptr);
  const std::vector<int>& owner = engine.shards()->plan().owner;

  // Deep seed: a node whose whole one-hop neighborhood it owns with it.
  NodeId deep = -1;
  for (NodeId u = 0; u < g.NumNodes() && deep < 0; ++u) {
    bool interior = g.OutDegree(u) > 0;
    for (const NodeId nb : g.Heads(u)) {
      interior = interior && owner[nb] == owner[u];
    }
    if (interior) deep = u;
  }
  ASSERT_GE(deep, 0) << "partition left no interior node";

  engine.mutable_shards()->ResetCounters();
  Query q;
  q.method = QueryMethod::kPprPush;
  q.seeds = {deep};
  q.epsilon = 5e-2;  // Shallow diffusion: only the seed row is pushed.
  engine.Run(q);
  const ShardSet::CounterTotals totals = engine.shards()->Totals();
  EXPECT_GT(totals.local_rows, 0);
  EXPECT_EQ(totals.escalations, 0)
      << "a clique-interior push should never leave its shard";
}

// A sharded engine serves heat-kernel and Nibble from its per-shard
// frozen slices, so a batch of only those methods after an edit freezes
// the slices once and never builds the global CSR — and still answers
// the unsharded engine's bits. A dense query then does build it, which
// shows the global-freeze counter is live.
TEST(ShardingTest, CommunityBatchSkipsTheGlobalFreeze) {
  const Graph g = ErGraph();
  const NodeId n = g.NumNodes();
  std::vector<Query> batch;
  for (QueryMethod method : {QueryMethod::kHeatKernel, QueryMethod::kNibble}) {
    for (NodeId s : {NodeId{1}, n / 2, n - 1}) {
      Query q;
      q.method = method;
      q.seeds = {s};
      q.epsilon = 1e-4;
      q.t = 5.0;
      q.delta = 1e-4;
      q.steps = 15;
      batch.push_back(std::move(q));
    }
  }
  QueryEngine::Options base;
  base.enable_cache = false;
  QueryEngine reference(g, base);
  QueryEngine::Options options = base;
  options.sharding.shards = 4;
  QueryEngine engine(g, options);
  ASSERT_NE(engine.shards(), nullptr);
  reference.AddEdge(0, n / 2, 1.0);
  engine.AddEdge(0, n / 2, 1.0);
  const std::vector<QueryResponse> want = reference.RunBatch(batch);

  MetricsRegistry& registry = MetricsRegistry::Get();
  const Counter* engine_freezes =
      registry.FindOrCreateCounter("service.engine.freezes");
  const Counter* shard_freezes =
      registry.FindOrCreateCounter("service.shard.freezes");
  ImpregEnableMetrics(true);
  const std::int64_t engine_before = engine_freezes->Value();
  const std::int64_t shard_before = shard_freezes->Value();
  const std::vector<QueryResponse> got = engine.RunBatch(batch);
  const std::int64_t engine_after = engine_freezes->Value();
  const std::int64_t shard_after = shard_freezes->Value();
  Query dense;
  dense.method = QueryMethod::kPprDense;
  dense.seeds = {1};
  engine.Run(dense);
  const std::int64_t engine_after_dense = engine_freezes->Value();
  ImpregEnableMetrics(false);

  EXPECT_EQ(engine_after - engine_before, 0);
  EXPECT_EQ(shard_after - shard_before, 1);
  EXPECT_EQ(engine_after_dense - engine_after, 1);
  ExpectBatchBitwise(want, got, "k=4 heat-kernel/Nibble batch");
}

// —— Shard manifest ————————————————————————————————————————————————

ShardManifest SampleManifest() {
  ShardManifest m;
  m.shards = 3;
  m.partition_seed = 0x5eedULL;
  m.num_nodes = 6;
  m.routing_epoch = 11;
  m.shard_epochs = {4, 4, 4};
  m.owner = {0, 0, 1, 1, 2, 2};
  return m;
}

TEST(ShardManifestTest, RoundTripsAllFields) {
  const fs::path dir =
      fs::temp_directory_path() / "impreg_shard_manifest_rt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = ShardManifestPath(dir.string());
  const ShardManifest m = SampleManifest();
  ASSERT_TRUE(WriteShardManifest(path, m));
  ShardManifest loaded;
  std::string detail;
  ASSERT_TRUE(LoadShardManifest(path, &loaded, &detail)) << detail;
  EXPECT_EQ(loaded.shards, m.shards);
  EXPECT_EQ(loaded.partition_seed, m.partition_seed);
  EXPECT_EQ(loaded.num_nodes, m.num_nodes);
  EXPECT_EQ(loaded.routing_epoch, m.routing_epoch);
  EXPECT_EQ(loaded.shard_epochs, m.shard_epochs);
  EXPECT_EQ(loaded.owner, m.owner);
  fs::remove_all(dir);
}

TEST(ShardManifestTest, RejectsCorruptionTearingAndBadShapes) {
  const fs::path dir =
      fs::temp_directory_path() / "impreg_shard_manifest_bad";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = ShardManifestPath(dir.string());
  ShardManifest loaded;
  std::string detail;

  // Missing file: rejected with the canonical detail (the CLI treats
  // this one as the silent first-boot case).
  EXPECT_FALSE(LoadShardManifest(path, &loaded, &detail));
  EXPECT_EQ(detail, "manifest missing or unreadable");

  // A flipped payload byte fails the CRC.
  ASSERT_TRUE(WriteShardManifest(path, SampleManifest()));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    f.put('#');
  }
  EXPECT_FALSE(LoadShardManifest(path, &loaded, &detail));

  // Disagreeing per-shard epoch stamps = torn multi-artifact update:
  // the writer must refuse to publish it at all.
  ShardManifest torn = SampleManifest();
  torn.shard_epochs = {4, 5, 4};
  EXPECT_FALSE(WriteShardManifest(path, torn));

  // A malformed owner array (shard 2 unpopulated) is refused too.
  ShardManifest gap = SampleManifest();
  gap.owner = {0, 0, 1, 1, 1, 1};
  EXPECT_FALSE(WriteShardManifest(path, gap));
  fs::remove_all(dir);
}

TEST(ShardingTest, ManifestPinnedPlacementServesIdentically) {
  const Graph g = ErGraph();
  QueryEngine::Options options;
  options.sharding.shards = 4;
  QueryEngine computed(g, options);
  ASSERT_NE(computed.shards(), nullptr);

  // Feed the computed placement back through Options::sharding.owner —
  // the manifest-recovery path — and serve the same batch.
  QueryEngine::Options pinned = options;
  pinned.sharding.owner = computed.shards()->plan().owner;
  QueryEngine restored(g, pinned);
  ASSERT_NE(restored.shards(), nullptr);
  EXPECT_EQ(restored.shards()->plan().owner, computed.shards()->plan().owner);
  const std::vector<Query> batch = MatrixBatch(g.NumNodes());
  ExpectBatchBitwise(computed.RunBatch(batch), restored.RunBatch(batch),
                     "manifest-pinned placement");
}

}  // namespace
}  // namespace impreg
