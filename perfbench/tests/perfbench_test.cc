// Tests of the benchmark's own machinery: request-stream replay, the
// span and percentile arithmetic, and the verification references.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "server.h"
#include "spans.h"
#include "verify.h"
#include "workload.h"

namespace impreg::perfbench {
namespace {

std::vector<std::string> Stream(const WorkloadSpec& spec, std::uint64_t seed,
                                NodeId n, int batches) {
  RequestStream stream(spec, seed, n);
  std::vector<std::string> all;
  std::vector<std::string> lines;
  for (int b = 0; b < batches; ++b) {
    stream.NextBatch(&lines);
    all.insert(all.end(), lines.begin(), lines.end());
  }
  return all;
}

TEST(RequestStreamTest, SameSeedReplaysByteIdenticalStream) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const auto a = Stream(spec, 7, 5000, 50);
    const auto b = Stream(spec, 7, 5000, 50);
    EXPECT_EQ(a, b) << spec.name;
    EXPECT_NE(a, Stream(spec, 8, 5000, 50)) << spec.name;
  }
}

TEST(RequestStreamTest, PrefixDoesNotDependOnHowFarTheStreamRuns) {
  const WorkloadSpec& spec = *FindWorkload("community-writes");
  const auto shorter = Stream(spec, 3, 5000, 10);
  const auto longer = Stream(spec, 3, 5000, 40);
  ASSERT_GT(longer.size(), shorter.size());
  EXPECT_TRUE(std::equal(shorter.begin(), shorter.end(), longer.begin()));
}

TEST(RequestStreamTest, WritesWorkloadMixesEditsAndRemovals) {
  const WorkloadSpec& spec = *FindWorkload("community-writes");
  int adds = 0, removes = 0, queries = 0;
  for (const std::string& line : Stream(spec, 1, 5000, 400)) {
    if (line.find("\"add-edge\"") != std::string::npos) {
      ++adds;
    } else if (line.find("\"remove-edge\"") != std::string::npos) {
      ++removes;
    } else {
      ++queries;
    }
  }
  const double edits = adds + removes;
  EXPECT_DOUBLE_EQ(edits / (edits + queries), 1.0 / spec.edit_every);
  EXPECT_GT(removes, 0);
  EXPECT_LT(removes, adds);
}

TEST(RequestStreamTest, GraphIsFixed) {
  const WorkloadSpec& spec = *FindWorkload("hot-push-small");
  const Graph a = BuildGraph(spec);
  const Graph b = BuildGraph(spec);
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  EXPECT_EQ(a.TotalVolume(), b.TotalVolume());
}

TEST(SpanMathTest, QuantileInterpolatesBetweenOrderStatistics) {
  std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 5.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 9.1);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile({4.0}, 0.9), 4.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(SpanMathTest, SelfTimeSubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> spans = {
      {"batch", 0, 100, -1, 0},
      {"wire.parse", 10, 30, 0, 0},
      {"engine.run_batch", 20, 50, 0, 0},  // Overlaps the parse span.
      {"wire.serialize", 90, 120, 0, 0},   // Runs past the parent.
      {"durability.wal_append", 25, 28, 2, 0},
  };
  const std::vector<double> self = SelfTimesNs(spans);
  // Children cover [10, 50) and [90, 100): 50 of the parent's 100 ns.
  EXPECT_DOUBLE_EQ(self[0], 50.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 27.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);

  const auto layers = LayerTimes(spans);
  EXPECT_EQ(layers.at("batch").count, 1);
  EXPECT_DOUBLE_EQ(layers.at("batch").total_ns, 100.0);
  EXPECT_DOUBLE_EQ(layers.at("engine.run_batch").self_ns, 27.0);
}

TEST(SpanMathTest, DisabledRecorderRecordsNothing) {
  SpanRecorder off(false);
  const int id = off.Begin("batch", -1, 0);
  off.End(id);
  EXPECT_EQ(id, -1);
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder on(true);
  const int parent = on.Begin("batch", -1, 3);
  const int child = on.Begin("wire.parse", parent, 3);
  on.End(child);
  on.End(parent);
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, parent);
  EXPECT_LE(on.spans()[0].start_ns, on.spans()[1].start_ns);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[1].end_ns);
}

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = BuildGraph(*FindWorkload("hot-push-small"));
  }

  QueryResponse Serve(const Query& query) {
    QueryEngine engine(graph_);
    return engine.Run(query);
  }

  Graph graph_;
};

TEST_F(VerifyTest, ServedAnswersMatchTheirReferences) {
  Query push;
  push.method = QueryMethod::kPprPush;
  push.seeds = {17};
  push.epsilon = 1e-4;
  Query dense = push;
  dense.method = QueryMethod::kPprDense;
  dense.tolerance = 1e-8;
  Query hk = push;
  hk.method = QueryMethod::kHeatKernel;
  hk.t = 5.0;
  hk.delta = 1e-4;
  Query nibble = push;
  nibble.method = QueryMethod::kNibble;
  nibble.steps = 20;
  for (const Query& q : {push, dense, hk, nibble}) {
    EXPECT_EQ(CheckAnswer(q, Serve(q), graph_), "")
        << QueryMethodName(q.method);
  }
}

TEST_F(VerifyTest, OneCorruptedAnswerFailsVerification) {
  Query dense;
  dense.method = QueryMethod::kPprDense;
  dense.seeds = {3};
  dense.tolerance = 1e-8;
  QueryResponse answer = Serve(dense);
  ASSERT_EQ(CheckAnswer(dense, answer, graph_), "");
  // One ulp at one node is enough for a bitwise reference.
  answer.scores[3] = std::nextafter(answer.scores[3], 1.0);
  EXPECT_NE(CheckAnswer(dense, answer, graph_), "");

  Query push;
  push.seeds = {3};
  push.epsilon = 1e-4;
  QueryResponse pushed = Serve(push);
  ASSERT_EQ(CheckAnswer(push, pushed, graph_), "");
  // Past the per-node push guarantee ε·d(u) at one node.
  pushed.scores[0] += 2.0 * push.epsilon * graph_.Degree(0) + 1e-9;
  EXPECT_NE(CheckAnswer(push, pushed, graph_), "");

  Query nibble = push;
  nibble.method = QueryMethod::kNibble;
  nibble.steps = 20;
  QueryResponse nib = Serve(nibble);
  ASSERT_FALSE(nib.set.empty());
  nib.set.pop_back();
  EXPECT_NE(CheckAnswer(nibble, nib, graph_), "");
}

// What serving a prefix of a workload's stream must repeat exactly at
// any pool size: the response digest, provenance, work and support,
// frozen rebuilds, the cache's statistics, and the registry's counters.
// The pool's own counters split by thread count (a one-thread pool runs
// every region inline), so only their region total is kept.
std::map<std::string, std::int64_t> ServeCounters(const char* workload,
                                                  int threads, int batches) {
  ScopedNumThreads scoped(threads);
  const WorkloadSpec& spec = *FindWorkload(workload);
  // Relative to the checkout root, where run.py --self-test runs this.
  const std::string dir = ".bench_build/perfbench-test-state";
  Server server(spec, dir);
  EXPECT_TRUE(server.ok()) << server.error();
  RequestStream stream(spec, 9, server.num_nodes());
  SpanRecorder spans(false);
  std::vector<std::string> lines;
  MetricsRegistry::Get().Reset();
  ImpregEnableMetrics(true);
  for (int b = 0; b < batches; ++b) {
    stream.NextBatch(&lines);
    server.ServeBatch(lines, spans);
  }
  ImpregEnableMetrics(false);
  const ServeStats& s = server.stats();
  EXPECT_EQ(s.failed(), 0) << workload;
  double recover_ms = 0.0;
  EXPECT_EQ(server.CheckRecovery(&recover_ms), "") << workload;

  const ResultCacheStats& c = server.engine().cache().stats();
  std::map<std::string, std::int64_t> out = {
      {"digest", static_cast<std::int64_t>(s.digest)},
      {"usable", s.usable},
      {"cold", s.cold},
      {"warm", s.warm},
      {"cached", s.cached},
      {"work", s.work},
      {"support", s.support},
      {"response_bytes", s.response_bytes},
      {"frozen_rebuilds", s.frozen_rebuilds},
      {"snapshots", s.snapshots},
      {"cache.hits", c.hits},
      {"cache.misses", c.misses},
      {"cache.warm_hits", c.warm_hits},
      {"cache.insertions", c.insertions},
      {"cache.evictions", c.evictions},
      {"cache.region_retained", c.region_retained},
      {"cache.region_demoted", c.region_demoted},
      {"cache.region_evicted", c.region_evicted},
  };
  for (const auto& counter : MetricsRegistry::Get().Snapshot().counters) {
    if (counter.name == "parallel.regions" ||
        counter.name == "parallel.serial_regions") {
      out["parallel.regions+serial_regions"] += counter.value;
    } else if (counter.name.rfind("parallel.", 0) != 0) {
      out[counter.name] = counter.value;
    }
  }
  return out;
}

TEST(ServerTest, CountersRepeatAcrossRunsAndThreadCounts) {
  // Few batches of each: enough to fill and hit the cache, dedup, and
  // (community-writes) rebuild after edits, publish a snapshot and
  // recover from the WAL to the live graph.
  const std::pair<const char*, int> prefixes[] = {
      {"local-push-large", 8},
      {"hot-push-small", 64},
      {"community-writes", 40},
      {"dense-ppr", 8},
  };
  for (const auto& [workload, batches] : prefixes) {
    const auto one = ServeCounters(workload, 1, batches);
    EXPECT_EQ(one, ServeCounters(workload, 1, batches)) << workload;
    EXPECT_EQ(one, ServeCounters(workload, 4, batches)) << workload;
    EXPECT_NE(one.at("digest"), static_cast<std::int64_t>(kHashSeed))
        << workload;
    EXPECT_GT(one.at("parallel.regions+serial_regions"), 0) << workload;
  }
  const auto writes = ServeCounters("community-writes", 2, 40);
  EXPECT_GT(writes.at("snapshots"), 0);
  EXPECT_GT(writes.at("frozen_rebuilds"), 0);
}

}  // namespace
}  // namespace impreg::perfbench
