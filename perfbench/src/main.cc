// The serving benchmark's harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Serves one workload through the public calls `impreg_cli serve`
// makes, in a closed loop with no think time, for --seconds of timed
// wall clock; then replays the same request stream untimed on a fresh
// engine to verify sampled answers against independent references and
// to check the timed run's response digest. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Exits 1 when any check fails and 2 on bad usage.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <vector>

#include "core/metrics.h"
#include "core/parallel.h"
#include "server.h"
#include "spans.h"
#include "verify.h"
#include "workload.h"

namespace impreg::perfbench {
namespace {

// The engine's pool size. The end-to-end run (--trace 0) serves with
// one thread, so the serving thread does all the work and its CPU time
// is the run's: on a shared 4-vCPU host, CPU steal stalls every barrier
// of a 4-thread pool, and wall-clock numbers swung 2x between runs
// (perfbench/README.md). The per-layer run (--trace 1), whose metrics
// have no bound, serves with the full pool of nproc = 4 threads, as
// `serve` does by default, so core/parallel's pool is measured. Both
// serve the same bits.
constexpr int kUntracedThreads = 1;
constexpr int kTracedThreads = 4;
constexpr int kReferenceThreads = 4;
// setup_s is the median over set-ups taken in three rounds spread over
// the run: before the timed phase, before verification and after it.
// Host speed drifts over seconds: on a shared 4-vCPU host, the medians
// of 200 back-to-back set-ups of hot-push-small lay about 20% apart
// between processes, of 200 in three rounds 10 s apart about 8%. A
// round repeats set-up until it has at least this many, taking at
// least this long.
constexpr int kSetupsPerRound = 2;
constexpr double kSetupRoundSeconds = 0.35;
// Batches generated ahead of the clock at a time.
constexpr int kChunkBatches = 64;
constexpr double kL3Mb = 300.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

// Spans and WAL state, relative to the checkout root the run starts in.
constexpr char kOutDir[] = ".bench_build/perfbench-out";
constexpr char kStateDir[] = ".bench_build/perfbench-out/state";

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double CpuSeconds(const rusage& usage) {
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double CachePayloadMb(const ResultCache& cache) {
  double bytes = 0.0;
  for (const ResultCache::ExportedEntry& e : cache.ExportEntries()) {
    const CachedResult& r = *e.result;
    bytes += static_cast<double>(r.scores.size() + r.p.size() + r.r.size()) *
                 sizeof(double) +
             static_cast<double>(r.set.size()) * sizeof(NodeId);
  }
  return bytes / (1024.0 * 1024.0);
}

double GraphMb(const DynamicGraph& g) {
  // The CSR image the solvers freeze: offsets, heads, weights, degrees.
  const double arcs = 2.0 * static_cast<double>(g.NumEdges());
  const double n = static_cast<double>(g.NumNodes());
  return ((n + 1.0) * 8.0 + arcs * 12.0 + n * 8.0) / (1024.0 * 1024.0);
}

std::map<std::string, double> RegistryValues() {
  std::map<std::string, double> out;
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  for (const auto& c : snap.counters) out[c.name] = static_cast<double>(c.value);
  for (const auto& h : snap.histograms) out[h.name + ".sum"] = h.sum;
  return out;
}

double Get(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

// One timed serving phase on a fresh server.
struct Phase {
  /// Everything served, warm-up included (digest and batch count), and
  /// the timed part alone.
  ServeStats total;
  ServeStats stats;
  double wall_s = 0.0;
  std::vector<double> batch_ms;
  /// CPU time of the serving thread per timed batch, and its sum.
  std::vector<double> batch_cpu_ms;
  double serve_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Process CPU time over the timed clock (all threads).
  double cpu_s = 0.0;
  std::vector<Span> spans;
  std::map<std::string, double> registry;
  std::string recovery_error;
  double recover_ms = 0.0;
};

bool RunPhase(const WorkloadSpec& spec, const Args& args, double seconds,
              bool traced, std::vector<Elapsed>* setups, Phase* phase,
              std::string* error) {
  Server server(spec, kStateDir);
  if (!server.ok()) {
    *error = server.error();
    return false;
  }
  setups->push_back(server.setup_time());
  RequestStream stream(spec, args.seed, server.num_nodes());
  SpanRecorder untraced(false);
  std::vector<std::string> lines;
  for (int b = 0; b < spec.warmup_batches; ++b) {
    stream.NextBatch(&lines);
    server.ServeBatch(lines, untraced);
  }
  const ServeStats warm = server.stats();
  SpanRecorder spans(traced);
  if (traced) {
    MetricsRegistry::Get().Reset();
    ImpregEnableMetrics(true);
  }
  std::vector<std::vector<std::string>> chunk(kChunkBatches);
  std::size_t next = chunk.size();
  const std::int64_t budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t generation_ns = 0;
  rusage ru0{};
  getrusage(RUSAGE_SELF, &ru0);
  const std::int64_t start = NowNs();
  while (NowNs() - start - generation_ns < budget_ns) {
    if (next == chunk.size()) {
      const std::int64_t g0 = NowNs();
      for (auto& batch : chunk) stream.NextBatch(&batch);
      generation_ns += NowNs() - g0;
      next = 0;
    }
    const Elapsed batch = server.ServeBatch(chunk[next++], spans);
    phase->batch_ms.push_back(batch.wall_s * 1e3);
    phase->batch_cpu_ms.push_back(batch.cpu_s * 1e3);
    phase->serve_cpu_s += batch.cpu_s;
  }
  phase->wall_s =
      static_cast<double>(NowNs() - start - generation_ns) * 1e-9;
  rusage ru1{};
  getrusage(RUSAGE_SELF, &ru1);
  phase->cpu_s = CpuSeconds(ru1) - CpuSeconds(ru0);
  if (traced) {
    ImpregEnableMetrics(false);
    phase->registry = RegistryValues();
  }
  phase->peak_rss_mb = PeakRssMb();
  phase->total = server.stats();
  phase->stats = phase->total.Since(warm);
  phase->spans = spans.spans();
  phase->recovery_error = server.CheckRecovery(&phase->recover_ms);
  return true;
}

// The untimed verification replay.
struct Verification {
  /// Digest after each batch count (index 0 = nothing served).
  std::vector<std::uint64_t> digests;
  std::int64_t checked = 0;
  std::int64_t mismatches = 0;
  std::string first_mismatch;
  /// Deterministic counters over the first spec.counter_batches.
  ServeStats prefix;
  ResultCacheStats cache;
  double cache_payload_mb = 0.0;
  double graph_mb = 0.0;
  std::map<std::string, double> registry;
  NodeId num_nodes = 0;
};

bool Verify(const WorkloadSpec& spec, const Args& args,
            std::int64_t timed_batches, bool count_registry,
            std::vector<Elapsed>* setups, Verification* v,
            std::string* error) {
  Server server(spec, kStateDir);
  if (!server.ok()) {
    *error = server.error();
    return false;
  }
  setups->push_back(server.setup_time());
  v->num_nodes = server.num_nodes();
  RequestStream stream(spec, args.seed, server.num_nodes());
  SpanRecorder spans(false);
  FrozenGraphs frozen;

  // Evenly spaced sampled batches over the timed run's length.
  std::vector<std::int64_t> sampled;
  for (int k = 0; k < spec.verify_batches; ++k) {
    sampled.push_back(timed_batches * k / spec.verify_batches);
  }
  int checks_left = 0;
  bool seen[3] = {false, false, false};
  const AnswerHook hook = [&](const QueryRequest& request,
                              const QueryResponse& response,
                              const DynamicGraph::SnapshotView& snap) {
    const int kind = static_cast<int>(response.source);
    if (checks_left == 0 || seen[kind] || !StatusIsUsable(response.status)) {
      return;
    }
    seen[kind] = true;
    --checks_left;
    // References stay out of the registry's counts, and use every core:
    // they are not timed.
    ImpregEnableMetrics(false);
    std::string why;
    {
      ScopedNumThreads all_cores(kReferenceThreads);
      why = CheckAnswer(request.query, response, frozen.At(snap));
    }
    ImpregEnableMetrics(count_registry);
    ++v->checked;
    if (!why.empty()) {
      if (v->mismatches++ == 0) {
        v->first_mismatch = "batch " + std::to_string(server.stats().batches) +
                            " id " + request.id + ": " + why;
      }
    }
  };

  if (count_registry) {
    MetricsRegistry::Get().Reset();
    ImpregEnableMetrics(true);
  }
  const std::int64_t total =
      std::max<std::int64_t>(timed_batches, spec.counter_batches);
  std::vector<std::string> lines;
  v->digests.push_back(server.stats().digest);
  for (std::int64_t b = 0; b < total; ++b) {
    stream.NextBatch(&lines);
    const bool sample =
        std::find(sampled.begin(), sampled.end(), b) != sampled.end();
    checks_left = sample ? spec.verify_per_batch : 0;
    seen[0] = seen[1] = seen[2] = false;
    server.ServeBatch(lines, spans, sample ? hook : nullptr);
    v->digests.push_back(server.stats().digest);
    if (b + 1 == spec.counter_batches) {
      v->prefix = server.stats();
      v->cache = server.engine().cache().stats();
      v->cache_payload_mb = CachePayloadMb(server.engine().cache());
      v->graph_mb = GraphMb(server.engine().graph());
      if (count_registry) v->registry = RegistryValues();
    }
  }
  ImpregEnableMetrics(false);
  return true;
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintTable(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::vector<Metric> LayerMetrics(const Phase& traced,
                                 const Phase& untraced,
                                 const Verification& v) {
  const auto layers = LayerTimes(traced.spans);
  const auto layer = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  const auto mean_ns = [](const LayerTime& t) {
    return t.count == 0 ? 0.0 : t.total_ns / static_cast<double>(t.count);
  };
  std::vector<double> run_ms;
  for (const Span& s : traced.spans) {
    if (std::strcmp(s.name, "engine.run_batch") == 0) {
      run_ms.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  const LayerTime parse = layer("wire.parse");
  const LayerTime serialize = layer("wire.serialize");
  const LayerTime run = layer("engine.run_batch");
  const LayerTime edit = layer("edit");
  const LayerTime apply = layer("engine.edit");
  const LayerTime wal = layer("durability.wal_append");
  const LayerTime snapshot = layer("durability.snapshot");
  const LayerTime batch = layer("batch");

  const ServeStats& p = v.prefix;
  const double computed = static_cast<double>(p.cold + p.warm);
  const auto per = [](double x, double n) { return n > 0.0 ? x / n : 0.0; };
  const auto& reg = traced.registry;
  const double solve_ms = Get(reg, "service.query.latency_ns.sum") * 1e-6;
  double participant_busy_ns = 0.0;
  for (const auto& [name, value] : reg) {
    if (name.rfind("parallel.participant.", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, ".busy_ns") == 0) {
      participant_busy_ns += value;
    }
  }
  const double wall_ns = traced.wall_s * 1e9;
  const double layer_busy_ns = parse.total_ns + serialize.total_ns +
                               run.total_ns + wal.total_ns + apply.total_ns +
                               snapshot.total_ns;
  const double traced_qps =
      per(static_cast<double>(traced.stats.usable), traced.wall_s);
  const double untraced_qps =
      per(static_cast<double>(untraced.stats.usable), untraced.wall_s);
  const double traced_computed =
      static_cast<double>(traced.stats.cold + traced.stats.warm);
  const double lookups = static_cast<double>(v.cache.hits + v.cache.misses);
  const auto& pre = v.registry;
  const int over_l3 = (v.graph_mb > kL3Mb) + (v.cache_payload_mb > kL3Mb);

  return {
      {"wire.parse_us", mean_ns(parse) * 1e-3, "us"},
      {"wire.serialize_us", mean_ns(serialize) * 1e-3, "us"},
      {"wire.response_bytes",
       per(static_cast<double>(p.response_bytes), static_cast<double>(p.queries)),
       "bytes"},
      {"engine.run_batch_ms", Quantile(run_ms, 0.5), "ms"},
      {"engine.run_batch_total_ms", run.total_ns * 1e-6, "ms"},
      {"engine.queries_per_batch",
       per(static_cast<double>(p.queries), static_cast<double>(p.run_batch_calls)),
       "count"},
      {"engine.batches", static_cast<double>(p.run_batch_calls), "count"},
      {"engine.deduped", Get(pre, "service.engine.deduped"), "count"},
      {"engine.dedup_ratio",
       per(Get(pre, "service.engine.deduped"), static_cast<double>(p.queries)),
       "ratio"},
      {"engine.solve_busy_ms", solve_ms, "ms"},
      {"engine.dense_group_ms",
       Get(reg, "service.dense_group.latency_ns.sum") * 1e-6, "ms"},
      {"engine.frozen_rebuilds", static_cast<double>(p.frozen_rebuilds),
       "count"},
      {"engine.edit_us", mean_ns(apply) * 1e-3, "us"},
      {"engine.cold", static_cast<double>(p.cold), "count"},
      {"engine.warm", static_cast<double>(p.warm), "count"},
      {"engine.cached", static_cast<double>(p.cached), "count"},
      {"admission.exact", Get(pre, "service.admission.exact"), "count"},
      {"admission.degraded", Get(pre, "service.admission.degraded"), "count"},
      {"admission.shed", Get(pre, "service.admission.shed"), "count"},
      {"cache.hit_ratio", per(static_cast<double>(v.cache.hits), lookups),
       "ratio"},
      {"cache.warm_hits", static_cast<double>(v.cache.warm_hits), "count"},
      {"cache.insertions", static_cast<double>(v.cache.insertions), "count"},
      {"cache.evictions", static_cast<double>(v.cache.evictions), "count"},
      {"cache.region_retained", static_cast<double>(v.cache.region_retained),
       "count"},
      {"cache.region_demoted", static_cast<double>(v.cache.region_demoted),
       "count"},
      {"cache.region_evicted", static_cast<double>(v.cache.region_evicted),
       "count"},
      {"cache.payload_mb", v.cache_payload_mb, "MB"},
      {"solver.work_per_query", per(static_cast<double>(p.work), computed),
       "count"},
      {"solver.support_per_query",
       per(static_cast<double>(p.support), computed), "count"},
      {"solver.us_per_query", per(solve_ms * 1e3, traced_computed), "us"},
      {"solver.push.pushes", Get(pre, "solver.incremental_ppr.pushes"),
       "count"},
      {"solver.hkrelax.arc_work", Get(pre, "solver.hkrelax.arc_work"),
       "count"},
      {"solver.nibble.arc_work", Get(pre, "solver.nibble.arc_work"), "count"},
      {"parallel.regions",
       Get(pre, "parallel.regions") + Get(pre, "parallel.serial_regions"),
       "count"},
      {"parallel.busy_share",
       per(participant_busy_ns,
           static_cast<double>(ImpregNumThreads()) * run.total_ns),
       "ratio"},
      {"durability.wal_append_us", mean_ns(wal) * 1e-3, "us"},
      {"durability.snapshot_ms", mean_ns(snapshot) * 1e-6, "ms"},
      {"durability.recover_ms", traced.recover_ms, "ms"},
      {"self.batch_ms", batch.self_ns * 1e-6, "ms"},
      {"self.wire.parse_ms", parse.self_ns * 1e-6, "ms"},
      {"self.engine.run_batch_ms", run.self_ns * 1e-6, "ms"},
      {"self.wire.serialize_ms", serialize.self_ns * 1e-6, "ms"},
      {"self.edit_ms", edit.self_ns * 1e-6, "ms"},
      {"self.engine.edit_ms", apply.self_ns * 1e-6, "ms"},
      {"self.durability.wal_append_ms", wal.self_ns * 1e-6, "ms"},
      {"self.durability.snapshot_ms", snapshot.self_ns * 1e-6, "ms"},
      {"harness.overhead_share", per(wall_ns - layer_busy_ns, wall_ns),
       "ratio"},
      {"harness.cpu_cores", per(traced.cpu_s, traced.wall_s), "cores"},
      {"trace.overhead_share", untraced_qps > 0.0 ? 1.0 - traced_qps / untraced_qps : 0.0,
       "ratio"},
      {"trace.throughput_qps", traced_qps, "queries/s"},
      {"workingset.graph_mb", v.graph_mb, "MB"},
      {"workingset.over_l3", static_cast<double>(over_l3), "count"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  ImpregSetNumThreads(trace ? kTracedThreads : kUntracedThreads);
  ImpregEnableMetrics(false);
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);

  std::vector<Elapsed> setups;
  std::string error;
  Phase untraced;
  Phase traced;
  const auto setup_round = [&]() {
    double round_s = 0.0;
    for (int i = 0; !trace && (i < kSetupsPerRound ||
                               round_s < kSetupRoundSeconds); ++i) {
      Server extra(*spec, kStateDir);
      if (!extra.ok()) {
        error = extra.error();
        return false;
      }
      setups.push_back(extra.setup_time());
      round_s += extra.setup_time().wall_s;
    }
    return true;
  };
  if (!setup_round()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const double untraced_s = trace ? args.seconds / 2.0 : args.seconds;
  if (!RunPhase(*spec, args, untraced_s, false, &setups, &untraced, &error) ||
      (trace && !RunPhase(*spec, args, args.seconds / 2.0, true, &setups,
                          &traced, &error))) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  const std::int64_t timed_batches =
      std::max(untraced.total.batches, traced.total.batches);
  Verification v;
  if (!setup_round() ||
      !Verify(*spec, args, timed_batches, trace, &setups, &v, &error) ||
      !setup_round()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }

  std::vector<std::string> problems;
  if (v.mismatches > 0) {
    problems.push_back("verification: " + std::to_string(v.mismatches) +
                       " of " + std::to_string(v.checked) +
                       " answers differ; first: " + v.first_mismatch);
  }
  for (const Phase* phase : {&untraced, &traced}) {
    if (phase->total.batches == 0) continue;
    if (phase->total.digest != v.digests[phase->total.batches]) {
      problems.push_back("digest: the timed run's " +
                         std::to_string(phase->total.batches) +
                         " batches differ from the verified replay");
    }
    if (!phase->recovery_error.empty()) {
      problems.push_back("recovery: " + phase->recovery_error);
    }
    if (phase->total.snapshot_failures > 0) {
      problems.push_back("durability: a snapshot publish failed");
    }
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }

  const std::int64_t attempted = untraced.stats.lines + traced.stats.lines;
  const std::int64_t failed = untraced.stats.failed() + traced.stats.failed();
  std::printf("workload %s seed %llu threads %d nodes %lld: %lld batches, "
              "%lld queries, %lld edits timed; %lld answers verified\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              ImpregNumThreads(),
              static_cast<long long>(v.num_nodes),
              static_cast<long long>(untraced.stats.batches),
              static_cast<long long>(untraced.stats.queries),
              static_cast<long long>(untraced.stats.edits),
              static_cast<long long>(v.checked));
  std::printf("failed_share %.6g ratio (%lld failed of %lld attempted)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  std::printf("working sets over the %.0f MB L3: graph %.1f MB%s, cache "
              "payloads %.1f MB%s\n",
              kL3Mb, v.graph_mb, v.graph_mb > kL3Mb ? " (exceeds)" : "",
              v.cache_payload_mb,
              v.cache_payload_mb > kL3Mb ? " (exceeds)" : "");

  std::vector<Metric> metrics;
  if (!trace) {
    // The bounded metrics count CPU time of the serving thread, which
    // does all the work on a one-thread pool: time the host gives to
    // other guests (steal) or the scheduler to other processes is not in
    // them. The same figures by the clock are printed beside them.
    std::vector<double> setup_wall;
    std::vector<double> setup_cpu;
    for (const Elapsed& e : setups) {
      setup_wall.push_back(e.wall_s);
      setup_cpu.push_back(e.cpu_s);
    }
    const double usable = static_cast<double>(untraced.stats.usable);
    std::printf("by the clock: throughput %.1f queries/s, batch p50 %.4g ms, "
                "p90 %.4g ms, set-up %.4g s; %lld batches, %.2f cores "
                "busy\n",
                usable / untraced.wall_s, Quantile(untraced.batch_ms, 0.5),
                Quantile(untraced.batch_ms, 0.9), Median(setup_wall),
                static_cast<long long>(untraced.stats.batches),
                untraced.cpu_s / untraced.wall_s);
    metrics = {
        {"throughput_cpu_qps", usable / untraced.serve_cpu_s,
         "queries/cpu-s"},
        {"batch_cpu_p50_ms", Quantile(untraced.batch_cpu_ms, 0.5), "ms"},
        {"batch_cpu_p90_ms", Quantile(untraced.batch_cpu_ms, 0.9), "ms"},
        {"setup_s", Median(setup_cpu), "s"},
        {"peak_rss_mb", untraced.peak_rss_mb, "MB"},
    };
    PrintTable("end-to-end", metrics);
  } else {
    metrics = LayerMetrics(traced, untraced, v);
    PrintTable("per-layer (traced run)", metrics);
    const std::string path =
        std::string(kOutDir) + "/spans-" + spec->name + ".csv";
    if (WriteSpansCsv(traced.spans, path)) {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace impreg::perfbench

int main(int argc, char** argv) { return impreg::perfbench::Main(argc, argv); }
