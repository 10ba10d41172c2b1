#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/durability/wal.h"
#include "service/query_engine.h"
#include "service/wire.h"
#include "spans.h"
#include "workload.h"

/// \file
/// The benchmark's serving harness: the one caller the engine allows,
/// making the public calls `impreg_cli serve` makes, in its order.
///
/// Per batch of request lines: ParseQueryRequest each line; an edit is
/// WAL-appended (durable workloads: snapshot_every > 0) and then applied
/// with QueryEngine::AddEdge/RemoveEdge, with a snapshot published every
/// N edits; queries are grouped by the epoch they were issued at, each
/// group pins a snapshot and runs through RunBatchOn, and every answer
/// is serialized with QueryResponseToJson. Nothing is printed: each
/// response line is folded into a running digest instead.

namespace impreg::perfbench {

/// FNV-1a over `line` and a trailing newline, continuing from `hash`.
std::uint64_t HashLine(std::uint64_t hash, const std::string& line);
constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ULL;

/// Counts over everything a server has served.
struct ServeStats {
  std::int64_t batches = 0;
  /// Request lines served (queries, edits and rejected lines).
  std::int64_t lines = 0;
  std::int64_t queries = 0;
  std::int64_t usable = 0;
  /// Answers with a non-usable status (shed and kInvalidInput too).
  std::int64_t unusable = 0;
  std::int64_t shed = 0;
  /// Lines that failed to parse, and edits that failed validation.
  std::int64_t rejected = 0;
  std::int64_t edits = 0;
  /// Edits the WAL did not acknowledge (never applied).
  std::int64_t edit_failures = 0;
  std::int64_t snapshots = 0;
  std::int64_t snapshot_failures = 0;
  std::int64_t cold = 0;
  std::int64_t warm = 0;
  std::int64_t cached = 0;
  /// Response `work` and `support` summed over cold and warm answers.
  std::int64_t work = 0;
  std::int64_t support = 0;
  std::int64_t response_bytes = 0;
  std::int64_t run_batch_calls = 0;
  /// Community/dense groups whose pinned epoch differs from the
  /// previous such group's: each forces a CSR rebuild of the snapshot.
  std::int64_t frozen_rebuilds = 0;
  std::uint64_t digest = kHashSeed;

  /// Requests that did not get a usable answer or were not applied.
  std::int64_t failed() const { return unusable + rejected + edit_failures; }

  /// The counts accrued since `earlier` (same server); keeps the digest.
  ServeStats Since(const ServeStats& earlier) const;
};

/// Called for every answer of a group, with the snapshot it ran on.
using AnswerHook = std::function<void(const QueryRequest&,
                                      const QueryResponse&,
                                      const DynamicGraph::SnapshotView&)>;

/// How long a stretch of serving took: by the clock, and in CPU time of
/// the serving thread (a one-thread engine pool does all its work there).
struct Elapsed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class Server {
 public:
  /// Builds the graph and the engine; a durable workload also recovers
  /// from (empty) WAL and snapshot state under `state_dir`, which is
  /// wiped first, and opens the WAL. Timed as the set-up.
  Server(const WorkloadSpec& spec, const std::string& state_dir);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// False (with `error()` set) when set-up failed.
  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const Elapsed& setup_time() const { return setup_time_; }

  /// Serves one batch. Returns its latency: first line parsed → last
  /// response serialized.
  Elapsed ServeBatch(const std::vector<std::string>& lines,
                    SpanRecorder& spans, const AnswerHook& hook = nullptr);

  const ServeStats& stats() const { return stats_; }
  const QueryEngine& engine() const { return *engine_; }
  NodeId num_nodes() const { return num_nodes_; }

  /// Durable workloads: closes the WAL, runs RecoverEngine over the WAL
  /// and snapshot directory, and compares the recovered graph and epoch
  /// with the live engine bit for bit. Returns "" on a match, else the
  /// mismatch; `recover_ms` receives the recovery time.
  std::string CheckRecovery(double* recover_ms);

 private:
  bool durable() const { return spec_.snapshot_every > 0; }
  bool PublishSnapshot(SpanRecorder& spans, int parent);

  const WorkloadSpec& spec_;
  std::string state_dir_;
  std::string wal_path_;
  std::string snapshot_dir_;
  /// The generated base graph, kept (as `serve` keeps its edge list)
  /// so the durability check can recover from it.
  Graph base_;
  std::unique_ptr<QueryEngine> engine_;
  durability::WriteAheadLog wal_;
  NodeId num_nodes_ = 0;
  Elapsed setup_time_;
  std::string error_;
  std::int64_t edits_since_snapshot_ = 0;
  std::int64_t frozen_epoch_ = -1;
  ServeStats stats_;
};

}  // namespace impreg::perfbench

#endif  // PERFBENCH_SERVER_H_
