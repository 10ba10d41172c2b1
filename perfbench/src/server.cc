#include "server.h"

#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "service/durability/recovery.h"
#include "service/durability/snapshot.h"

namespace impreg::perfbench {
namespace {

bool SameParts(const DynamicGraph::Parts& a, const DynamicGraph::Parts& b) {
  if (a.num_edges != b.num_edges ||
      std::memcmp(&a.total_volume, &b.total_volume, sizeof(double)) != 0 ||
      a.adjacency.size() != b.adjacency.size() ||
      a.degrees.size() != b.degrees.size()) {
    return false;
  }
  if (!a.degrees.empty() &&
      std::memcmp(a.degrees.data(), b.degrees.data(),
                  a.degrees.size() * sizeof(double)) != 0) {
    return false;
  }
  for (std::size_t u = 0; u < a.adjacency.size(); ++u) {
    const auto& x = a.adjacency[u];
    const auto& y = b.adjacency[u];
    if (x.size() != y.size()) return false;
    for (std::size_t k = 0; k < x.size(); ++k) {
      if (x[k].head != y[k].head ||
          std::memcmp(&x[k].weight, &y[k].weight, sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

// Reads the integer after `"support":` in a serialized response.
std::int64_t SupportField(const std::string& line) {
  static constexpr char kKey[] = "\"support\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string::npos) return 0;
  return std::strtoll(line.c_str() + at + sizeof(kKey) - 1, nullptr, 10);
}

}  // namespace

std::uint64_t HashLine(std::uint64_t hash, const std::string& line) {
  for (const char c : line) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  hash ^= static_cast<unsigned char>('\n');
  return hash * 0x100000001b3ULL;
}

ServeStats ServeStats::Since(const ServeStats& e) const {
  ServeStats d = *this;
  d.batches -= e.batches;
  d.lines -= e.lines;
  d.queries -= e.queries;
  d.usable -= e.usable;
  d.unusable -= e.unusable;
  d.shed -= e.shed;
  d.rejected -= e.rejected;
  d.edits -= e.edits;
  d.edit_failures -= e.edit_failures;
  d.snapshots -= e.snapshots;
  d.snapshot_failures -= e.snapshot_failures;
  d.cold -= e.cold;
  d.warm -= e.warm;
  d.cached -= e.cached;
  d.work -= e.work;
  d.support -= e.support;
  d.response_bytes -= e.response_bytes;
  d.run_batch_calls -= e.run_batch_calls;
  d.frozen_rebuilds -= e.frozen_rebuilds;
  return d;
}

Server::Server(const WorkloadSpec& spec, const std::string& state_dir)
    : spec_(spec), state_dir_(state_dir) {
  std::error_code ec;
  if (durable()) {
    std::filesystem::remove_all(state_dir_, ec);
    wal_path_ = state_dir_ + "/wal";
    snapshot_dir_ = state_dir_ + "/snapshots";
  }
  const std::int64_t start = NowNs();
  const std::int64_t cpu_start = ThreadCpuNs();
  base_ = BuildGraph(spec);
  num_nodes_ = base_.NumNodes();
  const QueryEngine::Options options = EngineOptions(spec);
  if (!durable()) {
    engine_ = std::make_unique<QueryEngine>(base_, options);
  } else {
    durability::RecoveryOptions recovery;
    recovery.wal_path = wal_path_;
    recovery.snapshot_dir = snapshot_dir_;
    const durability::RecoveryReport report = durability::RecoverEngine(
        DynamicGraph::FromGraph(base_), options, recovery, &engine_);
    if (report.status != SolveStatus::kConverged || engine_ == nullptr) {
      error_ = "recovery at set-up failed: " + report.detail;
      return;
    }
    durability::WalOptions wal_options;
    wal_options.sync_every = 1;
    std::string detail;
    if (wal_.Open(wal_path_, wal_options, &detail) !=
        SolveStatus::kConverged) {
      error_ = "cannot open the WAL: " + detail;
      return;
    }
  }
  setup_time_.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  setup_time_.cpu_s = static_cast<double>(ThreadCpuNs() - cpu_start) * 1e-9;
}

Server::~Server() {
  wal_.Close();
  if (durable()) {
    std::error_code ec;
    std::filesystem::remove_all(state_dir_, ec);
  }
}

bool Server::PublishSnapshot(SpanRecorder& spans, int parent) {
  const int span = spans.Begin("durability.snapshot", parent,
                               stats_.batches);
  const durability::SnapshotWriteResult written = durability::WriteSnapshot(
      snapshot_dir_, engine_->Epoch(), engine_->graph(),
      engine_->cache().ExportEntries());
  spans.End(span);
  ++stats_.snapshots;
  if (written.status != SolveStatus::kConverged) {
    ++stats_.snapshot_failures;
    return false;
  }
  return true;
}

Elapsed Server::ServeBatch(const std::vector<std::string>& lines,
                           SpanRecorder& spans, const AnswerHook& hook) {
  struct Group {
    DynamicGraph::SnapshotView snap;
    std::vector<QueryRequest> requests;
  };
  const std::int64_t batch_id = stats_.batches;
  const std::int64_t start = NowNs();
  const std::int64_t cpu_start = ThreadCpuNs();
  const int batch_span = spans.Begin("batch", -1, batch_id);
  std::vector<Group> groups;
  std::string error;
  for (const std::string& line : lines) {
    ++stats_.lines;
    QueryRequest request;
    const int parse_span = spans.Begin("wire.parse", batch_span, batch_id);
    const bool parsed = ParseQueryRequest(line, &request, &error);
    spans.End(parse_span);
    if (!parsed) {
      ++stats_.rejected;
      continue;
    }
    if (!request.is_add_edge && !request.is_remove_edge) {
      ++stats_.queries;
      if (groups.empty() || groups.back().snap.epoch() != engine_->Epoch()) {
        groups.push_back(Group{engine_->PinSnapshot(), {}});
      }
      groups.back().requests.push_back(std::move(request));
      continue;
    }

    // An edit: validated like `impreg_cli serve`, logged, then applied.
    const int edit_span = spans.Begin("edit", batch_span, batch_id);
    ++stats_.edits;
    const NodeId n = engine_->graph().NumNodes();
    bool valid = request.u >= 0 && request.u < n && request.v >= 0 &&
                 request.v < n;
    if (valid && request.is_remove_edge) {
      const double stored = engine_->graph().EdgeWeight(request.u, request.v);
      valid = stored != 0.0 && request.weight <= stored;
    }
    if (!valid) {
      ++stats_.rejected;
      spans.End(edit_span);
      continue;
    }
    if (wal_.is_open()) {
      const int wal_span =
          spans.Begin("durability.wal_append", edit_span, batch_id);
      std::string detail;
      const SolveStatus appended =
          request.is_add_edge
              ? wal_.AppendAddEdge(request.u, request.v, request.weight,
                                   &detail)
              : wal_.AppendRemoveEdge(request.u, request.v, request.weight,
                                      &detail);
      spans.End(wal_span);
      if (appended != SolveStatus::kConverged) {
        ++stats_.edit_failures;
        spans.End(edit_span);
        continue;
      }
    }
    const int apply_span = spans.Begin("engine.edit", edit_span, batch_id);
    if (request.is_add_edge) {
      engine_->AddEdge(request.u, request.v, request.weight);
    } else {
      engine_->RemoveEdge(request.u, request.v, request.weight);
    }
    spans.End(apply_span);
    if (spec_.snapshot_every > 0 &&
        ++edits_since_snapshot_ >= spec_.snapshot_every) {
      PublishSnapshot(spans, edit_span);
      edits_since_snapshot_ = 0;
    }
    spans.End(edit_span);
  }

  std::vector<Query> queries;
  for (Group& group : groups) {
    queries.clear();
    for (const QueryRequest& request : group.requests) {
      queries.push_back(request.query);
    }
    const int run_span = spans.Begin("engine.run_batch", batch_span, batch_id);
    const std::vector<QueryResponse> responses =
        engine_->RunBatchOn(group.snap, queries);
    spans.End(run_span);
    ++stats_.run_batch_calls;
    bool froze = false;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const QueryResponse& response = responses[i];
      const int ser_span = spans.Begin("wire.serialize", batch_span, batch_id);
      const std::string line = QueryResponseToJson(
          group.requests[i], response, group.snap.epoch());
      spans.End(ser_span);
      stats_.digest = HashLine(stats_.digest, line);
      stats_.response_bytes += static_cast<std::int64_t>(line.size()) + 1;
      if (StatusIsUsable(response.status)) {
        ++stats_.usable;
      } else {
        ++stats_.unusable;
        if (response.shed) ++stats_.shed;
      }
      switch (response.source) {
        case QuerySource::kCold:
          ++stats_.cold;
          break;
        case QuerySource::kWarm:
          ++stats_.warm;
          break;
        case QuerySource::kCached:
          ++stats_.cached;
          break;
      }
      if (response.source != QuerySource::kCached && !response.shed) {
        stats_.work += response.work;
        stats_.support += SupportField(line);
        if (group.requests[i].query.method != QueryMethod::kPprPush) {
          froze = true;
        }
      }
      if (hook) hook(group.requests[i], response, group.snap);
    }
    if (froze && group.snap.epoch() != frozen_epoch_) {
      ++stats_.frozen_rebuilds;
      frozen_epoch_ = group.snap.epoch();
    }
  }
  // Releasing the pinned views can free a graph copy an edit cloned;
  // that belongs to the batch.
  groups.clear();
  spans.End(batch_span);
  ++stats_.batches;
  return {static_cast<double>(NowNs() - start) * 1e-9,
          static_cast<double>(ThreadCpuNs() - cpu_start) * 1e-9};
}

std::string Server::CheckRecovery(double* recover_ms) {
  *recover_ms = 0.0;
  if (!durable()) return "";
  wal_.Close();
  durability::RecoveryOptions recovery;
  recovery.wal_path = wal_path_;
  recovery.snapshot_dir = snapshot_dir_;
  std::unique_ptr<QueryEngine> recovered;
  const std::int64_t start = NowNs();
  const durability::RecoveryReport report = durability::RecoverEngine(
      DynamicGraph::FromGraph(base_), EngineOptions(spec_), recovery,
      &recovered);
  *recover_ms = static_cast<double>(NowNs() - start) * 1e-6;
  if (report.status != SolveStatus::kConverged || recovered == nullptr) {
    return "recovery status " + std::string(SolveStatusName(report.status)) +
           ": " + report.detail;
  }
  if (recovered->Epoch() != engine_->Epoch()) {
    return "recovered epoch " + std::to_string(recovered->Epoch()) +
           " != live epoch " + std::to_string(engine_->Epoch());
  }
  if (!SameParts(recovered->graph().ExportParts(),
                 engine_->graph().ExportParts())) {
    return "recovered graph differs from the live graph";
  }
  return "";
}

}  // namespace impreg::perfbench
