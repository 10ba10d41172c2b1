#ifndef IMPREG_BENCH_REPORT_H_
#define IMPREG_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// Machine-readable bench reports. Each benchmark run becomes one JSON
/// record `{bench, n, m, threads, ns_per_iter}` — plus optional
/// `p50_ns`/`p99_ns` tail-latency members for serving-style harnesses
/// (the load generator) that measure a latency distribution rather
/// than a single mean; a whole suite is written as the
/// `impreg-bench-v2` document
///
///   {"schema": "impreg-bench-v2", "records": [...], "metrics": {...}}
///
/// where `metrics` is the process metrics snapshot taken after the run
/// (empty object when metrics were off). A run may also carry a
/// `machine` member — a flat string map describing the configuration
/// the numbers were measured under (`-march=native` status, SIMD
/// dispatch levels) — emitted only when non-empty so metadata-free
/// documents stay byte-identical to older ones. `impreg_bench_diff`
/// compares the two sides' machine maps and warns (or fails, with
/// --strict-metadata) when they differ: a baseline recorded with the
/// native/AVX2 kernels must not silently gate a scalar-fallback run,
/// or vice versa. Reports default to `bench/out/`
/// (gitignored) so the perf trajectory is tracked by tooling
/// (`impreg_bench_diff`) rather than by committed files. Deliberately
/// free of any google-benchmark dependency so drivers and one-off
/// harnesses can emit the same format.

namespace impreg {

/// One benchmark measurement.
struct BenchRecord {
  std::string bench;           ///< Benchmark name, e.g. "BM_SpMVSoA/131072".
  std::int64_t n = 0;          ///< Problem size (nodes / vector length).
  std::int64_t m = 0;          ///< Edge count (0 when not graph-based).
  int threads = 1;             ///< Pool threads the kernel ran with.
  double ns_per_iter = 0.0;    ///< Wall time per iteration, nanoseconds.
  /// Latency-distribution percentiles, nanoseconds. 0 = not measured
  /// (classic throughput benches); serialized only when > 0 so v2
  /// documents without percentiles stay byte-identical.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

/// Flat machine/configuration metadata attached to a report (ordered so
/// serialization is deterministic). Typical keys: "native" (the
/// IMPREG_NATIVE_STATUS compile definition: "off", "native", or
/// "native-rejected"), "simd" (the dispatch level resolved at run
/// time).
using BenchMetadata = std::map<std::string, std::string>;

/// Serializes `records` as an impreg-bench-v2 document. `metrics_json`,
/// when non-empty, must be a pre-rendered JSON object (typically
/// MetricsSnapshot::ToJson()) and is embedded verbatim as the
/// `metrics` member; when empty, `"metrics": {}` is emitted. A
/// non-empty `machine` map is emitted as the `machine` member (an
/// empty map emits nothing, keeping metadata-free documents
/// byte-identical to the pre-metadata format).
std::string BenchReportToJson(const std::vector<BenchRecord>& records,
                              const std::string& metrics_json = "",
                              const BenchMetadata& machine = {});

/// Writes the JSON report to `path` (overwrites), creating parent
/// directories as needed. Returns false if the file cannot be written.
bool WriteBenchReport(const std::string& path,
                      const std::vector<BenchRecord>& records,
                      const std::string& metrics_json = "",
                      const BenchMetadata& machine = {});

/// A parsed bench report: records plus which schema carried them.
struct BenchParseResult {
  std::vector<BenchRecord> records;
  BenchMetadata machine;  ///< Empty when the document carried none.
  std::string schema;  ///< "impreg-bench-v2".
  std::string error;   ///< Empty on success.
  bool ok() const { return error.empty(); }
};

/// Parses an impreg-bench-v2 report; any other document (a bare record
/// array included) is an error. Records missing `bench` or
/// `ns_per_iter` are an error, not silently dropped — a truncated
/// baseline must not masquerade as a clean diff.
BenchParseResult ParseBenchReport(const std::string& text);

/// Reads and parses `path`.
BenchParseResult ReadBenchReport(const std::string& path);

/// One benchmark compared across two reports.
struct BenchDiffEntry {
  std::string bench;
  double old_ns = 0.0;
  double new_ns = 0.0;
  double ratio = 1.0;      ///< new_ns / old_ns (1.0 when old_ns == 0).
  bool regressed = false;  ///< ratio > 1 + max_regress.
  /// p99 tail comparison; meaningful only when both sides carry a
  /// nonzero p99_ns (has_p99).
  bool has_p99 = false;
  double old_p99 = 0.0;
  double new_p99 = 0.0;
  double p99_ratio = 1.0;
  bool p99_regressed = false;  ///< p99_ratio > 1 + max_regress_p99.
};

/// The regression-gate verdict for a baseline/candidate report pair.
struct BenchDiffResult {
  std::vector<BenchDiffEntry> entries;    ///< Matched benches, name-sorted.
  std::vector<std::string> only_old;      ///< In baseline only (name-sorted).
  std::vector<std::string> only_new;      ///< In candidate only (name-sorted).
  double max_regress = 0.0;               ///< Threshold used, as a fraction.
  double max_regress_p99 = -1.0;          ///< p99 threshold (< 0 = no gate).
  int regressions = 0;                    ///< Entries past the threshold.
  int p99_regressions = 0;                ///< Entries past the p99 threshold.
  bool ok() const { return regressions == 0 && p99_regressions == 0; }
};

/// Compares two parsed reports benchmark-by-benchmark (matched on the
/// full bench name, which already encodes args like "/131072"). An
/// entry regresses when `new_ns > old_ns * (1 + max_regress)`;
/// `max_regress` is a fraction (0.10 = allow 10% slower). Benches
/// present on only one side are reported but never count as
/// regressions — the gate judges shared coverage.
///
/// `max_regress_p99 >= 0` additionally gates the p99 tail, one-sided:
/// an entry where both sides carry p99_ns and
/// `new_p99 > old_p99 * (1 + max_regress_p99)` counts as a p99
/// regression (a *faster* tail never fails, and a mean-only bench is
/// never p99-gated). The default (< 0) skips the tail gate entirely.
BenchDiffResult DiffBenchReports(const std::vector<BenchRecord>& old_records,
                                 const std::vector<BenchRecord>& new_records,
                                 double max_regress,
                                 double max_regress_p99 = -1.0);

/// Compares two machine-metadata maps key by key and returns one
/// human-readable line per mismatch ("native: 'native' vs 'off'"; a key
/// present on only one side reads "... vs <absent>"). Empty result ⇔
/// the maps agree on every key either side carries — two metadata-free
/// reports compare clean.
std::vector<std::string> DiffBenchMetadata(const BenchMetadata& old_machine,
                                           const BenchMetadata& new_machine);

}  // namespace impreg

#endif  // IMPREG_BENCH_REPORT_H_
