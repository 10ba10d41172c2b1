// impreg_bench_diff — the bench regression gate.
//
// Compares two bench reports (impreg-bench-v2 objects, see
// bench/report.h) benchmark-by-benchmark and exits
// non-zero when any shared benchmark slowed down past the threshold.
// Wired into ctest (label "observability") so a perf regression fails
// the suite the same way a wrong answer does.
//
// Usage:
//   impreg_bench_diff <baseline.json> <candidate.json> [--max-regress=10%]
//                     [--max-regress-p99=25%] [--strict-metadata]
//
// The threshold accepts "10%", "0.10", or "0.10%"-style spellings; a
// bare number <= 1 is a fraction, otherwise a percentage.
// --max-regress-p99 additionally gates the p99 tail (one-sided: only a
// slower tail fails) for records that carry p99_ns — the load
// harness's SLO gate; without the flag, tails are reported but never
// gated.
//
// Reports may carry a `machine` metadata map (-march=native status,
// SIMD dispatch levels — see bench/report.h). When the two sides'
// maps disagree the comparison is cross-machine/cross-configuration:
// every mismatch is printed as a warning, and with --strict-metadata
// any mismatch fails the gate outright.
//
// Exit codes follow impreg_cli: 0 gate passed, 1 regression(s) or a
// strict metadata mismatch, 2 usage error, 3 unreadable/malformed
// input.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/report.h"

namespace impreg {
namespace {

constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInput = 3;

int Usage() {
  std::fprintf(
      stderr,
      "usage: impreg_bench_diff <baseline.json> <candidate.json> "
      "[--max-regress=10%%] [--max-regress-p99=25%%] [--strict-metadata]\n"
      "\n"
      "Compares two bench reports (bench/report.h formats) and exits\n"
      "non-zero when a shared benchmark regressed past the threshold\n"
      "(default 10%%). --max-regress-p99 also gates the p99 tail,\n"
      "one-sided, for records that carry p99_ns (load-harness SLO).\n"
      "Machine-metadata mismatches (native/SIMD configuration) warn by\n"
      "default; --strict-metadata turns any mismatch into a failure.\n"
      "\n"
      "exit codes: 0 gate passed, 1 regression, 2 usage, 3 bad input\n");
  return kExitUsage;
}

/// Parses "10%", "10 %", "0.10": a trailing '%' divides by 100, a bare
/// value > 1 is treated as a percentage too (nobody means a 12x
/// slowdown allowance by "--max-regress=12"). Returns < 0 on garbage.
double ParseThreshold(const std::string& text) {
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) return -1.0;
  while (*end == ' ') ++end;
  if (*end == '%') {
    value /= 100.0;
    ++end;
  } else if (value > 1.0) {
    value /= 100.0;
  }
  if (*end != '\0') return -1.0;
  if (value < 0.0) return -1.0;
  return value;
}

int Run(int argc, char** argv) {
  std::string old_path, new_path;
  double max_regress = 0.10;
  double max_regress_p99 = -1.0;
  bool strict_metadata = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--strict-metadata") == 0) {
      strict_metadata = true;
    } else if (std::strncmp(arg, "--max-regress=", 14) == 0) {
      max_regress = ParseThreshold(arg + 14);
      if (max_regress < 0.0) {
        std::fprintf(stderr, "impreg_bench_diff: bad threshold '%s'\n",
                     arg + 14);
        return kExitUsage;
      }
    } else if (std::strncmp(arg, "--max-regress-p99=", 18) == 0) {
      max_regress_p99 = ParseThreshold(arg + 18);
      if (max_regress_p99 < 0.0) {
        std::fprintf(stderr, "impreg_bench_diff: bad p99 threshold '%s'\n",
                     arg + 18);
        return kExitUsage;
      }
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      Usage();
      return 0;
    } else if (arg[0] == '-' && arg[1] == '-') {
      std::fprintf(stderr, "impreg_bench_diff: unknown flag '%s'\n", arg);
      return kExitUsage;
    } else if (old_path.empty()) {
      old_path = arg;
    } else if (new_path.empty()) {
      new_path = arg;
    } else {
      return Usage();
    }
  }
  if (old_path.empty() || new_path.empty()) return Usage();

  const BenchParseResult old_report = ReadBenchReport(old_path);
  if (!old_report.ok()) {
    std::fprintf(stderr, "impreg_bench_diff: %s: %s\n", old_path.c_str(),
                 old_report.error.c_str());
    return kExitInput;
  }
  const BenchParseResult new_report = ReadBenchReport(new_path);
  if (!new_report.ok()) {
    std::fprintf(stderr, "impreg_bench_diff: %s: %s\n", new_path.c_str(),
                 new_report.error.c_str());
    return kExitInput;
  }

  // Configuration drift first: numbers measured under different
  // native/SIMD configurations compare machines, not changes.
  const std::vector<std::string> metadata_mismatches =
      DiffBenchMetadata(old_report.machine, new_report.machine);
  for (const std::string& mismatch : metadata_mismatches) {
    std::fprintf(stderr,
                 "impreg_bench_diff: %s: machine metadata mismatch — %s "
                 "(cross-machine comparison)\n",
                 strict_metadata ? "error" : "warning", mismatch.c_str());
  }

  const BenchDiffResult diff =
      DiffBenchReports(old_report.records, new_report.records, max_regress,
                       max_regress_p99);
  if (diff.entries.empty()) {
    std::fprintf(stderr,
                 "impreg_bench_diff: no shared benchmarks between '%s' "
                 "and '%s'\n",
                 old_path.c_str(), new_path.c_str());
    return kExitInput;
  }

  std::printf("%-40s %14s %14s %8s\n", "benchmark", "old ns/iter",
              "new ns/iter", "ratio");
  for (const BenchDiffEntry& e : diff.entries) {
    std::printf("%-40s %14.1f %14.1f %7.3f%s\n", e.bench.c_str(), e.old_ns,
                e.new_ns, e.ratio, e.regressed ? "  REGRESSED" : "");
    if (e.has_p99) {
      std::printf("%-40s %14.1f %14.1f %7.3f%s\n",
                  (e.bench + " [p99]").c_str(), e.old_p99, e.new_p99,
                  e.p99_ratio, e.p99_regressed ? "  REGRESSED" : "");
    }
  }
  for (const std::string& bench : diff.only_old) {
    std::printf("%-40s (baseline only)\n", bench.c_str());
  }
  for (const std::string& bench : diff.only_new) {
    std::printf("%-40s (candidate only)\n", bench.c_str());
  }
  std::printf("%zu shared benchmark(s), threshold +%.1f%%: %d regression(s)\n",
              diff.entries.size(), 100.0 * max_regress, diff.regressions);
  if (max_regress_p99 >= 0.0) {
    std::printf("p99 threshold +%.1f%%: %d tail regression(s)\n",
                100.0 * max_regress_p99, diff.p99_regressions);
  }
  if (!metadata_mismatches.empty()) {
    std::printf("%zu machine metadata mismatch(es)%s\n",
                metadata_mismatches.size(),
                strict_metadata ? " (strict: failing)" : "");
  }
  if (strict_metadata && !metadata_mismatches.empty()) return kExitRegression;
  return diff.ok() ? 0 : kExitRegression;
}

}  // namespace
}  // namespace impreg

int main(int argc, char** argv) { return impreg::Run(argc, argv); }
