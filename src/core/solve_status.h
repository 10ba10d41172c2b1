#ifndef IMPREG_CORE_SOLVE_STATUS_H_
#define IMPREG_CORE_SOLVE_STATUS_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

/// \file
/// Solver status taxonomy — the failure-containment vocabulary shared by
/// every iterative method in the library.
///
/// The paper's thesis is that *approximate* computation is the product:
/// the diffusions of §3.1 and the local solvers of §3.3 are meant to be
/// stopped early and trusted anyway. That only works if the library can
/// distinguish "stopped early by design" (kMaxIterations,
/// kBudgetExhausted — the iterate is the regularized answer of
/// Mahoney–Orecchia 1010.0703) from "silently broken" (kNonFinite,
/// kBreakdown — the iteration did not behave and the output is not the
/// optimum of anything). Solvers never return poison: on a non-finite
/// event they report kNonFinite and hand back the last finite iterate.

namespace impreg {

/// How a solve ended.
enum class SolveStatus {
  /// The convergence criterion was met; the result is as requested.
  kConverged,
  /// The iteration cap was hit first. The iterate is still meaningful —
  /// it is the early-stopped (implicitly regularized) answer.
  kMaxIterations,
  /// A NaN/Inf was detected. The returned vector is the last iterate
  /// that was verified finite (possibly the zero initial guess).
  kNonFinite,
  /// The iteration lost a structural invariant (CG lost positive
  /// definiteness, Lanczos exhausted an invariant subspace before
  /// finding enough pairs, Chebyshev residuals diverged under bad
  /// eigenvalue bounds). Best-so-far output is returned.
  kBreakdown,
  /// A cooperative WorkBudget ran out; best-so-far output is returned.
  kBudgetExhausted,
  /// The input was rejected up front (non-finite entries, empty seed);
  /// the output is a safe default, not a solve.
  kInvalidInput,
  /// Admission control refused the request under overload: no
  /// computation was performed and no answer is attached. A shed is a
  /// deliberate, deterministic policy decision (core/budget_pool.h) —
  /// the serving tier's explicit "try again later", never a silent
  /// drop.
  kShed,
};

/// Short stable name for logs and CLI output ("converged",
/// "max-iterations", "non-finite", "breakdown", "budget-exhausted",
/// "invalid-input", "shed").
inline const char* SolveStatusName(SolveStatus status) {
  switch (status) {
    case SolveStatus::kConverged:       return "converged";
    case SolveStatus::kMaxIterations:   return "max-iterations";
    case SolveStatus::kNonFinite:       return "non-finite";
    case SolveStatus::kBreakdown:       return "breakdown";
    case SolveStatus::kBudgetExhausted: return "budget-exhausted";
    case SolveStatus::kInvalidInput:    return "invalid-input";
    case SolveStatus::kShed:            return "shed";
  }
  return "unknown";
}

/// True for outcomes whose output is a *trustworthy approximation* —
/// converged, or deliberately stopped early. False for outcomes where
/// the iteration itself misbehaved (kNonFinite, kBreakdown,
/// kInvalidInput); the output is then a safe fallback, not an answer.
inline bool StatusIsUsable(SolveStatus status) {
  return status == SolveStatus::kConverged ||
         status == SolveStatus::kMaxIterations ||
         status == SolveStatus::kBudgetExhausted;
}

/// Severity rank for combining statuses of sub-solves (higher = worse).
inline int StatusSeverity(SolveStatus status) {
  switch (status) {
    case SolveStatus::kConverged:       return 0;
    case SolveStatus::kMaxIterations:   return 1;
    case SolveStatus::kBudgetExhausted: return 2;
    case SolveStatus::kShed:            return 3;
    case SolveStatus::kBreakdown:       return 4;
    case SolveStatus::kNonFinite:       return 5;
    case SolveStatus::kInvalidInput:    return 6;
  }
  return 6;
}

/// The worse of two statuses — how a driver that ran several sub-solves
/// (deflated Lanczos pairs, the two signed PageRank diffusions, a
/// portfolio sweep) summarizes them.
inline SolveStatus MergeStatus(SolveStatus a, SolveStatus b) {
  return StatusSeverity(a) >= StatusSeverity(b) ? a : b;
}

/// Per-solve diagnostics carried by every solver result type — the one
/// record of how the solve ended (`ok()` is "converged").
struct SolverDiagnostics {
  SolveStatus status = SolveStatus::kMaxIterations;
  /// Iterations (or pushes / Taylor terms / phases) actually performed.
  int iterations = 0;
  /// Final residual (or convergence-test value) if the method tracks
  /// one; 0 when not applicable.
  double final_residual = 0.0;
  /// Short trailing window of the residual trajectory (most recent
  /// last, at most kResidualHistory entries) — enough to see whether
  /// the solve was converging, stalling, or diverging when it stopped.
  std::vector<double> residual_history;
  /// Human-readable one-liner: what happened and what was returned.
  std::string detail;

  static constexpr int kResidualHistory = 8;

  bool ok() const { return status == SolveStatus::kConverged; }
  bool usable() const { return StatusIsUsable(status); }

  /// Appends to the bounded residual window.
  void RecordResidual(double r) {
    if (residual_history.size() >= static_cast<std::size_t>(kResidualHistory)) {
      residual_history.erase(residual_history.begin());
    }
    residual_history.push_back(r);
    final_residual = r;
  }

  /// One-line rendering for logs/CLI: "status after N iterations
  /// (residual R): detail".
  std::string Summary() const {
    std::string out = SolveStatusName(status);
    out += " after " + std::to_string(iterations) + " iterations";
    if (final_residual != 0.0 && std::isfinite(final_residual)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), " (residual %.3g)", final_residual);
      out += buf;
    }
    if (!detail.empty()) {
      out += ": ";
      out += detail;
    }
    return out;
  }
};

}  // namespace impreg

#endif  // IMPREG_CORE_SOLVE_STATUS_H_
