#include "linalg/power_method.h"

#include <cmath>

#include "core/metrics.h"
#include "core/trace.h"
#include "linalg/graph_operators.h"
#include "util/check.h"
#include "util/fault.h"

namespace impreg {

namespace {

void Deflate(const std::vector<Vector>& deflate, Vector& x) {
  for (const Vector& d : deflate) ProjectOut(d, x);
}

}  // namespace

PowerMethodResult PowerMethod(const LinearOperator& op, Vector start,
                              const PowerMethodOptions& options) {
  const int n = op.Dimension();
  IMPREG_CHECK(static_cast<int>(start.size()) == n);

  PowerMethodResult result;
  SolverDiagnostics& diag = result.diagnostics;
  SolverTrace* trace = IMPREG_TRACE_BEGIN("power_method");
  if (!AllFinite(start)) {
    diag.status = SolveStatus::kInvalidInput;
    diag.detail = "start vector has non-finite entries";
    result.eigenvector.assign(n, 0.0);
    IMPREG_TRACE_FINISH(trace, diag);
    return result;
  }
  Vector current = std::move(start);
  Deflate(options.deflate, current);
  IMPREG_CHECK_MSG(Normalize(current) > 1e-14,
                   "power method start vector vanished under deflation");

  Vector next(n);
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    op.Apply(current, next);
    IMPREG_FAULT_POINT("power_method/next", next);
    Deflate(options.deflate, next);
    const double norm = Normalize(next);
    result.iterations = iter;
    // ‖next‖ is NaN/Inf iff any entry is (the unit iterate is therefore
    // all-finite once this passes) — the scalar check is the whole
    // non-finite sentinel here.
    if (!std::isfinite(norm)) {
      diag.status = SolveStatus::kNonFinite;
      diag.detail = "operator produced a non-finite iterate; returning "
                    "last finite unit iterate";
      IMPREG_TRACE_EVENT(trace, iter, kRollback, norm);
      break;
    }
    if (norm <= 1e-300) {
      // A annihilated the iterate — it was (numerically) in the null
      // space; report non-convergence with the last usable vector.
      diag.status = SolveStatus::kBreakdown;
      diag.detail = "operator annihilated the iterate (start was "
                    "numerically in the null space)";
      IMPREG_TRACE_EVENT(trace, iter, kFault, norm);
      break;
    }
    // Align sign so the difference test is meaningful for negative
    // dominant eigenvalues.
    if (Dot(next, current) < 0.0) Scale(-1.0, next);
    const double delta = DistanceL2(next, current);
    diag.RecordResidual(delta);
    IMPREG_TRACE_EVENT(trace, iter, kResidual, delta);
    current.swap(next);
    if (options.on_iterate) options.on_iterate(iter, current);
    if (delta < options.tolerance) {
      diag.status = SolveStatus::kConverged;
      break;
    }
  }
  result.eigenvalue = op.RayleighQuotient(current);
  IMPREG_FAULT_POINT("power_method/rayleigh", result.eigenvalue);
  if (!std::isfinite(result.eigenvalue)) {
    diag.status = SolveStatus::kNonFinite;
    diag.detail = "Rayleigh quotient is non-finite; eigenvalue zeroed";
    result.eigenvalue = 0.0;
  }
  result.eigenvector = std::move(current);
  diag.iterations = result.iterations;
  IMPREG_TRACE_FINISH(trace, diag);
  IMPREG_METRIC_COUNT("solver.power_method.solves", 1);
  IMPREG_METRIC_COUNT("solver.power_method.iterations", result.iterations);
  return result;
}

PowerMethodResult SecondEigenpairPowerMethod(
    const Graph& graph, Vector start, const PowerMethodOptions& options) {
  const NormalizedLaplacianOperator lap(graph);
  // ℒ has spectrum in [0, 2]; 2I − ℒ flips it so the smallest nontrivial
  // eigenvalue becomes dominant once D^{1/2}1 is deflated.
  const ShiftedOperator flipped(lap, -1.0, 2.0);
  PowerMethodOptions opts = options;
  opts.deflate.push_back(lap.TrivialEigenvector());
  PowerMethodResult result = PowerMethod(flipped, std::move(start), opts);
  // Convert the Rayleigh quotient back: λ(ℒ) = 2 − λ(2I−ℒ). Skip when
  // the solve failed and the eigenvalue was zeroed — 2 − 0 would dress
  // a sentinel up as a plausible spectral gap.
  if (result.diagnostics.usable()) {
    result.eigenvalue = 2.0 - result.eigenvalue;
  }
  return result;
}

}  // namespace impreg
