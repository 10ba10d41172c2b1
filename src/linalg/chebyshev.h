#ifndef IMPREG_LINALG_CHEBYSHEV_H_
#define IMPREG_LINALG_CHEBYSHEV_H_

#include "core/solve_status.h"
#include "linalg/operator.h"

/// \file
/// Chebyshev semi-iteration for SPD systems with known spectrum bounds.
///
/// For the PageRank system (γI + (1−γ)ℒ) x = b the spectrum is known
/// analytically — [γ, γ + 2(1−γ)] — which is exactly the situation
/// Chebyshev acceleration wants: it converges like CG (√κ rate) but
/// with a fixed, inner-product-free recurrence, the property that made
/// such methods attractive in the distributed/streaming settings the
/// paper's §3.3 gestures at (no global reductions per step).

namespace impreg {

/// Options for ChebyshevSolve.
struct ChebyshevOptions {
  int max_iterations = 2000;
  /// Convergence: ‖r‖₂ ≤ tolerance · ‖b‖₂.
  double relative_tolerance = 1e-10;
};

/// Result of a Chebyshev solve. `x` is always finite. Chebyshev has no
/// inner products to keep it honest, so the residual trajectory is
/// watched: sustained growth far past the best residual seen (wrong
/// eigenvalue bounds make the recurrence amplify instead of damp) stops
/// the solve with diagnostics.status = kBreakdown and returns the
/// best-so-far iterate; callers can then fall back to a plain power
/// iteration (see PersonalizedPageRankChebyshev).
struct ChebyshevResult {
  Vector x;
  int iterations = 0;
  double residual_norm = 0.0;
  SolverDiagnostics diagnostics;
};

/// Solves A x = b for SPD A whose spectrum lies in
/// [lambda_min, lambda_max] (0 < lambda_min ≤ lambda_max).
ChebyshevResult ChebyshevSolve(const LinearOperator& a, const Vector& b,
                               double lambda_min, double lambda_max,
                               const ChebyshevOptions& options = {});

}  // namespace impreg

#endif  // IMPREG_LINALG_CHEBYSHEV_H_
