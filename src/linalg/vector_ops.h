#ifndef IMPREG_LINALG_VECTOR_OPS_H_
#define IMPREG_LINALG_VECTOR_OPS_H_

#include <cstdint>
#include <vector>

/// \file
/// Dense vector kernels shared by every iterative method in the library.
/// Vectors are plain std::vector<double>; all functions check (in debug
/// builds) that dimensions agree.

namespace impreg {

using Vector = std::vector<double>;

/// x · y.
double Dot(const Vector& x, const Vector& y);

/// Euclidean norm ‖x‖₂.
double Norm2(const Vector& x);

/// ‖x‖₁.
double Norm1(const Vector& x);

/// ‖x‖∞.
double NormInf(const Vector& x);

/// y ← y + a·x.
void Axpy(double a, const Vector& x, Vector& y);

/// x ← a·x.
void Scale(double a, Vector& x);

/// Normalizes x to unit Euclidean length. Returns the original norm;
/// leaves x untouched (and returns 0) if it is the zero vector.
double Normalize(Vector& x);

/// Removes the component of x along `direction` (which need not be
/// normalized): x ← x − (x·d / d·d) d. No-op if d is zero.
void ProjectOut(const Vector& direction, Vector& x);

/// Σᵢ xᵢ.
double Sum(const Vector& x);

/// Element-wise difference norm ‖x − y‖₂.
double DistanceL2(const Vector& x, const Vector& y);

/// ‖x − y‖₁.
double DistanceL1(const Vector& x, const Vector& y);

/// Distance up to sign: min(‖x−y‖₂, ‖x+y‖₂). Eigenvectors are only
/// defined up to sign, so comparisons use this.
double DistanceUpToSign(const Vector& x, const Vector& y);

/// The D-weighted inner product Σᵢ dᵢ xᵢ yᵢ.
double WeightedDot(const Vector& weights, const Vector& x, const Vector& y);

/// True iff every entry is finite (no NaN/Inf). This is the non-finite
/// sentinel of the failure-containment layer: solvers call it on their
/// iterates every few iterations (and on inputs up front) so a NaN
/// produced anywhere fails fast with SolveStatus::kNonFinite instead of
/// spinning to the iteration cap on poisoned comparisons.
bool AllFinite(const Vector& x);

}  // namespace impreg

#endif  // IMPREG_LINALG_VECTOR_OPS_H_
