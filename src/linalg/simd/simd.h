#ifndef IMPREG_LINALG_SIMD_SIMD_H_
#define IMPREG_LINALG_SIMD_SIMD_H_

#include <cstdint>

/// \file
/// Runtime-dispatched SIMD kernels for the three hot loops: the
/// register-blocked ApplyBatch SpMM and the dense axpy/dot in
/// vector_ops. Each has a portable scalar implementation and an AVX2
/// one, and both compute the *same canonical reduction tree*, so the
/// dispatch decision never changes a result bit (pinned by
/// determinism_test and simd_test). The single-vector CSR SpMV row runs
/// the scalar tree only: its irregular x[heads[a]] loads left an AVX2
/// version spending its time packing lanes, 10–30% slower.
///
/// Canonical reduction trees (see docs/simd.md for the full rules):
///
///  - Dot over a range of n elements splits the leading 4-aligned prefix
///    into four striped lanes (lane l sums elements i ≡ l mod 4), folds
///    them as (lane0 + lane2) + (lane1 + lane3) — exactly the AVX2
///    horizontal add — then appends the ≤3 tail elements sequentially.
///  - CSR row reduction uses the same striped tree over a row's arcs
///    (products w[a]·x[heads[a]] in arc order); a row's tree value is
///    combined with the operator's init term by the caller as
///    `init ± tree`, one rounding, identical in both paths. Rows with
///    no arcs return the init term untouched.
///  - Axpy/scale-style elementwise loops carry no cross-lane reduction
///    and are bit-identical in any width by construction.
///
/// Neither path may use FMA contraction in a value-producing expression:
/// an FMA rounds once where mul+add rounds twice, so the AVX2
/// translation unit is compiled with `-ffp-contract=off`.
///
/// Dispatch: `ActiveSimdLevel()` is one level for every kernel. It
/// probes CPUID once (AVX2 and FMA flags) and honours the
/// `IMPREG_SIMD=OFF` cmake option (compiles the AVX2 unit out entirely)
/// plus the `IMPREG_SIMD` environment variable (read once, at first
/// use): "off"/"0"/"scalar"/"false" force scalar; any other value is
/// ignored. Otherwise the level is AVX2 wherever it is supported (the
/// block kernel measures ~1.5× scalar — see bench/micro_kernels). Tests
/// and benchmarks pin a level with `ForceSimdLevel`/`ScopedSimdLevel`,
/// which override both.

namespace impreg::simd {

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
};

/// "scalar" or "avx2".
const char* SimdLevelName(SimdLevel level);

/// True iff the AVX2 unit was compiled in (IMPREG_SIMD cmake option on,
/// x86-64 compiler) AND the running CPU reports AVX2+FMA.
bool Avx2Supported();

/// The level the dense and block-4 kernels dispatch on: a forced level
/// if one is set, else scalar if the env switch says off, else the
/// probed default described above.
SimdLevel ActiveSimdLevel();

/// Pins the dispatch level (tests/benches). Forcing kAvx2 on a machine
/// without AVX2 support clamps to kScalar rather than crashing, so
/// scalar-vs-simd sweeps stay runnable everywhere.
void ForceSimdLevel(SimdLevel level);

/// Clears a forced level; dispatch returns to the probed default.
void ResetSimdLevel();

/// RAII pin: forces `level` for the scope, restores the previous state
/// (forced or probed) on exit.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level);
  ~ScopedSimdLevel();
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  int previous_;  // forced level before, or -1 if none was forced
};

// ---------------------------------------------------------------------------
// Dense kernels (one call per ParallelFor/ParallelReduce chunk).
// ---------------------------------------------------------------------------

/// Σ x[i]·y[i] over [0, n) with the canonical striped tree.
double DotRange(SimdLevel level, const double* x, const double* y,
                std::int64_t n);

/// y[i] += a·x[i] over [0, n).
void AxpyRange(SimdLevel level, double a, const double* x, double* y,
               std::int64_t n);

// ---------------------------------------------------------------------------
// Scalar twins: the canonical reduction trees, defined inline so the CSR
// row loops in graph_operators.cc inline them (one definition, shared by
// the dispatch wrappers, the hot loops, and the tests). The AVX2 unit
// mirrors these shapes exactly; any change here must be mirrored there
// (simd_test cross-checks every kernel pair bit for bit).
// ---------------------------------------------------------------------------

/// Σ x[i]·y[i] with the canonical striped tree.
inline double DotRangeScalar(const double* x, const double* y,
                             std::int64_t n) {
  const std::int64_t main = n & ~std::int64_t{3};
  double lane0 = 0.0, lane1 = 0.0, lane2 = 0.0, lane3 = 0.0;
  for (std::int64_t i = 0; i < main; i += 4) {
    lane0 += x[i] * y[i];
    lane1 += x[i + 1] * y[i + 1];
    lane2 += x[i + 2] * y[i + 2];
    lane3 += x[i + 3] * y[i + 3];
  }
  double sum = (lane0 + lane2) + (lane1 + lane3);
  for (std::int64_t i = main; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

/// y[i] += a·x[i] — elementwise, no reduction tree to pin.
inline void AxpyRangeScalar(double a, const double* x, double* y,
                            std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

// ---------------------------------------------------------------------------
// CSR row kernels (one call per row; the caller applies init/finish).
// ---------------------------------------------------------------------------

/// Canonical striped tree over one row's arcs: Σ w[a]·x[heads[a]],
/// a ∈ [0, len). Returns 0.0 for an empty row (callers short-circuit
/// empty rows before folding in the init term, preserving its sign bit).
inline double RowTreeScalar(const std::int32_t* heads, const double* w,
                            std::int64_t len, const double* x) {
  const std::int64_t main = len & ~std::int64_t{3};
  double lane0 = 0.0, lane1 = 0.0, lane2 = 0.0, lane3 = 0.0;
  for (std::int64_t a = 0; a < main; a += 4) {
    lane0 += w[a] * x[heads[a]];
    lane1 += w[a + 1] * x[heads[a + 1]];
    lane2 += w[a + 2] * x[heads[a + 2]];
    lane3 += w[a + 3] * x[heads[a + 3]];
  }
  double sum = (lane0 + lane2) + (lane1 + lane3);
  for (std::int64_t a = main; a < len; ++a) sum += w[a] * x[heads[a]];
  return sum;
}

/// Four-column variant sharing one traversal: out[j] is the canonical
/// tree of column j, bit-identical to RowTreeScalar(heads, w, len, xs[j]).
inline void RowTree4Scalar(const std::int32_t* heads, const double* w,
                           std::int64_t len, const double* const* xs,
                           double* out) {
  const std::int64_t main = len & ~std::int64_t{3};
  double lane[4][4] = {};  // lane[l][j]: stripe l of column j
  for (std::int64_t a = 0; a < main; a += 4) {
    for (int l = 0; l < 4; ++l) {
      const std::int32_t v = heads[a + l];
      const double wa = w[a + l];
      for (int j = 0; j < 4; ++j) lane[l][j] += wa * xs[j][v];
    }
  }
  for (int j = 0; j < 4; ++j) {
    out[j] = (lane[0][j] + lane[2][j]) + (lane[1][j] + lane[3][j]);
  }
  for (std::int64_t a = main; a < len; ++a) {
    const std::int32_t v = heads[a];
    const double wa = w[a];
    for (int j = 0; j < 4; ++j) out[j] += wa * xs[j][v];
  }
}

/// AVX2 implementations of the same trees (cross-column lanes for the
/// 4-column block). When the AVX2 unit is compiled out these forward to
/// the scalar twins so callers can link unconditionally; dispatch never
/// selects them in that configuration.
void RowTree4Avx2(const std::int32_t* heads, const double* w,
                  std::int64_t len, const double* const* xs, double* out);
double DotRangeAvx2(const double* x, const double* y, std::int64_t n);
void AxpyRangeAvx2(double a, const double* x, double* y, std::int64_t n);

}  // namespace impreg::simd

#endif  // IMPREG_LINALG_SIMD_SIMD_H_
