/// AVX2 implementations of the canonical reduction trees declared in
/// simd.h. This translation unit is the only one compiled with
/// `-mavx2 -mfma` — and, crucially, with `-ffp-contract=off`: GCC is
/// otherwise free to contract `_mm256_mul_pd` + `_mm256_add_pd` into a
/// single-rounding FMA, which would break bit-identity with the
/// two-rounding scalar twins. When the IMPREG_SIMD cmake option is off
/// (or the target is not x86), every entry point forwards to its scalar
/// twin so callers link unconditionally.

#include "linalg/simd/simd.h"

#if defined(IMPREG_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

namespace impreg::simd {

namespace {

/// (lane0 + lane2) + (lane1 + lane3) — the canonical cross-lane fold.
/// castpd256_pd128 yields (lane0, lane1); extractf128 yields
/// (lane2, lane3); one vertical add pairs 0+2 and 1+3; the final scalar
/// add matches the scalar twins' outer parenthesisation.
inline double FoldLanes(__m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

}  // namespace

double DotRangeAvx2(const double* x, const double* y, std::int64_t n) {
  const std::int64_t main = n & ~std::int64_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (std::int64_t i = 0; i < main; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(xv, yv));
  }
  double sum = FoldLanes(acc);
  for (std::int64_t i = main; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void AxpyRangeAvx2(double a, const double* x, double* y, std::int64_t n) {
  const std::int64_t main = n & ~std::int64_t{3};
  const __m256d av = _mm256_set1_pd(a);
  for (std::int64_t i = 0; i < main; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d yv = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
  }
  for (std::int64_t i = main; i < n; ++i) y[i] += a * x[i];
}

void RowTree4Avx2(const std::int32_t* heads, const double* w,
                  std::int64_t len, const double* const* xs, double* out) {
  // Lane j of every vector is column j; acc_l holds stripe l of all four
  // columns, so the vertical fold below is the canonical per-column tree.
  const std::int64_t main = len & ~std::int64_t{3};
  const double* x0 = xs[0];
  const double* x1 = xs[1];
  const double* x2 = xs[2];
  const double* x3 = xs[3];
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::int64_t a = 0; a < main; a += 4) {
    const std::int32_t v0 = heads[a];
    const std::int32_t v1 = heads[a + 1];
    const std::int32_t v2 = heads[a + 2];
    const std::int32_t v3 = heads[a + 3];
    const __m256d g0 = _mm256_set_pd(x3[v0], x2[v0], x1[v0], x0[v0]);
    const __m256d g1 = _mm256_set_pd(x3[v1], x2[v1], x1[v1], x0[v1]);
    const __m256d g2 = _mm256_set_pd(x3[v2], x2[v2], x1[v2], x0[v2]);
    const __m256d g3 = _mm256_set_pd(x3[v3], x2[v3], x1[v3], x0[v3]);
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(w[a]), g0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(w[a + 1]), g1));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(w[a + 2]), g2));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(w[a + 3]), g3));
  }
  __m256d tree = _mm256_add_pd(_mm256_add_pd(acc0, acc2),
                               _mm256_add_pd(acc1, acc3));
  for (std::int64_t a = main; a < len; ++a) {
    const std::int32_t v = heads[a];
    const __m256d g = _mm256_set_pd(x3[v], x2[v], x1[v], x0[v]);
    tree = _mm256_add_pd(tree, _mm256_mul_pd(_mm256_set1_pd(w[a]), g));
  }
  _mm256_storeu_pd(out, tree);
}

}  // namespace impreg::simd

#else  // AVX2 unit compiled out: forward to the scalar twins.

namespace impreg::simd {

double DotRangeAvx2(const double* x, const double* y, std::int64_t n) {
  return DotRangeScalar(x, y, n);
}

void AxpyRangeAvx2(double a, const double* x, double* y, std::int64_t n) {
  AxpyRangeScalar(a, x, y, n);
}

void RowTree4Avx2(const std::int32_t* heads, const double* w,
                  std::int64_t len, const double* const* xs, double* out) {
  RowTree4Scalar(heads, w, len, xs, out);
}

}  // namespace impreg::simd

#endif
