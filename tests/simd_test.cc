// The SIMD dispatch layer (linalg/simd): scalar and AVX2 kernels must
// compute the *same canonical reduction tree* — bit-identical doubles
// for every size, tail length, and index pattern — and the dispatch
// switches (forced level, IMPREG_SIMD env, probed default) must never
// change a result, only which implementation computes it.

#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/impreg.h"

namespace impreg {
namespace {

using simd::SimdLevel;

// True iff IMPREG_SIMD holds one of the scalar kill-switch values.
bool EnvSaysScalar() {
  const char* env = std::getenv("IMPREG_SIMD");
  if (env == nullptr) return false;
  std::string value(env);
  for (char& c : value) c = static_cast<char>(std::tolower(c));
  return value == "off" || value == "0" || value == "scalar" ||
         value == "false";
}

void ExpectSameBits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << a << " vs " << b;
}

std::vector<double> RandomDoubles(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextGaussian();
  return x;
}

std::vector<std::int32_t> RandomIndices(std::int64_t len, std::int32_t n,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int32_t> heads(len);
  for (std::int32_t& h : heads) {
    h = static_cast<std::int32_t>(rng.NextBounded(n));
  }
  return heads;
}

// Sizes straddling every tail case (n mod 4 ∈ {0,1,2,3}) and a few
// larger ones so the AVX2 main loops run many iterations.
const std::int64_t kSizes[] = {0, 1, 2, 3, 4,  5,  6,   7,   8,
                               9, 12, 13, 31, 64, 100, 255, 1024};

TEST(SimdTest, DotRangeScalarAndAvx2AreBitIdentical) {
  for (std::int64_t n : kSizes) {
    SCOPED_TRACE(n);
    const std::vector<double> x = RandomDoubles(n, 7 + n);
    const std::vector<double> y = RandomDoubles(n, 19 + n);
    const double scalar = simd::DotRangeScalar(x.data(), y.data(), n);
    const double avx2 = simd::DotRangeAvx2(x.data(), y.data(), n);
    ExpectSameBits(scalar, avx2);
    // The dispatch wrapper routes to the same implementations.
    ExpectSameBits(simd::DotRange(SimdLevel::kScalar, x.data(), y.data(), n),
                   scalar);
    ExpectSameBits(simd::DotRange(SimdLevel::kAvx2, x.data(), y.data(), n),
                   scalar);
  }
}

TEST(SimdTest, AxpyRangeScalarAndAvx2AreBitIdentical) {
  for (std::int64_t n : kSizes) {
    SCOPED_TRACE(n);
    const std::vector<double> x = RandomDoubles(n, 3 + n);
    const double a = 0.7071067811865476;
    std::vector<double> ys = RandomDoubles(n, 11 + n);
    std::vector<double> yv = ys;
    simd::AxpyRangeScalar(a, x.data(), ys.data(), n);
    simd::AxpyRangeAvx2(a, x.data(), yv.data(), n);
    for (std::int64_t i = 0; i < n; ++i) ExpectSameBits(ys[i], yv[i]);
  }
}

TEST(SimdTest, RowTree4HandlesRepeatedAndClusteredIndices) {
  // Gathers with duplicate indices (self-loops, multi-arcs after
  // permutation) and fully clustered ones must agree too.
  std::vector<std::vector<double>> columns;
  const double* xs[4];
  for (int j = 0; j < 4; ++j) {
    columns.push_back(RandomDoubles(16, 41 + j));
    xs[j] = columns.back().data();
  }
  const std::vector<std::int32_t> heads = {3, 3, 3, 3, 0, 15, 0, 15, 7};
  const std::int64_t len = static_cast<std::int64_t>(heads.size());
  const std::vector<double> w = RandomDoubles(len, 43);
  double out_scalar[4], out_avx2[4];
  simd::RowTree4Scalar(heads.data(), w.data(), len, xs, out_scalar);
  simd::RowTree4Avx2(heads.data(), w.data(), len, xs, out_avx2);
  for (int j = 0; j < 4; ++j) ExpectSameBits(out_scalar[j], out_avx2[j]);
}

TEST(SimdTest, RowTree4ScalarAndAvx2AreBitIdentical) {
  const std::int32_t kNodes = 256;
  std::vector<std::vector<double>> columns;
  const double* xs[4];
  for (int j = 0; j < 4; ++j) {
    columns.push_back(RandomDoubles(kNodes, 61 + j));
    xs[j] = columns.back().data();
  }
  for (std::int64_t len : kSizes) {
    SCOPED_TRACE(len);
    const std::vector<std::int32_t> heads =
        RandomIndices(len, kNodes, 67 + len);
    const std::vector<double> w = RandomDoubles(len, 71 + len);
    double out_scalar[4], out_avx2[4];
    simd::RowTree4Scalar(heads.data(), w.data(), len, xs, out_scalar);
    simd::RowTree4Avx2(heads.data(), w.data(), len, xs, out_avx2);
    for (int j = 0; j < 4; ++j) {
      SCOPED_TRACE(j);
      ExpectSameBits(out_scalar[j], out_avx2[j]);
      // Each column equals its single-vector tree.
      ExpectSameBits(out_scalar[j],
                     simd::RowTreeScalar(heads.data(), w.data(), len, xs[j]));
    }
  }
}

TEST(SimdTest, ForcedLevelOverridesDefault) {
  {
    const simd::ScopedSimdLevel scoped(SimdLevel::kScalar);
    EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kScalar);
  }
  if (simd::Avx2Supported()) {
    const simd::ScopedSimdLevel scoped(SimdLevel::kAvx2);
    EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kAvx2);
  }
}

TEST(SimdTest, ForcingAvx2WithoutSupportClampsToScalar) {
  if (simd::Avx2Supported()) GTEST_SKIP() << "AVX2 available on this machine";
  const simd::ScopedSimdLevel scoped(SimdLevel::kAvx2);
  EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(SimdTest, ScopedLevelNestsAndRestores) {
  const SimdLevel ambient = simd::ActiveSimdLevel();
  {
    const simd::ScopedSimdLevel outer(SimdLevel::kScalar);
    ASSERT_EQ(simd::ActiveSimdLevel(), SimdLevel::kScalar);
    if (simd::Avx2Supported()) {
      const simd::ScopedSimdLevel inner(SimdLevel::kAvx2);
      EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kAvx2);
    }
    EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveSimdLevel(), ambient);
}

TEST(SimdTest, DefaultDispatchIsAvx2WhereSupported) {
  // Without a forced level, every dispatched kernel runs AVX2 when it is
  // compiled in and the CPU has it.
  if (EnvSaysScalar()) GTEST_SKIP() << "IMPREG_SIMD forces scalar";
  simd::ResetSimdLevel();
  EXPECT_EQ(simd::ActiveSimdLevel(), simd::Avx2Supported()
                                         ? SimdLevel::kAvx2
                                         : SimdLevel::kScalar);
}

TEST(SimdTest, EnvOffForcesScalarWithoutAForcedLevel) {
  // The runtime kill switch: run with IMPREG_SIMD=off (the simd_env_off
  // ctest entry does) and the unforced level is scalar everywhere.
  if (!EnvSaysScalar()) GTEST_SKIP() << "IMPREG_SIMD does not say off";
  simd::ResetSimdLevel();
  EXPECT_EQ(simd::ActiveSimdLevel(), SimdLevel::kScalar);
}

TEST(SimdTest, LevelNamesAreStable) {
  EXPECT_STREQ(simd::SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(simd::SimdLevelName(SimdLevel::kAvx2), "avx2");
}

TEST(SimdTest, VectorOpsMatchUnderBothLevels) {
  // End to end through vector_ops: Dot/Axpy under forced scalar and
  // forced AVX2 give bit-identical results (on top of the per-chunk
  // kernel checks above, this covers the parallel chunk fold).
  const Vector x = [] {
    Rng rng(97);
    Vector v(100000);
    for (double& e : v) e = rng.NextGaussian();
    return v;
  }();
  const Vector y = [] {
    Rng rng(101);
    Vector v(100000);
    for (double& e : v) e = rng.NextGaussian();
    return v;
  }();
  double dot_scalar, dot_avx2;
  Vector axpy_scalar, axpy_avx2;
  {
    const simd::ScopedSimdLevel scoped(SimdLevel::kScalar);
    dot_scalar = Dot(x, y);
    axpy_scalar = y;
    Axpy(0.25, x, axpy_scalar);
  }
  {
    const simd::ScopedSimdLevel scoped(SimdLevel::kAvx2);
    dot_avx2 = Dot(x, y);
    axpy_avx2 = y;
    Axpy(0.25, x, axpy_avx2);
  }
  ExpectSameBits(dot_scalar, dot_avx2);
  ASSERT_EQ(axpy_scalar.size(), axpy_avx2.size());
  for (std::size_t i = 0; i < axpy_scalar.size(); ++i) {
    ExpectSameBits(axpy_scalar[i], axpy_avx2[i]);
  }
}

TEST(SimdTest, OperatorApplyMatchesUnderBothLevels) {
  // The CSR kernels end to end: SpMV and the 4-column SpMM block under
  // forced scalar vs forced AVX2, on a graph with self-loops and skewed
  // degrees.
  Rng rng(13);
  const Graph g = BarabasiAlbert(4000, 5, rng);
  const NormalizedLaplacianOperator laplacian(g);
  const LazyWalkOperator walk(g, 0.5);
  const Vector x = [&] {
    Rng r(17);
    Vector v(g.NumNodes());
    for (double& e : v) e = r.NextGaussian();
    return v;
  }();
  std::vector<Vector> batch;
  for (int j = 0; j < 6; ++j) {
    Rng r(23 + j);
    Vector v(g.NumNodes());
    for (double& e : v) e = r.NextGaussian();
    batch.push_back(std::move(v));
  }
  Vector spmv_scalar, spmv_avx2;
  std::vector<Vector> spmm_scalar, spmm_avx2;
  {
    const simd::ScopedSimdLevel scoped(SimdLevel::kScalar);
    spmv_scalar = laplacian.Apply(x);
    spmm_scalar = walk.ApplyBatch(batch);
  }
  {
    const simd::ScopedSimdLevel scoped(SimdLevel::kAvx2);
    spmv_avx2 = laplacian.Apply(x);
    spmm_avx2 = walk.ApplyBatch(batch);
  }
  ASSERT_EQ(spmv_scalar.size(), spmv_avx2.size());
  for (std::size_t i = 0; i < spmv_scalar.size(); ++i) {
    ExpectSameBits(spmv_scalar[i], spmv_avx2[i]);
  }
  ASSERT_EQ(spmm_scalar.size(), spmm_avx2.size());
  for (std::size_t j = 0; j < spmm_scalar.size(); ++j) {
    for (std::size_t i = 0; i < spmm_scalar[j].size(); ++i) {
      ExpectSameBits(spmm_scalar[j][i], spmm_avx2[j][i]);
    }
  }
}

}  // namespace
}  // namespace impreg
