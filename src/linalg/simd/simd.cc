#include "linalg/simd/simd.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

namespace impreg::simd {

namespace {

/// Forced level, or -1 when dispatch follows the probed default.
std::atomic<int> g_forced{-1};

bool CpuHasAvx2Fma() {
#if defined(IMPREG_SIMD_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// True iff the IMPREG_SIMD environment variable is the scalar kill
/// switch ("off"/"0"/"scalar"/"false", any case). Other values are
/// ignored.
bool EnvSaysScalar() {
  const char* env = std::getenv("IMPREG_SIMD");
  if (env == nullptr) return false;
  std::string value(env);
  for (char& c : value) c = static_cast<char>(std::tolower(c));
  return value == "off" || value == "0" || value == "scalar" ||
         value == "false";
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2Supported() {
  static const bool supported = CpuHasAvx2Fma();
  return supported;
}

SimdLevel ActiveSimdLevel() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  static const SimdLevel probed = Avx2Supported() && !EnvSaysScalar()
                                      ? SimdLevel::kAvx2
                                      : SimdLevel::kScalar;
  return probed;
}

void ForceSimdLevel(SimdLevel level) {
  if (level == SimdLevel::kAvx2 && !Avx2Supported()) {
    level = SimdLevel::kScalar;
  }
  g_forced.store(static_cast<int>(level), std::memory_order_relaxed);
}

void ResetSimdLevel() { g_forced.store(-1, std::memory_order_relaxed); }

ScopedSimdLevel::ScopedSimdLevel(SimdLevel level)
    : previous_(g_forced.load(std::memory_order_relaxed)) {
  ForceSimdLevel(level);
}

ScopedSimdLevel::~ScopedSimdLevel() {
  g_forced.store(previous_, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Dispatching wrappers for the dense (chunk-sized) kernels. The scalar
// twins themselves are inline in simd.h so the hot loops inline them.
// ---------------------------------------------------------------------------

double DotRange(SimdLevel level, const double* x, const double* y,
                std::int64_t n) {
  return level == SimdLevel::kAvx2 ? DotRangeAvx2(x, y, n)
                                   : DotRangeScalar(x, y, n);
}

void AxpyRange(SimdLevel level, double a, const double* x, double* y,
               std::int64_t n) {
  if (level == SimdLevel::kAvx2) {
    AxpyRangeAvx2(a, x, y, n);
  } else {
    AxpyRangeScalar(a, x, y, n);
  }
}

}  // namespace impreg::simd
