#include "linalg/graph_operators.h"

#include <cmath>
#include <cstddef>

#include "core/parallel.h"
#include "linalg/simd/simd.h"
#include "util/check.h"

namespace impreg {

namespace {

/// Rows per parallel chunk for the CSR matvecs. Each row owns its output
/// element, so row ranges partition the work with no write conflicts;
/// results are elementwise identical for any thread count.
constexpr std::int64_t kRowGrain = 512;

/// Register-blocked CSR kernel over the row range [begin, end): for each
/// of the B columns, the row's arc products w[a]·x_j[heads[a]] are summed
/// with the canonical striped tree (simd::RowTreeScalar — four lanes over
/// the 4-aligned prefix, sequential tail), the operator's init term is
/// folded in as one `init ± tree` rounding, and ys[j][u] =
/// finish(x_j, u, acc). The arc loop reads `heads`/`w` once per arc and
/// reuses them across all B accumulators, which is where SpMM beats k
/// separate SpMVs. Per-column accumulation is exactly the B == 1 tree,
/// so every column is bit-identical to a single-vector apply — and the
/// same tree is what the AVX2 path computes, so dispatch never changes a
/// bit. Rows with no arcs return the init term untouched (sign bit and
/// all). Subtraction is a compile-time flag: `init - tree` must stay
/// textually a subtraction to pin its rounding.
template <bool Subtract, int B, class Init, class Finish>
void SpmmRows(const ArcIndex* offsets, const NodeId* heads, const double* w,
              std::int64_t begin, std::int64_t end, const double* const* xs,
              double* const* ys, const Init& init, const Finish& finish) {
  for (std::int64_t u = begin; u < end; ++u) {
    const ArcIndex row_begin = offsets[u];
    const std::int64_t len = offsets[u + 1] - row_begin;
    if (len == 0) {
      for (int j = 0; j < B; ++j) ys[j][u] = finish(xs[j], u, init(xs[j], u));
      continue;
    }
    double tree[B];
    if constexpr (B == 4) {
      simd::RowTree4Scalar(heads + row_begin, w + row_begin, len, xs, tree);
    } else {
      for (int j = 0; j < B; ++j) {
        tree[j] = simd::RowTreeScalar(heads + row_begin, w + row_begin, len,
                                      xs[j]);
      }
    }
    for (int j = 0; j < B; ++j) {
      const double acc = Subtract ? init(xs[j], u) - tree[j]
                                  : init(xs[j], u) + tree[j];
      ys[j][u] = finish(xs[j], u, acc);
    }
  }
}

/// Single-vector CSR apply: the B == 1 instantiation of SpmmRows under
/// the deterministic row partition (scalar tree; see linalg/simd/simd.h
/// for why the row gather has no AVX2 path).
template <bool Subtract, class Init, class Finish>
void SpmvCsr(const Graph& g, const double* w, const Vector& x, Vector& y,
             const Init& init, const Finish& finish) {
  y.resize(x.size());
  const ArcIndex* offsets = g.Offsets().data();
  const NodeId* heads = g.Heads().data();
  const double* xp = x.data();
  double* yp = y.data();
  ParallelFor(0, g.NumNodes(), kRowGrain,
              [&](std::int64_t begin, std::int64_t end) {
                SpmmRows<Subtract, 1>(offsets, heads, w, begin, end, &xp,
                                      &yp, init, finish);
              });
}

/// Batched CSR apply: columns are processed in register blocks of four
/// (tails of 3/2/1), each block sharing one traversal of the row range.
template <bool Subtract, class Init, class Finish>
void SpmmCsr(const Graph& g, const double* w, const std::vector<Vector>& xs,
             std::vector<Vector>& ys, const Init& init, const Finish& finish) {
  const std::size_t k = xs.size();
  const NodeId n = g.NumNodes();
  for (const Vector& x : xs) {
    IMPREG_DCHECK(static_cast<NodeId>(x.size()) == n);
    (void)x;
  }
  ys.resize(k);
  for (Vector& y : ys) y.resize(n);
  if (k == 0 || n == 0) return;

  std::vector<const double*> xp(k);
  std::vector<double*> yp(k);
  for (std::size_t j = 0; j < k; ++j) {
    xp[j] = xs[j].data();
    yp[j] = ys[j].data();
  }
  const ArcIndex* offsets = g.Offsets().data();
  const NodeId* heads = g.Heads().data();
  const bool avx2 = simd::ActiveSimdLevel() == simd::SimdLevel::kAvx2;
  ParallelFor(0, n, kRowGrain, [&](std::int64_t begin, std::int64_t end) {
    std::size_t j = 0;
    for (; j + 4 <= k; j += 4) {
      if (avx2) {
        // Cross-column AVX2 block: vector lane = column, per-column
        // accumulation is the same canonical tree as the scalar path.
        const double* const* xsj = &xp[j];
        double* const* ysj = &yp[j];
        for (std::int64_t u = begin; u < end; ++u) {
          const ArcIndex row_begin = offsets[u];
          const std::int64_t len = offsets[u + 1] - row_begin;
          double tree[4];
          if (len == 0) {
            for (int c = 0; c < 4; ++c) {
              ysj[c][u] = finish(xsj[c], u, init(xsj[c], u));
            }
            continue;
          }
          simd::RowTree4Avx2(heads + row_begin, w + row_begin, len, xsj,
                             tree);
          for (int c = 0; c < 4; ++c) {
            const double acc = Subtract ? init(xsj[c], u) - tree[c]
                                        : init(xsj[c], u) + tree[c];
            ysj[c][u] = finish(xsj[c], u, acc);
          }
        }
        continue;
      }
      SpmmRows<Subtract, 4>(offsets, heads, w, begin, end, &xp[j], &yp[j],
                            init, finish);
    }
    switch (k - j) {
      case 3:
        SpmmRows<Subtract, 3>(offsets, heads, w, begin, end, &xp[j], &yp[j],
                              init, finish);
        break;
      case 2:
        SpmmRows<Subtract, 2>(offsets, heads, w, begin, end, &xp[j], &yp[j],
                              init, finish);
        break;
      case 1:
        SpmmRows<Subtract, 1>(offsets, heads, w, begin, end, &xp[j], &yp[j],
                              init, finish);
        break;
      default:
        break;
    }
  });
}

/// w(u,v) scaled by `scale[head]` for every arc — the head-side half of a
/// degree normalization, shared by ℒ (d^{-1/2}) and M / W_α (d^{-1}).
Vector FoldHeadScale(const Graph& g, const Vector& scale) {
  const auto heads = g.Heads();
  const auto weights = g.Weights();
  Vector folded(heads.size());
  for (std::size_t a = 0; a < heads.size(); ++a) {
    folded[a] = weights[a] * scale[heads[a]];
  }
  return folded;
}

const auto kZeroInit = [](const double*, std::int64_t) { return 0.0; };
const auto kSumFinish = [](const double*, std::int64_t, double acc) {
  return acc;
};

}  // namespace

void AdjacencyOperator::Apply(const Vector& x, Vector& y) const {
  IMPREG_DCHECK(static_cast<int>(x.size()) == Dimension());
  SpmvCsr<false>(graph_, graph_.Weights().data(), x, y, kZeroInit,
                 kSumFinish);
}

void AdjacencyOperator::ApplyBatch(const std::vector<Vector>& xs,
                                   std::vector<Vector>& ys) const {
  SpmmCsr<false>(graph_, graph_.Weights().data(), xs, ys, kZeroInit,
                 kSumFinish);
}

void CombinatorialLaplacianOperator::Apply(const Vector& x, Vector& y) const {
  IMPREG_DCHECK(static_cast<int>(x.size()) == Dimension());
  const double* deg = graph_.Degrees().data();
  const auto init = [deg](const double* xj, std::int64_t u) {
    return deg[u] * xj[u];
  };
  SpmvCsr<true>(graph_, graph_.Weights().data(), x, y, init, kSumFinish);
}

void CombinatorialLaplacianOperator::ApplyBatch(const std::vector<Vector>& xs,
                                                std::vector<Vector>& ys) const {
  const double* deg = graph_.Degrees().data();
  const auto init = [deg](const double* xj, std::int64_t u) {
    return deg[u] * xj[u];
  };
  SpmmCsr<true>(graph_, graph_.Weights().data(), xs, ys, init, kSumFinish);
}

NormalizedLaplacianOperator::NormalizedLaplacianOperator(const Graph& graph)
    : graph_(graph) {
  const NodeId n = graph_.NumNodes();
  inv_sqrt_deg_.assign(n, 0.0);
  trivial_.assign(n, 0.0);
  double norm_sq = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    const double d = graph_.Degree(u);
    if (d > 0.0) {
      inv_sqrt_deg_[u] = 1.0 / std::sqrt(d);
      trivial_[u] = std::sqrt(d);
      norm_sq += d;
    }
  }
  if (norm_sq > 0.0) {
    const double inv_norm = 1.0 / std::sqrt(norm_sq);
    for (double& v : trivial_) v *= inv_norm;
  }
  folded_weights_ = FoldHeadScale(graph_, inv_sqrt_deg_);
}

void NormalizedLaplacianOperator::Apply(const Vector& x, Vector& y) const {
  IMPREG_DCHECK(static_cast<int>(x.size()) == Dimension());
  const double* isd = inv_sqrt_deg_.data();
  const auto finish = [isd](const double* xj, std::int64_t u, double acc) {
    // Isolated: row is zero (acc is 0 anyway — no arcs).
    return isd[u] == 0.0 ? 0.0 : xj[u] - isd[u] * acc;
  };
  SpmvCsr<false>(graph_, folded_weights_.data(), x, y, kZeroInit, finish);
}

void NormalizedLaplacianOperator::ApplyBatch(const std::vector<Vector>& xs,
                                             std::vector<Vector>& ys) const {
  const double* isd = inv_sqrt_deg_.data();
  const auto finish = [isd](const double* xj, std::int64_t u, double acc) {
    return isd[u] == 0.0 ? 0.0 : xj[u] - isd[u] * acc;
  };
  SpmmCsr<false>(graph_, folded_weights_.data(), xs, ys, kZeroInit, finish);
}

RandomWalkOperator::RandomWalkOperator(const Graph& graph) : graph_(graph) {
  Vector inv_deg(graph_.NumNodes(), 0.0);
  for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
    const double d = graph_.Degree(u);
    if (d > 0.0) inv_deg[u] = 1.0 / d;
  }
  folded_weights_ = FoldHeadScale(graph_, inv_deg);
}

void RandomWalkOperator::Apply(const Vector& x, Vector& y) const {
  IMPREG_DCHECK(static_cast<int>(x.size()) == Dimension());
  // y = A D^{-1} x: node v pushes x_v/d_v along each incident edge.
  SpmvCsr<false>(graph_, folded_weights_.data(), x, y, kZeroInit, kSumFinish);
}

void RandomWalkOperator::ApplyBatch(const std::vector<Vector>& xs,
                                    std::vector<Vector>& ys) const {
  SpmmCsr<false>(graph_, folded_weights_.data(), xs, ys, kZeroInit,
                 kSumFinish);
}

LazyWalkOperator::LazyWalkOperator(const Graph& graph, double alpha)
    : graph_(graph), alpha_(alpha) {
  IMPREG_CHECK(alpha >= 0.0 && alpha <= 1.0);
  Vector inv_deg(graph_.NumNodes(), 0.0);
  for (NodeId u = 0; u < graph_.NumNodes(); ++u) {
    const double d = graph_.Degree(u);
    if (d > 0.0) inv_deg[u] = 1.0 / d;
  }
  folded_weights_ = FoldHeadScale(graph_, inv_deg);
}

void LazyWalkOperator::Apply(const Vector& x, Vector& y) const {
  IMPREG_DCHECK(static_cast<int>(x.size()) == Dimension());
  const double* deg = graph_.Degrees().data();
  const double alpha = alpha_;
  const auto finish = [deg, alpha](const double* xj, std::int64_t u,
                                   double acc) {
    // Isolated nodes (d=0) keep all their mass.
    return deg[u] > 0.0 ? alpha * xj[u] + (1.0 - alpha) * acc : xj[u];
  };
  SpmvCsr<false>(graph_, folded_weights_.data(), x, y, kZeroInit, finish);
}

void LazyWalkOperator::ApplyBatch(const std::vector<Vector>& xs,
                                  std::vector<Vector>& ys) const {
  const double* deg = graph_.Degrees().data();
  const double alpha = alpha_;
  const auto finish = [deg, alpha](const double* xj, std::int64_t u,
                                   double acc) {
    return deg[u] > 0.0 ? alpha * xj[u] + (1.0 - alpha) * acc : xj[u];
  };
  SpmmCsr<false>(graph_, folded_weights_.data(), xs, ys, kZeroInit, finish);
}

Vector TrivialNormalizedEigenvector(const Graph& graph) {
  Vector v(graph.NumNodes(), 0.0);
  double norm_sq = 0.0;
  for (NodeId u = 0; u < graph.NumNodes(); ++u) {
    const double d = graph.Degree(u);
    if (d > 0.0) {
      v[u] = std::sqrt(d);
      norm_sq += d;
    }
  }
  if (norm_sq > 0.0) {
    const double inv = 1.0 / std::sqrt(norm_sq);
    for (double& value : v) value *= inv;
  }
  return v;
}

}  // namespace impreg
