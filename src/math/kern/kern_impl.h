#ifndef LOCAT_MATH_KERN_KERN_IMPL_H_
#define LOCAT_MATH_KERN_KERN_IMPL_H_

// Shared templated kernel bodies. Every backend TU instantiates MakeOps<V>
// over its 4-lane vector type V, so all backends execute the exact same
// sequence of IEEE-754 operations per element/lane and produce identical
// bits. The vector concept V provides:
//
//   static V Zero();
//   static V Broadcast(double s);
//   static V Load(const double* p);            // unaligned
//   void     Store(double* p) const;           // unaligned
//   static V Add(V a, V b);  static V Sub(V a, V b);  static V Mul(V a, V b);
//   static V Fma(V a, V b, V c);               // a * b + c, single rounding
//   static V Round(V x);                       // nearest-even, per lane
//   static V IfLess(V x, V y, V a, V b);       // lane: x < y ? a : b
//                                              // (ordered: NaN picks b)
//   static V Pow2i(V n);                       // 2^n, n integral in
//                                              // [-1075, 1023)
//
// Determinism rules for code in this header:
//   * mul-feeding-add dataflow is forbidden — the compiler may contract it
//     into an fma on one backend but not another. Use explicit Fma (or a
//     standalone Mul/Add/Sub whose result feeds nothing contractible).
//   * scalar tails must replay the exact per-lane op sequence (std::fma /
//     plain * - +) into the lane the element would have occupied.
//   * reductions end with the fixed tree (l0 + l2) + (l1 + l3).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "math/kern/kern_ops.h"

namespace locat::math::kern {

inline constexpr double kExpSatHi = 708.0;    // saturate above (exp ~ 3e307)
inline constexpr double kExpFlushLo = -708.0;  // flush to +0 below
inline constexpr double kExpClampLo = -745.0;  // keeps Pow2i's int in range
inline constexpr double kLog2e = 1.4426950408889634074;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
// Taylor coefficients 1/k!; |r| <= ln2/2 after Cody-Waite reduction, so the
// degree-13 truncation error r^14/14! is ~4e-18 — below double rounding.
inline constexpr double kExpCoef[14] = {
    1.0,
    1.0,
    1.0 / 2,
    1.0 / 6,
    1.0 / 24,
    1.0 / 120,
    1.0 / 720,
    1.0 / 5040,
    1.0 / 40320,
    1.0 / 362880,
    1.0 / 3628800,
    1.0 / 39916800,
    1.0 / 479001600,
    1.0 / 6227020800.0,
};

/// exp(2^k) by bit assembly for integral k in [-1075, 1023). Out-of-range
/// exponents produce garbage bits the callers blend away; never UB.
inline double Pow2iScalar(double n) {
  const auto k = static_cast<int64_t>(n);
  return std::bit_cast<double>(static_cast<uint64_t>(k + 1023) << 52);
}

/// The one true exp. Scalar replay of ExpV's per-lane sequence; kern::Exp
/// routes here regardless of the active backend.
inline double ExpScalar(double x) {
  double xc = x < kExpSatHi ? x : kExpSatHi;  // NaN picks the bound, like
  xc = xc < kExpClampLo ? kExpClampLo : xc;   // the vector IfLess
  const double n = std::nearbyint(xc * kLog2e);
  double r = std::fma(n, -kLn2Hi, xc);
  r = std::fma(n, -kLn2Lo, r);
  double p = kExpCoef[13];
  for (int c = 12; c >= 0; --c) p = std::fma(p, r, kExpCoef[c]);
  const double res = p * Pow2iScalar(n);
  return x < kExpFlushLo ? 0.0 : res;
}

/// x[u] = exp(x[u]) for u < U, in place. The U vectors run the same
/// per-lane sequence side by side, so their Horner chains overlap instead
/// of each exposing the full fma latency; U only changes the schedule,
/// never an element's operations.
template <class V, size_t U>
inline void ExpVN(V* x) {
  V n[U], r[U], p[U];
  #pragma GCC unroll 8
  for (size_t u = 0; u < U; ++u) {
    V xc = V::IfLess(x[u], V::Broadcast(kExpSatHi), x[u],
                     V::Broadcast(kExpSatHi));
    xc = V::IfLess(xc, V::Broadcast(kExpClampLo), V::Broadcast(kExpClampLo),
                   xc);
    n[u] = V::Round(V::Mul(xc, V::Broadcast(kLog2e)));
    r[u] = V::Fma(n[u], V::Broadcast(-kLn2Hi), xc);
    r[u] = V::Fma(n[u], V::Broadcast(-kLn2Lo), r[u]);
    p[u] = V::Broadcast(kExpCoef[13]);
  }
  for (int c = 12; c >= 0; --c) {
    #pragma GCC unroll 8
    for (size_t u = 0; u < U; ++u) {
      p[u] = V::Fma(p[u], r[u], V::Broadcast(kExpCoef[c]));
    }
  }
  #pragma GCC unroll 8
  for (size_t u = 0; u < U; ++u) {
    const V res = V::Mul(p[u], V::Pow2i(n[u]));
    x[u] = V::IfLess(x[u], V::Broadcast(kExpFlushLo), V::Zero(), res);
  }
}

template <class V>
inline V ExpV(V x) {
  ExpVN<V, 1>(&x);
  return x;
}

// ---------------------------------------------------------------------------
// Reductions.

template <class V>
double DotImpl(const double* a, const double* b, size_t n) {
  V acc = V::Zero();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = V::Fma(V::Load(a + i), V::Load(b + i), acc);
  alignas(32) double l[4];
  acc.Store(l);
  for (size_t t = 0; i + t < n; ++t) l[t] = std::fma(a[i + t], b[i + t], l[t]);
  return (l[0] + l[2]) + (l[1] + l[3]);
}

/// Four dots sharing the a-side loads: out[r] = dot(a, b + r*stride, n).
/// Each accumulator chain is op-for-op the DotImpl chain, so out[r] is
/// bit-identical to the corresponding standalone DotImpl call.
template <class V>
void Dot4Impl(const double* a, const double* b, size_t stride, size_t n,
              double* out) {
  V a0 = V::Zero(), a1 = V::Zero(), a2 = V::Zero(), a3 = V::Zero();
  const double* b0 = b;
  const double* b1 = b + stride;
  const double* b2 = b + 2 * stride;
  const double* b3 = b + 3 * stride;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V av = V::Load(a + i);
    a0 = V::Fma(av, V::Load(b0 + i), a0);
    a1 = V::Fma(av, V::Load(b1 + i), a1);
    a2 = V::Fma(av, V::Load(b2 + i), a2);
    a3 = V::Fma(av, V::Load(b3 + i), a3);
  }
  alignas(32) double l0[4], l1[4], l2[4], l3[4];
  a0.Store(l0);
  a1.Store(l1);
  a2.Store(l2);
  a3.Store(l3);
  for (size_t t = 0; i + t < n; ++t) {
    const double av = a[i + t];
    l0[t] = std::fma(av, b0[i + t], l0[t]);
    l1[t] = std::fma(av, b1[i + t], l1[t]);
    l2[t] = std::fma(av, b2[i + t], l2[t]);
    l3[t] = std::fma(av, b3[i + t], l3[t]);
  }
  out[0] = (l0[0] + l0[2]) + (l0[1] + l0[3]);
  out[1] = (l1[0] + l1[2]) + (l1[1] + l1[3]);
  out[2] = (l2[0] + l2[2]) + (l2[1] + l2[3]);
  out[3] = (l3[0] + l3[2]) + (l3[1] + l3[3]);
}

template <class V>
double SumImpl(const double* x, size_t n) {
  V acc = V::Zero();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) acc = V::Add(acc, V::Load(x + i));
  alignas(32) double l[4];
  acc.Store(l);
  for (size_t t = 0; i + t < n; ++t) l[t] = l[t] + x[i + t];
  return (l[0] + l[2]) + (l[1] + l[3]);
}

template <class V>
double SqDistImpl(const double* a, const double* b, size_t n) {
  V acc = V::Zero();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V d = V::Sub(V::Load(a + i), V::Load(b + i));
    acc = V::Fma(d, d, acc);
  }
  alignas(32) double l[4];
  acc.Store(l);
  for (size_t t = 0; i + t < n; ++t) {
    const double d = a[i + t] - b[i + t];
    l[t] = std::fma(d, d, l[t]);
  }
  return (l[0] + l[2]) + (l[1] + l[3]);
}

template <class V>
double WSqDistImpl(const double* a, const double* b, const double* w,
                   size_t n) {
  V acc = V::Zero();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V d = V::Sub(V::Load(a + i), V::Load(b + i));
    acc = V::Fma(V::Mul(V::Load(w + i), d), d, acc);
  }
  alignas(32) double l[4];
  acc.Store(l);
  for (size_t t = 0; i + t < n; ++t) {
    const double d = a[i + t] - b[i + t];
    l[t] = std::fma(w[i + t] * d, d, l[t]);
  }
  return (l[0] + l[2]) + (l[1] + l[3]);
}

/// WSqDistColsImpl for the 4P points starting at column 0 of `cols`
/// (row stride m): acc[t][p] is lane class t of points 4p..4p+3.
template <class V, size_t P>
inline void WSqDistColsBlock(const double* cols, size_t m, size_t dim,
                             const double* q, const double* w, double* out) {
  V acc[4][P];
  for (auto& lane : acc)
    for (V& a : lane) a = V::Zero();
  const auto step = [&](size_t t, size_t k) {
    const V qk = V::Broadcast(q[k]);
    const V wk = V::Broadcast(w[k]);
    const double* col = cols + k * m;
    for (size_t p = 0; p < P; ++p) {
      const V d = V::Sub(qk, V::Load(col + 4 * p));
      acc[t][p] = V::Fma(V::Mul(wk, d), d, acc[t][p]);
    }
  };
  size_t k = 0;
  for (; k + 4 <= dim; k += 4) {
    step(0, k);
    step(1, k + 1);
    step(2, k + 2);
    step(3, k + 3);
  }
  if (k < dim) step(0, k);
  if (k + 1 < dim) step(1, k + 1);
  if (k + 2 < dim) step(2, k + 2);
  for (size_t p = 0; p < P; ++p) {
    V::Add(V::Add(acc[0][p], acc[2][p]), V::Add(acc[1][p], acc[3][p]))
        .Store(out + 4 * p);
  }
}

/// out[c] = WSqDistImpl(q, point_c, w, dim) for m points stored
/// coordinate-major (coordinate k of point c at cols[k*m + c]), vectorized
/// across points. Lane class t accumulates the coordinates k == t (mod 4)
/// in ascending order, each folded as fma(w_k*d, d, acc) with
/// d = q_k - point_ck, and the classes combine as (l0 + l2) + (l1 + l3):
/// WSqDistImpl's tree, so every out[c] has the bits of the row-major call.
/// Eight points per pass keep eight independent fma chains in flight;
/// leftover points replay the lanes scalarly.
template <class V>
void WSqDistColsImpl(const double* cols, size_t m, size_t dim, const double* q,
                     const double* w, double* out) {
  size_t c = 0;
  for (; c + 8 <= m; c += 8)
    WSqDistColsBlock<V, 2>(cols + c, m, dim, q, w, out + c);
  for (; c + 4 <= m; c += 4)
    WSqDistColsBlock<V, 1>(cols + c, m, dim, q, w, out + c);
  for (; c < m; ++c) {
    double l[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t k = 0; k < dim; ++k) {
      const double d = q[k] - cols[k * m + c];
      l[k % 4] = std::fma(w[k] * d, d, l[k % 4]);
    }
    out[c] = (l[0] + l[2]) + (l[1] + l[3]);
  }
}

template <class V>
void MatVecImpl(const double* m, size_t rows, size_t cols, const double* v,
                double* out) {
  size_t r = 0;
  for (; r + 4 <= rows; r += 4) Dot4Impl<V>(v, m + r * cols, cols, cols, out + r);
  for (; r < rows; ++r) out[r] = DotImpl<V>(m + r * cols, v, cols);
}

template <class V>
void SqDistRowsImpl(const double* rows, size_t nrows, size_t dim,
                    size_t stride, const double* q, double* out) {
  for (size_t r = 0; r < nrows; ++r)
    out[r] = SqDistImpl<V>(rows + r * stride, q, dim);
}

template <class V>
void WSqDistRowsImpl(const double* rows, size_t nrows, size_t dim,
                     size_t stride, const double* q, const double* w,
                     double* out) {
  for (size_t r = 0; r < nrows; ++r)
    out[r] = WSqDistImpl<V>(rows + r * stride, q, w, dim);
}

// ---------------------------------------------------------------------------
// Elementwise kernels. Lane-independent: the scalar tail op is the exact
// per-lane op, so these are backend-invariant without a lane tree.

template <class V>
void AxpyImpl(double alpha, const double* x, double* y, size_t n) {
  const V av = V::Broadcast(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    V::Fma(av, V::Load(x + i), V::Load(y + i)).Store(y + i);
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

template <class V>
void ScaleImpl(double alpha, double* x, size_t n) {
  const V av = V::Broadcast(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) V::Mul(av, V::Load(x + i)).Store(x + i);
  for (; i < n; ++i) x[i] = alpha * x[i];
}

template <class V>
void AddSquaresImpl(const double* x, double* acc, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V xv = V::Load(x + i);
    V::Fma(xv, xv, V::Load(acc + i)).Store(acc + i);
  }
  for (; i < n; ++i) acc[i] = std::fma(x[i], x[i], acc[i]);
}

// Min follows the std::min selection rule exactly — min(a, b) =
// b < a ? b : a — built on IfLess rather than native min instructions,
// whose +-0/NaN conventions differ between ISAs. This keeps it
// bit-compatible with scalar code written against <algorithm>.
template <class V>
void MinImpl(const double* a, const double* b, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V av = V::Load(a + i);
    const V bv = V::Load(b + i);
    V::IfLess(bv, av, bv, av).Store(out + i);
  }
  for (; i < n; ++i) out[i] = std::min(a[i], b[i]);
}

template <class V>
void SubShiftImpl(const double* a, const double* b, double shift, double* out,
                  size_t n) {
  const V sv = V::Broadcast(shift);
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    V::Sub(V::Sub(V::Load(a + i), V::Load(b + i)), sv).Store(out + i);
  for (; i < n; ++i) out[i] = (a[i] - b[i]) - shift;
}

template <class V>
void ExpScaledImpl(double* x, size_t n, double pre, double post) {
  constexpr size_t kInFlight = 8;  // vectors per interleaved block
  const V prev = V::Broadcast(pre);
  const V postv = V::Broadcast(post);
  size_t i = 0;
  for (; i + 4 * kInFlight <= n; i += 4 * kInFlight) {
    V v[kInFlight];
    #pragma GCC unroll 8
    for (size_t u = 0; u < kInFlight; ++u) {
      v[u] = V::Mul(prev, V::Load(x + i + 4 * u));
    }
    ExpVN<V, kInFlight>(v);
    #pragma GCC unroll 8
    for (size_t u = 0; u < kInFlight; ++u) {
      V::Mul(postv, v[u]).Store(x + i + 4 * u);
    }
  }
  for (; i + 4 <= n; i += 4)
    V::Mul(postv, ExpV<V>(V::Mul(prev, V::Load(x + i)))).Store(x + i);
  if (i < n) {
    // Tail rides the same vector path on a zero-padded block so every
    // element sees the vector lane sequence (padding computes exp(0)).
    alignas(32) double tmp[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t t = 0; i + t < n; ++t) tmp[t] = x[i + t];
    V r = V::Mul(postv, ExpV<V>(V::Mul(prev, V::Load(tmp))));
    r.Store(tmp);
    for (size_t t = 0; i + t < n; ++t) x[i + t] = tmp[t];
  }
}

// ---------------------------------------------------------------------------
// Blocked linear algebra.

/// c = a * b in axpy form: each c[i][j] accumulates k in ascending order
/// via elementwise fma, so bits are independent of backend and of the
/// column blocking. Column blocks keep the streamed b panel cache-sized.
template <class V>
void GemmImpl(const double* a, size_t m, size_t k, const double* b, size_t n,
              double* c) {
  constexpr size_t kColBlock = 512;
  for (size_t j0 = 0; j0 < n; j0 += kColBlock) {
    const size_t jn = std::min(kColBlock, n - j0);
    for (size_t i = 0; i < m; ++i) {
      double* ci = c + i * n + j0;
      for (size_t j = 0; j < jn; ++j) ci[j] = 0.0;
      const double* ai = a + i * k;
      for (size_t kk = 0; kk < k; ++kk) {
        if (ai[kk] == 0.0) continue;  // fma(0, inf, y) would poison y
        AxpyImpl<V>(ai[kk], b + kk * n + j0, ci, jn);
      }
    }
  }
}

/// Blocked right-looking Cholesky on the lower triangle, panel width 32.
/// Panel columns factor left-looking within the block, four rows at a
/// time through Dot4Impl so the rows share the pivot row's loads (each
/// entry keeps DotImpl's chain: fma is symmetric in its product operands).
/// The trailing SYRK update then folds the panel into the remaining rows
/// with Dot4-blocked inner products. The panel width fixes the operation
/// order. Returns the first bad pivot index, or -1.
template <class V>
ptrdiff_t CholImpl(double* a, size_t n) {
  constexpr size_t kPanel = 32;
  for (size_t j0 = 0; j0 < n; j0 += kPanel) {
    const size_t jb = std::min(kPanel, n - j0);
    for (size_t j = j0; j < j0 + jb; ++j) {
      double* rj = a + j * n;
      const size_t len = j - j0;
      const double d = rj[j] - DotImpl<V>(rj + j0, rj + j0, len);
      if (!(d > 0.0) || !std::isfinite(d)) return static_cast<ptrdiff_t>(j);
      const double ljj = std::sqrt(d);
      rj[j] = ljj;
      const double inv = 1.0 / ljj;
      size_t i = j + 1;
      for (; i + 4 <= n; i += 4) {
        double d4[4];
        Dot4Impl<V>(rj + j0, a + i * n + j0, n, len, d4);
        for (size_t r = 0; r < 4; ++r) {
          double* ri = a + (i + r) * n;
          ri[j] = (ri[j] - d4[r]) * inv;
        }
      }
      for (; i < n; ++i) {
        double* ri = a + i * n;
        ri[j] = (ri[j] - DotImpl<V>(ri + j0, rj + j0, len)) * inv;
      }
    }
    const size_t e = j0 + jb;
    for (size_t i = e; i < n; ++i) {
      double* ri = a + i * n;
      const double* li = ri + j0;
      size_t j = e;
      for (; j + 4 <= i + 1; j += 4) {
        double d4[4];
        Dot4Impl<V>(li, a + j * n + j0, n, jb, d4);
        ri[j] -= d4[0];
        ri[j + 1] -= d4[1];
        ri[j + 2] -= d4[2];
        ri[j + 3] -= d4[3];
      }
      for (; j <= i; ++j) ri[j] -= DotImpl<V>(li, a + j * n + j0, jb);
    }
  }
  return -1;
}

/// Forward substitution on y (n x m) in place. Columns go in groups of 32,
/// then 16, whose slice of row i stays in eight (four) registers while
/// rows j < i fold in; the tail columns stream whole row slices through
/// Axpy. Every path gives each element the same sequence:
/// fma(-l_ij, y_j, y_i) for ascending j with l_ij != 0, then a multiply
/// by 1/l_ii.
template <class V, size_t R>
inline void SolveLowerGroup(const double* l, size_t n, double* y, size_t m,
                            size_t g) {
  for (size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double* yi = y + i * m + g;
    V r[R];
    #pragma GCC unroll 8
    for (size_t t = 0; t < R; ++t) r[t] = V::Load(yi + 4 * t);
    for (size_t j = 0; j < i; ++j) {
      if (li[j] == 0.0) continue;
      const V a = V::Broadcast(-li[j]);
      const double* yj = y + j * m + g;
      #pragma GCC unroll 8
      for (size_t t = 0; t < R; ++t) {
        r[t] = V::Fma(a, V::Load(yj + 4 * t), r[t]);
      }
    }
    const V inv = V::Broadcast(1.0 / li[i]);
    #pragma GCC unroll 8
    for (size_t t = 0; t < R; ++t) V::Mul(inv, r[t]).Store(yi + 4 * t);
  }
}

template <class V>
void SolveLowerMultiImpl(const double* l, size_t n, double* y, size_t m) {
  size_t g = 0;
  for (; g + 32 <= m; g += 32) SolveLowerGroup<V, 8>(l, n, y, m, g);
  for (; g + 16 <= m; g += 16) SolveLowerGroup<V, 4>(l, n, y, m, g);
  if (g == m) return;
  const size_t tail = m - g;
  for (size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double* yi = y + i * m + g;
    for (size_t j = 0; j < i; ++j) {
      if (li[j] == 0.0) continue;
      AxpyImpl<V>(-li[j], y + j * m + g, yi, tail);
    }
    ScaleImpl<V>(1.0 / li[i], yi, tail);
  }
}

// ---------------------------------------------------------------------------
// Bordered Cholesky append.

/// Bordered append: given the factor L (n x n, leading block of a matrix
/// with row stride `stride`) of A, and row[0..n) = k (the cross column of
/// the bordered matrix), computes in place the new factor row w = L^-1 k
/// (forward substitution, one canonical Dot per entry) and returns the
/// Schur completion d = diag - w.w. The caller takes sqrt(d) as the new
/// diagonal pivot iff d is a valid pivot (> 0 and finite).
template <class V>
double CholAppendRowImpl(const double* l, size_t n, size_t stride,
                         double* row, double diag) {
  for (size_t j = 0; j < n; ++j) {
    const double s = row[j] - DotImpl<V>(l + j * stride, row, j);
    row[j] = s / l[j * stride + j];
  }
  return diag - DotImpl<V>(row, row, n);
}

template <class V>
constexpr KernOps MakeOps() {
  return KernOps{
      &DotImpl<V>,        &SumImpl<V>,       &SqDistImpl<V>,
      &WSqDistImpl<V>,    &MatVecImpl<V>,    &SqDistRowsImpl<V>,
      &WSqDistRowsImpl<V>, &WSqDistColsImpl<V>, &AxpyImpl<V>,
      &AddSquaresImpl<V>, &MinImpl<V>,
      &SubShiftImpl<V>,   &ExpScaledImpl<V>, &GemmImpl<V>,
      &CholImpl<V>,       &SolveLowerMultiImpl<V>,
      &CholAppendRowImpl<V>,
  };
}

}  // namespace locat::math::kern

#endif  // LOCAT_MATH_KERN_KERN_IMPL_H_
