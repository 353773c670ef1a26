#ifndef LOCAT_MATH_KERN_KERN_H_
#define LOCAT_MATH_KERN_KERN_H_

#include <cstddef>

namespace locat::math::kern {

/// Runtime-dispatched SIMD microkernels under the GP/KPCA hot path:
/// reductions, fused squared distances, a shared polynomial vector exp,
/// cache-blocked GEMM/SYRK tiles, a blocked right-looking Cholesky, and
/// blocked triangular solves.
///
/// Determinism contract: every backend is one instantiation of the same
/// templated kernel body over a 4-lane vector abstraction (AVX2 = one
/// __m256d, NEON = two float64x2_t, scalar = four doubles + std::fma), so
/// every backend executes the same sequence of IEEE-754 operations per
/// element and per reduction lane. Reductions use a fixed 4-lane
/// accumulator tree — lane l accumulates elements i with i % 4 == l via
/// fused multiply-adds, tails fold into their lane scalarly, and the final
/// reduction is always (l0 + l2) + (l1 + l3). Exp() is a shared
/// Cody-Waite + degree-13 Horner polynomial (never libm). Consequently
/// results are bit-identical across LOCAT_SIMD=off/scalar/native on a
/// machine, and the scalar backend stays the portable fallback (no ISA
/// flags; std::fma is correctly rounded everywhere).
enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// The backend all kern:: entry points currently dispatch to. Lazily
/// initialized from the LOCAT_SIMD environment variable on first use:
/// "off" or "scalar" selects kScalar, "native" (or unset) selects
/// BestBackend(). Invalid values warn once on stderr and fall back to
/// native.
Backend ActiveBackend();

/// The highest backend this build + CPU supports (AVX2+FMA on x86-64
/// when the CPU has them, NEON on aarch64, else scalar).
Backend BestBackend();

/// True when `b` can be selected in this build on this CPU. kScalar is
/// always available.
bool BackendAvailable(Backend b);

/// Forces the dispatch level. `b` must be available (assert).
/// Thread-safe, but switching while kernels run on other threads gives
/// an unspecified mix; callers switch between, not during, computations.
void SetBackend(Backend b);

const char* BackendName(Backend b);
const char* ActiveBackendName();

// ---------------------------------------------------------------------------
// Reductions (4-lane accumulator tree, FMA).

/// sum_i a[i] * b[i].
double Dot(const double* a, const double* b, size_t n);

/// sum_i x[i].
double Sum(const double* x, size_t n);

/// sum_i (a[i] - b[i])^2, fused (no temporary difference vector).
double SquaredDistance(const double* a, const double* b, size_t n);

/// sum_i w[i] * (a[i] - b[i])^2 — the ARD squared-exponential exponent.
double WeightedSquaredDistance(const double* a, const double* b,
                               const double* w, size_t n);

/// out[r] = Dot(m + r*cols, v, cols) for each of the `rows` rows.
void MatVecRowMajor(const double* m, size_t rows, size_t cols,
                    const double* v, double* out);

/// out[r] = SquaredDistance(rows + r*stride, q, dim).
void SquaredDistanceRows(const double* rows, size_t nrows, size_t dim,
                         size_t stride, const double* q, double* out);

/// out[r] = WeightedSquaredDistance(rows + r*stride, q, w, dim).
void WeightedSquaredDistanceRows(const double* rows, size_t nrows, size_t dim,
                                 size_t stride, const double* q,
                                 const double* w, double* out);

/// out[c] = WeightedSquaredDistance(q, point_c, w, dim) for `m` points
/// stored coordinate-major: coordinate k of point c is cols[k*m + c].
/// Vectorized across points; each output keeps the exact lane tree of the
/// single call, so it has the same bits.
void WeightedSquaredDistanceCols(const double* cols, size_t m, size_t dim,
                                 const double* q, const double* w,
                                 double* out);

// ---------------------------------------------------------------------------
// Elementwise kernels (lane-independent, hence trivially backend-invariant).

/// y[i] = fma(alpha, x[i], y[i]).
void Axpy(double alpha, const double* x, double* y, size_t n);

/// acc[i] = fma(x[i], x[i], acc[i]) — column sum-of-squares accumulator.
void AddSquares(const double* x, double* acc, size_t n);

/// out[i] = std::min(a[i], b[i]) — the exact std::min selection rule
/// (b < a ? b : a), not an ISA min instruction, so bits match scalar
/// <algorithm> code on every backend.
void Min(const double* a, const double* b, double* out, size_t n);

/// out[i] = a[i] - b[i] - shift — KPCA feature-space centering rows.
void SubtractShift(const double* a, const double* b, double shift,
                   double* out, size_t n);

/// x[i] = post * exp(pre * x[i]) via the shared polynomial exp.
void ExpScaled(double* x, size_t n, double pre, double post);

/// Scalar entry point of the shared polynomial exp. Always computed with
/// the scalar lane sequence, so it is bit-identical to any lane of any
/// backend's ExpScaled and independent of the dispatch setting. Domain:
/// exact 0 below -708, saturates at exp(708) above +708 (documented
/// flush/saturation; GP exponents are always <= 0).
double Exp(double x);

// ---------------------------------------------------------------------------
// Blocked linear algebra (row-major).

/// c (m x n) = a (m x k) * b (k x n). Overwrites c. Accumulates k in
/// ascending order per output via elementwise FMA rows (axpy form), so
/// any backend and any cache blocking gives identical bits.
void Gemm(const double* a, size_t m, size_t k, const double* b, size_t n,
          double* c);

/// In-place blocked right-looking Cholesky of the lower triangle of the
/// row-major n x n matrix `a` (upper triangle is neither read nor
/// written). Returns -1 on success or the index of the first
/// non-positive/non-finite pivot.
ptrdiff_t CholeskyFactorInPlace(double* a, size_t n);

/// Solves L Y = B in place on y (n x m) for lower-triangular L
/// (row-major n x n; only the lower triangle is read): forward
/// substitution register-blocked over 16-column groups. Every element
/// folds rows j < i in ascending order (skipping l_ij == 0) and then
/// multiplies by 1/l_ii, so its bits do not depend on m or on which
/// columns it shares a call with.
void SolveLowerMatrixInPlace(const double* l, size_t n, double* y, size_t m);

// ---------------------------------------------------------------------------
// Bordered Cholesky append (O(n^2) factor growth).

/// Bordered append. `l` is the factor of the leading n x n block of a
/// row-major matrix with row stride `stride` (>= n + 1 so the new row
/// fits the same storage). On entry row[0..n) holds the cross column k of
/// the bordered matrix [[A, k], [k^T, diag]]; on exit it holds the new
/// factor row w = L^-1 k (one canonical Dot per entry — same reduction
/// tree as the blocked factorization). Returns the Schur completion
/// d = diag - w.w; the append is valid iff d is a positive finite pivot,
/// in which case the new diagonal entry is sqrt(d). Bit-identical across
/// backends.
double CholUpdateAppendRow(const double* l, size_t n, size_t stride,
                           double* row, double diag);

}  // namespace locat::math::kern

#endif  // LOCAT_MATH_KERN_KERN_H_
